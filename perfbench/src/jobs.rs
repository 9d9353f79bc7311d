//! The seeded job draw shared by all three workloads, the tuner
//! configuration every job runs with, and the correctness gate: the
//! committed expected `emu` outputs and the committed outcome golden.

use binrep::Binary;
use bintuner::TunerConfig;
use genetic::{GaParams, Termination};
use minicc::ast::Module;
use std::collections::{BTreeMap, HashSet};

/// The seed the committed outcome golden was produced with.
pub const DEFAULT_SEED: u64 = 1;
/// GA evaluations per job. Plateau termination is disabled, so every
/// job stops exactly here and job cost does not depend on when the
/// search happens to flatten out.
pub const BUDGET: usize = 72;
/// GA population: 16 initial genomes, then 14 children per generation
/// (so the budget is four whole generations after the first).
pub const POPULATION: usize = 16;
/// Engine workers, farm workers and tenants. The reference host has 2
/// CPUs, so none of these is left on auto.
pub const WORKERS: usize = 2;
/// Rounds the golden covers; a workload draws at most this many.
pub const MAX_ROUNDS: usize = 16;
/// Instruction budget for one `emu` run of a tuned binary.
const FUEL: u64 = 5_000_000;

/// Module tiers by size (about 0.8K, 2.4K and 5.2K baseline
/// instructions), one module per lane. The lanes are disjoint, and in
/// `daemon_mix` each lane is one tenant. The module of each tier is
/// fixed rather than drawn from a wider pool: job cost differs up to 2x
/// between corpus modules of similar size, and a pool would move the
/// median with the draw. Every round holds one job per tier and lane.
pub const TIERS: [[&str; 2]; 3] = [
    ["429.mcf", "605.mcf_s"],
    ["456.hmmer", "657.xz_s"],
    ["445.gobmk", "620.omnetpp_s"],
];
/// Module of the untimed warm-up job of every set-up.
pub const WARMUP_MODULE: &str = "648.exchange2_s";
/// Modules `warm_retune`'s set-up also cold-tunes into the store, with
/// GA seeds that do not depend on the run's seed: the history of a
/// long-lived store, which has seen the warm jobs' modules and others
/// before. The artifact log then holds several times what one timed job
/// reads, and its size moves little with the seed.
pub const FILL_MODULES: [&str; 8] = [
    "429.mcf",
    "456.hmmer",
    "445.gobmk",
    "401.bzip2",
    "625.x264_s",
    "458.sjeng",
    "631.deepsjeng_s",
    "641.leela_s",
];

/// One tuning job: a module and the GA seed it is tuned with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Corpus module name.
    pub module: &'static str,
    /// `TunerConfig::seed` of the job.
    pub ga_seed: u64,
    /// Lane (the tenant in `daemon_mix`).
    pub lane: usize,
}

/// SplitMix64: the benchmark's own small seeded generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The jobs of `rounds` rounds for `seed`. The seed draws which lane
/// gets which module of each tier (fixed for the run, so lanes stay
/// disjoint) and every GA seed. A shorter draw is a prefix of a longer
/// one.
///
/// In every round lane 0 runs its tiers small to large and lane 1 large
/// to small. With one daemon runner and lane 0 submitting first, each
/// job queues behind one job of the other lane, so a `daemon_mix`
/// latency is the sum of two jobs: small+small, medium+medium and, for
/// two thirds of the jobs, large+small or large+medium. The median then
/// falls inside the large+small group and the tail inside the
/// large+medium group, not between two sizes.
pub fn draw(seed: u64, rounds: usize) -> Vec<Job> {
    let mut rng = SplitMix::new(seed);
    let swap: Vec<usize> = TIERS.iter().map(|_| (rng.next() & 1) as usize).collect();
    let mut jobs = Vec::with_capacity(rounds * 6);
    for _ in 0..rounds {
        for step in 0..TIERS.len() {
            for lane in 0..2 {
                let tier = if lane == 0 {
                    step
                } else {
                    TIERS.len() - 1 - step
                };
                jobs.push(Job {
                    module: TIERS[tier][lane ^ swap[tier]],
                    ga_seed: rng.next(),
                    lane,
                });
            }
        }
    }
    jobs
}

/// The jobs of the in-process workloads: those of `rounds` rounds of the
/// draw on each tier's first module. One module per tier keeps each tier
/// one module's group of jobs: the second module of a tier can differ
/// from the first by a quarter, and with both the median and the tail
/// would sit on the edge between their groups. With three equal groups
/// the median falls in the middle of the medium one, and the tail (from
/// 16 rounds on) inside the large one.
pub fn in_process_jobs(seed: u64, rounds: usize) -> Vec<Job> {
    draw(seed, rounds)
        .into_iter()
        .filter(|j| TIERS.iter().any(|t| t[0] == j.module))
        .collect()
}

/// A set-up-only job (warm-up or store fill) on `module`.
pub fn side_job(seed: u64, module: &'static str) -> Job {
    let salt = module
        .bytes()
        .fold(0u64, |h, b| h.rotate_left(5) ^ u64::from(b));
    Job {
        module,
        ga_seed: SplitMix::new(seed ^ salt).next(),
        lane: 0,
    }
}

/// The configuration every job is tuned with: `TunerConfig`'s defaults
/// (artifact cache on, dedup off, priors off, telemetry off) except the
/// pinned worker count, the population and the fixed budget.
pub fn tuner_config(ga_seed: u64) -> TunerConfig {
    let base = TunerConfig::default();
    TunerConfig {
        seed: ga_seed,
        workers: WORKERS,
        ga: GaParams {
            population: POPULATION,
            ..GaParams::default()
        },
        termination: Termination {
            max_evaluations: BUDGET,
            min_evaluations: BUDGET,
            plateau_window: BUDGET,
            ..base.termination.clone()
        },
        ..base
    }
}

/// The corpus modules the benchmark uses, with their test inputs.
pub struct Corpus(BTreeMap<&'static str, corpus::Benchmark>);

impl Corpus {
    /// Generate every SPEC-analog module the workloads can draw.
    pub fn generate() -> Corpus {
        let wanted: HashSet<&str> = TIERS
            .iter()
            .flatten()
            .chain(&FILL_MODULES)
            .copied()
            .chain([WARMUP_MODULE])
            .collect();
        Corpus(
            corpus::spec2006()
                .into_iter()
                .chain(corpus::spec2017())
                .filter(|b| wanted.contains(b.name))
                .map(|b| (b.name, b))
                .collect(),
        )
    }

    pub fn module(&self, name: &str) -> &Module {
        &self.0[name].module
    }

    pub fn all(&self) -> impl Iterator<Item = &corpus::Benchmark> {
        self.0.values()
    }
}

/// What a job's result is pinned by: the best flags (as a digest), the
/// best NCD's bits, and the evaluation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub flags_digest: u64,
    pub ncd_bits: u64,
    pub iterations: u64,
}

impl Outcome {
    pub fn new(flags: &[bool], ncd: f64, iterations: usize) -> Outcome {
        Outcome {
            flags_digest: fnv64(flags.iter().map(|&b| u8::from(b))),
            ncd_bits: ncd.to_bits(),
            iterations: iterations as u64,
        }
    }
}

/// FNV-1a over a byte stream.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `emu`'s observable behaviour of a binary on one input vector.
type Observed = (u32, Vec<u32>);
/// Per module: each test input with its expected behaviour.
type Expected = BTreeMap<String, Vec<(Vec<u32>, Observed)>>;

const GOLDEN: &str = include_str!("../golden/outcomes.txt");
const EXPECTED: &str = include_str!("../golden/expected_outputs.txt");

/// The committed golden and expected outputs, plus the binaries already
/// checked in this run (a binary is checked once per distinct encoding).
pub struct Gate {
    seed: u64,
    golden: BTreeMap<(String, u64), Outcome>,
    expected: Expected,
    checked: HashSet<(&'static str, u64)>,
}

impl Gate {
    /// Parse the committed files. The golden is only consulted when
    /// `seed` is [`DEFAULT_SEED`].
    pub fn load(seed: u64) -> Result<Gate, String> {
        Ok(Gate {
            seed,
            golden: parse_golden(GOLDEN)?,
            expected: parse_expected(EXPECTED)?,
            checked: HashSet::new(),
        })
    }

    /// Check a timed job's outcome against the golden (default seed
    /// only) and its tuned binary against the expected outputs.
    pub fn check(
        &mut self,
        corpus: &Corpus,
        job: &Job,
        outcome: Outcome,
        bin: &Binary,
    ) -> Result<(), String> {
        if self.seed == DEFAULT_SEED {
            match self.golden.get(&(job.module.to_string(), job.ga_seed)) {
                Some(g) if *g == outcome => {}
                Some(g) => {
                    return Err(format!(
                        "{} seed {:#x}: outcome {outcome:?} differs from golden {g:?}",
                        job.module, job.ga_seed
                    ))
                }
                None => {
                    return Err(format!(
                        "{} seed {:#x}: no golden entry",
                        job.module, job.ga_seed
                    ))
                }
            }
        }
        self.check_binary(corpus, job.module, bin)
    }

    /// Run `bin` under `emu` on the module's test inputs and compare
    /// with the committed expected outputs.
    pub fn check_binary(
        &mut self,
        corpus: &Corpus,
        module: &'static str,
        bin: &Binary,
    ) -> Result<(), String> {
        let digest = fnv64(binrep::encode_binary(bin));
        if !self.checked.insert((module, digest)) {
            return Ok(());
        }
        let expected = self
            .expected
            .get(module)
            .ok_or_else(|| format!("{module}: no expected outputs"))?;
        let inputs = &corpus.0[module].test_inputs;
        if expected.len() != inputs.len() {
            return Err(format!("{module}: expected outputs cover other inputs"));
        }
        for (input, (want_in, want)) in inputs.iter().zip(expected) {
            let got = observe(bin, input)?;
            if input != want_in || got != *want {
                return Err(format!(
                    "{module} on {input:?}: tuned binary gave {got:?}, expected {want:?}"
                ));
            }
        }
        Ok(())
    }
}

fn observe(bin: &Binary, input: &[u32]) -> Result<Observed, String> {
    let r = emu::Machine::new(bin)
        .run(&[], input, FUEL)
        .map_err(|e| format!("emu: {e:?}"))?;
    Ok((r.ret, r.output))
}

fn nums(s: &str) -> Result<Vec<u32>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|v| v.parse().map_err(|_| format!("bad number {v:?}")))
        .collect()
}

fn join(v: &[u32]) -> String {
    if v.is_empty() {
        return "-".into();
    }
    v.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

fn hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|_| format!("bad hex {s:?}"))
}

fn data_lines(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
}

/// `<module> <ga seed hex> <flags digest hex> <ncd bits hex> <iterations>`
fn parse_golden(text: &str) -> Result<BTreeMap<(String, u64), Outcome>, String> {
    data_lines(text)
        .map(|f| match f.as_slice() {
            [module, seed, flags, ncd, iters] => Ok((
                (module.to_string(), hex(seed)?),
                Outcome {
                    flags_digest: hex(flags)?,
                    ncd_bits: hex(ncd)?,
                    iterations: iters.parse().map_err(|_| "bad iterations".to_string())?,
                },
            )),
            _ => Err(format!("malformed golden line {f:?}")),
        })
        .collect()
}

/// `<module> <inputs> <ret> <outputs>`, one line per test input.
fn parse_expected(text: &str) -> Result<Expected, String> {
    let mut map = Expected::new();
    for f in data_lines(text) {
        let [module, inputs, ret, outputs] = f.as_slice() else {
            return Err(format!("malformed expected-output line {f:?}"));
        };
        let ret = ret.parse().map_err(|_| format!("bad ret {ret:?}"))?;
        map.entry(module.to_string())
            .or_default()
            .push((nums(inputs)?, (ret, nums(outputs)?)));
    }
    Ok(map)
}

/// Write the expected outputs (from each module's `-O0` build under
/// `emu`) and the default seed's outcome golden (from `Tuner::tune` on
/// every job of [`MAX_ROUNDS`] rounds). Run once when the corpus or the
/// job draw changes; timed and traced runs only read these files.
pub fn bless(dir: &std::path::Path) -> Result<(), String> {
    let corpus = Corpus::generate();
    let cc = minicc::Compiler::new(minicc::CompilerKind::Gcc);
    let mut expected = String::from(
        "# Expected emu behaviour per module and test input: <module> <inputs> <ret> <outputs>.\n\
         # Taken once from each module's -O0 build; every tuned binary must match it.\n",
    );
    for b in corpus.all() {
        let bin = cc
            .compile_preset(&b.module, minicc::OptLevel::O0, binrep::Arch::X86)
            .map_err(|e| e.to_string())?;
        for input in &b.test_inputs {
            let (ret, out) = observe(&bin, input)?;
            expected += &format!("{} {} {ret} {}\n", b.name, join(input), join(&out));
        }
    }
    let mut golden = format!(
        "# Outcome golden for --seed {DEFAULT_SEED}: <module> <ga seed> <best-flags fnv64> \
         <best-NCD bits> <iterations>.\n# Budget {BUDGET}, population {POPULATION}; \
         produced by in-process Tuner::tune.\n"
    );
    for job in draw(DEFAULT_SEED, MAX_ROUNDS) {
        let r = bintuner::Tuner::new(tuner_config(job.ga_seed))
            .tune(corpus.module(job.module))
            .map_err(|e| e.to_string())?;
        let o = Outcome::new(&r.best_flags, r.best_ncd, r.iterations);
        golden += &format!(
            "{} {:016x} {:016x} {:016x} {}\n",
            job.module, job.ga_seed, o.flags_digest, o.ncd_bits, o.iterations
        );
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("expected_outputs.txt"), expected).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("outcomes.txt"), golden).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_seeded_and_prefix_stable() {
        assert_eq!(draw(7, 3), draw(7, 3));
        assert_ne!(draw(7, 3), draw(8, 3));
        assert_eq!(draw(7, 5)[..18], draw(7, 3)[..]);
    }

    #[test]
    fn lanes_tune_disjoint_modules_and_tiers_are_balanced() {
        for seed in 0..20 {
            let jobs = draw(seed, 4);
            let lane = |l| -> HashSet<&str> {
                jobs.iter()
                    .filter(|j| j.lane == l)
                    .map(|j| j.module)
                    .collect()
            };
            assert!(lane(0).is_disjoint(&lane(1)));
            for tier in TIERS {
                let n = jobs.iter().filter(|j| tier.contains(&j.module)).count();
                assert_eq!(n, jobs.len() / 3);
            }
        }
    }

    #[test]
    fn committed_files_parse_and_cover_the_default_draw() {
        let gate = Gate::load(DEFAULT_SEED).unwrap();
        for job in draw(DEFAULT_SEED, MAX_ROUNDS) {
            assert!(gate
                .golden
                .contains_key(&(job.module.to_string(), job.ga_seed)));
        }
        for module in TIERS
            .iter()
            .flatten()
            .chain(&FILL_MODULES)
            .chain([&WARMUP_MODULE])
        {
            assert_eq!(gate.expected[*module].len(), 3, "{module}");
        }
    }
}
