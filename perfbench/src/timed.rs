//! The three workloads' timed runs: every job goes through the public
//! API (`Tuner::tune`, or `DaemonClient` against `Daemon::launch`) with
//! telemetry off and nothing wrapped. Correctness checks run between
//! jobs, outside the job timings.

use crate::jobs::{
    draw, in_process_jobs, side_job, tuner_config, Corpus, Gate, Job, Outcome, BUDGET,
    DEFAULT_SEED, FILL_MODULES, MAX_ROUNDS, TIERS, WARMUP_MODULE, WORKERS,
};
use crate::traced::Recorder;
use bintuner::daemon::wire::WireTuneOutcome;
use bintuner::{
    Daemon, DaemonAddr, DaemonClient, DaemonConfig, DaemonHandle, ProcessFarm, ServiceConfig,
    TransportKind, TuneError, TuneResult, Tuner, WorkerMode,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Daemon runner threads. With one runner, jobs of the two tenants
/// queue and every job launches exactly one farm. Two runners
/// interleave batches of different modules on the module-keyed farm
/// slot, which relaunches the farm a timing-dependent number of times
/// per job and makes the workload unsteady.
pub const RUNNERS: usize = 1;
/// Wall seconds of one `cold_tune` round (three jobs) on the reference
/// host.
const COLD_ROUND_S: f64 = 1.25;
/// Wall seconds of one `daemon_mix` round (six jobs) on the reference
/// host.
const DAEMON_ROUND_S: f64 = 4.5;
/// Wall seconds of one warm job on the reference host.
const NOMINAL_WARM_JOB_S: f64 = 0.06;
/// Rounds of in-process jobs `warm_retune` replays: three jobs per tier.
/// Each job is replayed many times at an almost fixed cost, so the job
/// times form one tight cluster per job. With an odd number of jobs per
/// tier the median is the middle medium job's cluster (the median of
/// three draws, not one) and the tail lies inside the slowest job's.
const WARM_ROUNDS: usize = 3;
/// Rounds never drop below this, so a run has at least 20 jobs and a
/// tail.
const MIN_ROUNDS: usize = 8;

/// What a run needs from its command line and its checkout.
pub struct Env {
    pub seed: u64,
    pub seconds: u64,
    /// Scratch directory for stores and sockets, inside the checkout.
    pub work: PathBuf,
}

impl Env {
    /// Rounds of a job list for `--seconds`, at `round_s` per round.
    fn rounds(&self, round_s: f64) -> usize {
        ((self.seconds as f64 / round_s).ceil() as usize).clamp(MIN_ROUNDS, MAX_ROUNDS)
    }

    /// Passes over the warm jobs for `--seconds`.
    pub fn warm_reps(&self) -> usize {
        let per_pass = (WARM_ROUNDS * TIERS.len()) as f64 * NOMINAL_WARM_JOB_S;
        ((self.seconds as f64 / per_pass).ceil() as usize).max(4)
    }

    /// The release `bintuner` binary the daemon's farm re-executes,
    /// built next to this benchmark's own binary.
    pub fn worker_binary(&self) -> Result<PathBuf, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let path = exe.with_file_name("bintuner");
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "daemon_mix needs the release bintuner worker binary at {} \
                 (cargo build --release -p bintuner --bin bintuner with the same target dir)",
                path.display()
            ))
        }
    }
}

/// A workload's timed phase, before it becomes metrics.
pub struct Timed {
    pub setup_s: Vec<f64>,
    /// Per job: wall seconds (`daemon_mix`: submit to result).
    pub job_s: Vec<f64>,
    /// The same seconds by module, printed one row per module.
    pub by_module: BTreeMap<&'static str, Vec<f64>>,
    pub evals: usize,
    /// Wall seconds of the timed phase.
    pub phase_s: f64,
    pub best_ncd: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Extra lines printed beside the metrics.
    pub notes: Vec<String>,
}

impl Timed {
    fn new(setup_s: Vec<f64>) -> Timed {
        Timed {
            setup_s,
            job_s: Vec::new(),
            by_module: BTreeMap::new(),
            evals: 0,
            phase_s: 0.0,
            best_ncd: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }
}

/// One job through `Tuner::tune`, with an optional store.
pub fn tune(corpus: &Corpus, job: &Job, store: Option<&Path>) -> Result<TuneResult, TuneError> {
    let mut cfg = tuner_config(job.ga_seed);
    cfg.cache_path = store.map(Path::to_path_buf);
    Tuner::new(cfg).tune(corpus.module(job.module))
}

fn outcome(r: &TuneResult) -> Outcome {
    Outcome::new(&r.best_flags, r.best_ncd, r.iterations)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `cold_tune`: one job at a time, each a store-less `Tuner::tune`.
pub fn cold_tune(env: &Env, gate: &mut Gate) -> Result<Timed, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let corpus = Corpus::generate();
        let jobs = in_process_jobs(env.seed, env.rounds(COLD_ROUND_S));
        let warm = tune(&corpus, &side_job(env.seed, WARMUP_MODULE), None);
        setup_s.push(secs(t));
        let warm = warm.map_err(|e| format!("warm-up job: {e}"))?;
        gate.check_binary(&corpus, WARMUP_MODULE, &warm.best_binary)?;
        state = Some((corpus, jobs));
    }
    let (corpus, jobs) = state.expect("at least one set-up");
    let mut timed = Timed::new(setup_s);
    for job in &jobs {
        let t = Instant::now();
        let r = tune(&corpus, job, None);
        let wall = secs(t);
        timed.record(job, wall, &r);
        if let Ok(r) = &r {
            gate.check(&corpus, job, outcome(r), &r.best_binary)?;
        }
    }
    Ok(timed)
}

impl Timed {
    fn record(&mut self, job: &Job, wall: f64, r: &Result<TuneResult, TuneError>) {
        self.attempted += 1;
        self.phase_s += wall;
        match r {
            Ok(r) => self.done(job, wall, r.iterations, r.best_ncd),
            Err(e) => {
                eprintln!("job failed: {e}");
                self.failed += 1;
            }
        }
    }

    fn done(&mut self, job: &Job, seconds: f64, evals: usize, best_ncd: f64) {
        self.job_s.push(seconds);
        self.by_module.entry(job.module).or_default().push(seconds);
        self.evals += evals;
        self.best_ncd.push(best_ncd);
    }
}

/// Set up `warm_retune` from `started` on: generate the inputs, cold-tune
/// the warm jobs and the fill modules into a fresh store, then replay one
/// warm job (the warm-up). Returns the inputs, the cold outcomes of the
/// warm jobs (checked against the gate) and the set-up seconds.
pub fn warm_setup(
    env: &Env,
    store: &Path,
    gate: &mut Gate,
    started: Instant,
) -> Result<(Corpus, Vec<Job>, Vec<Outcome>, f64), String> {
    let corpus = Corpus::generate();
    let jobs = in_process_jobs(env.seed, WARM_ROUNDS);
    let fill: Vec<Job> = FILL_MODULES
        .iter()
        .map(|m| side_job(DEFAULT_SEED, m))
        .collect();
    let results: Vec<_> = jobs
        .iter()
        .chain(&fill)
        .chain(&jobs[..1])
        .map(|job| tune(&corpus, job, Some(store)))
        .collect();
    let setup = secs(started);
    let mut cold = Vec::new();
    for (job, r) in jobs.iter().chain(&fill).zip(&results) {
        let r = r.as_ref().map_err(|e| format!("store fill: {e}"))?;
        if cold.len() < jobs.len() {
            gate.check(&corpus, job, outcome(r), &r.best_binary)?;
            cold.push(outcome(r));
        } else {
            gate.check_binary(&corpus, job.module, &r.best_binary)?;
        }
    }
    let warmup = results
        .last()
        .expect("warm-up job")
        .as_ref()
        .map_err(|e| format!("warm-up job: {e}"))?;
    if warmup.engine_stats.compiles != 0 || outcome(warmup) != cold[0] {
        return Err("warm-up replay of a filled job was not a zero-compile replay".into());
    }
    Ok((corpus, jobs, cold, setup))
}

/// `warm_retune`: the warm jobs, re-tuned over and over
/// against the store set-up filled. Every timed job must compile
/// nothing, reproduce its cold fill, and leave the store unchanged.
pub fn warm_retune(env: &Env, gate: &mut Gate) -> Result<Timed, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let store = env.work.join(format!("warm-store-{k}"));
        let (corpus, jobs, cold, setup) = warm_setup(env, &store, gate, t)?;
        setup_s.push(setup);
        if let Some((_, _, old, _)) = state.replace((corpus, jobs, store, cold)) {
            std::fs::remove_dir_all(old).map_err(|e| e.to_string())?;
        }
    }
    let (corpus, jobs, store, cold) = state.expect("at least one set-up");
    let before = dir_digest(&store)?;
    let mut timed = Timed::new(setup_s);
    for _ in 0..env.warm_reps() {
        for (job, cold) in jobs.iter().zip(&cold) {
            let t = Instant::now();
            let r = tune(&corpus, job, Some(&store));
            let wall = secs(t);
            timed.record(job, wall, &r);
            if let Ok(r) = &r {
                if r.engine_stats.compiles != 0 {
                    return Err(format!(
                        "{}: warm job compiled {} times; the workload is not warm",
                        job.module, r.engine_stats.compiles
                    ));
                }
                if outcome(r) != *cold {
                    return Err(format!(
                        "{}: warm outcome differs from its cold fill",
                        job.module
                    ));
                }
                gate.check(&corpus, job, outcome(r), &r.best_binary)?;
            }
        }
    }
    if dir_digest(&store)? != before {
        return Err("warm jobs changed the store's files; the workload is not warm".into());
    }
    timed.notes.push(format!(
        "artifact log: {} bytes, read by every warm job",
        std::fs::metadata(store.join("artifacts.log")).map_or(0, |m| m.len())
    ));
    Ok(timed)
}

/// Launch a daemon with a fresh shared store and a farm of `WORKERS`
/// `--evald-worker` processes over TCP.
pub fn launch_daemon(env: &Env, name: &str, worker: &Path) -> Result<DaemonHandle, String> {
    let config = DaemonConfig {
        transport: TransportKind::Unix,
        unix_path: Some(env.work.join(format!("{name}.sock"))),
        base: tuner_config(0),
        store_path: Some(env.work.join(format!("{name}-store"))),
        farm: farm_config(worker),
        runners: RUNNERS,
        ..DaemonConfig::default()
    };
    Daemon::launch(config).map_err(|e| format!("daemon launch: {e}"))
}

/// The daemon's farm shape.
pub fn farm_config(worker: &Path) -> ServiceConfig {
    ServiceConfig {
        clients: WORKERS,
        transport: TransportKind::Tcp,
        workers: WorkerMode::Processes(ProcessFarm {
            worker_binary: Some(worker.to_path_buf()),
            ..ProcessFarm::default()
        }),
        ..ServiceConfig::default()
    }
}

/// One tenant's result for one job.
pub struct TenantResult {
    pub job: Job,
    /// Submit to result, seconds.
    pub latency: f64,
    pub outcome: Result<WireTuneOutcome, String>,
}

/// One tenant's closed loop: submit, wait for the result, next. With a
/// recorder, `submit` and `fetch_result` are traced as the top-level
/// spans of each job, under the job's id (its index in `jobs` plus
/// `id_base`). `order` places the first submit after the other
/// tenant's, or reports this one's, so the daemon's queue order is the
/// same on every run.
pub fn tenant_loop(
    addr: &DaemonAddr,
    corpus: &Corpus,
    lane: usize,
    jobs: &[(usize, Job)],
    trace: Option<(&Recorder, usize)>,
    order: FirstSubmit,
) -> Result<Vec<TenantResult>, String> {
    let mut client = DaemonClient::connect(addr).map_err(|e| e.to_string())?;
    let tenant = format!("tenant-{lane}");
    let mut out = Vec::new();
    let mut order = Some(order);
    for (i, job) in jobs {
        if let Some(FirstSubmit::Wait(rx)) = &order {
            // An error means the other tenant stopped early: go on.
            let _ = rx.recv();
        }
        let t = Instant::now();
        let id = client
            .submit(
                &tenant,
                corpus.module(job.module),
                job.ga_seed,
                BUDGET as u64,
                false,
                0,
            )
            .map_err(|e| e.to_string())?;
        let submitted = Instant::now();
        if let Some(FirstSubmit::Signal(tx)) = order.take() {
            let _ = tx.send(());
        }
        let outcome = match id {
            Ok(id) => client.fetch_result(id).map_err(|e| e.to_string())?,
            Err((code, detail)) => Err(format!("rejected: {code:?} {detail}")),
        };
        let done = Instant::now();
        if let Some((rec, id_base)) = trace {
            rec.record(id_base + i, "daemon.submit", t, submitted);
            rec.record(id_base + i, "daemon.fetch_result", submitted, done);
        }
        out.push(TenantResult {
            job: job.clone(),
            latency: (done - t).as_secs_f64(),
            outcome,
        });
    }
    Ok(out)
}

/// How a tenant's first submit is ordered against the other tenant's.
pub enum FirstSubmit {
    /// Submit at once.
    Free,
    /// Report the first submit's admission on this channel.
    Signal(mpsc::Sender<()>),
    /// Wait for the other tenant's report first.
    Wait(mpsc::Receiver<()>),
}

/// Both tenants' closed loops, concurrently, over the lanes of `jobs`;
/// lane 0 submits first. Results come back in the order of `jobs`.
pub fn run_tenants(
    daemon: &DaemonHandle,
    corpus: &Corpus,
    jobs: &[Job],
    trace: Option<(&Recorder, usize)>,
) -> Result<Vec<TenantResult>, String> {
    let lanes: Vec<Vec<(usize, Job)>> = (0..WORKERS)
        .map(|lane| {
            jobs.iter()
                .cloned()
                .enumerate()
                .filter(|(_, j)| j.lane == lane)
                .collect()
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let orders = [FirstSubmit::Signal(tx), FirstSubmit::Wait(rx)];
    let mut all = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter()
            .zip(orders)
            .enumerate()
            .map(|(lane, (lane_jobs, order))| {
                s.spawn(move || tenant_loop(daemon.addr(), corpus, lane, lane_jobs, trace, order))
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("tenant thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    all.sort_by_key(|r| jobs.iter().position(|j| *j == r.job));
    Ok(all)
}

/// Check a daemon job's outcome: the golden (default seed) and `emu`
/// on its recompiled best binary.
pub fn check_daemon_job(
    corpus: &Corpus,
    gate: &mut Gate,
    job: &Job,
    o: &WireTuneOutcome,
) -> Result<(), String> {
    let bin = minicc::Compiler::new(minicc::CompilerKind::Gcc)
        .compile(corpus.module(job.module), &o.best_flags, binrep::Arch::X86)
        .map_err(|e| format!("{}: best flags do not recompile: {e}", job.module))?;
    let outcome = Outcome::new(
        &o.best_flags,
        f64::from_bits(o.best_ncd_bits),
        o.iterations as usize,
    );
    gate.check(corpus, job, outcome, &bin)
}

/// Set up a daemon (launch, first farm launch through the warm-up job).
pub fn daemon_setup(
    env: &Env,
    name: &str,
    worker: &Path,
    gate: &mut Gate,
) -> Result<(Corpus, Vec<Job>, DaemonHandle, f64), String> {
    let t = Instant::now();
    let corpus = Corpus::generate();
    let jobs = draw(env.seed, env.rounds(DAEMON_ROUND_S));
    let daemon = launch_daemon(env, name, worker)?;
    let warm = side_job(env.seed, WARMUP_MODULE);
    let mut results = tenant_loop(
        daemon.addr(),
        &corpus,
        0,
        &[(0, warm)],
        None,
        FirstSubmit::Free,
    )?;
    let setup = secs(t);
    let r = results.pop().expect("one warm-up job");
    let o = r.outcome.map_err(|e| format!("warm-up job: {e}"))?;
    let bin = minicc::Compiler::new(minicc::CompilerKind::Gcc)
        .compile(
            corpus.module(WARMUP_MODULE),
            &o.best_flags,
            binrep::Arch::X86,
        )
        .map_err(|e| e.to_string())?;
    gate.check_binary(&corpus, WARMUP_MODULE, &bin)?;
    Ok((corpus, jobs, daemon, setup))
}

/// `daemon_mix`: two tenants in closed loops against one daemon.
pub fn daemon_mix(env: &Env, gate: &mut Gate) -> Result<Timed, String> {
    let worker = env.worker_binary()?;
    let mut setup_s = Vec::new();
    let mut state = None;
    for k in 0..SETUPS {
        let (corpus, jobs, daemon, setup) = daemon_setup(env, &format!("d{k}"), &worker, gate)?;
        setup_s.push(setup);
        if let Some((_, _, old)) = state.replace((corpus, jobs, daemon)) {
            DaemonHandle::shutdown(old);
        }
    }
    let (corpus, jobs, daemon) = state.expect("at least one set-up");
    let mut timed = Timed::new(setup_s);
    let t = Instant::now();
    let results = run_tenants(&daemon, &corpus, &jobs, None);
    timed.phase_s = secs(t);
    let snapshot = daemon.metrics_snapshot();
    daemon.shutdown();
    for r in results? {
        timed.attempted += 1;
        match &r.outcome {
            Ok(o) => {
                let ncd = f64::from_bits(o.best_ncd_bits);
                timed.done(&r.job, r.latency, o.iterations as usize, ncd);
                check_daemon_job(&corpus, gate, &r.job, o)?;
            }
            Err(e) => {
                eprintln!("job failed: {e}");
                timed.failed += 1;
            }
        }
    }
    timed.notes.push(format!(
        "farm launches: {} for {} jobs (warm-up included), {} runner(s), {} tenants",
        snapshot.farm_launches,
        snapshot.completed + snapshot.failed,
        RUNNERS,
        WORKERS
    ));
    Ok(timed)
}

/// FNV digest of every file under `dir` (relative path and contents).
pub fn dir_digest(dir: &Path) -> Result<u64, String> {
    let mut files = Vec::new();
    walk(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(f.strip_prefix(dir).unwrap_or(&f).to_string_lossy().bytes());
        bytes.extend(std::fs::read(&f).map_err(|e| e.to_string())?);
    }
    Ok(crate::jobs::fnv64(bytes))
}

/// Every regular file under `dir`.
pub fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}
