//! The farm's workers (paper §5 "Implementation").
//!
//! Every client of a [`crate::service::ServiceHandle`] farm, a thread
//! beside the server or a worker *process*, runs `run_worker`: it sends
//! its [`evald::wire::Frame::Hello`], receives the module under test as a
//! [`evald::wire::Frame::Job`] (encoded with [`minicc::codec`]), builds
//! its own [`crate::FitnessEngine`], and serves shards — rebuilding the
//! engine whenever the next job's module arrives — until shutdown. A
//! [`Worker`] describes one such client.
//!
//! A worker process is the current binary re-execed with the hidden
//! `--evald-worker` entry point ([`worker_main`]), connecting back over
//! the configured stream transport (Unix socket or TCP loopback). The
//! crate-private `WorkerSpec` is the parent side: binary resolution and
//! process spawning with retry backoff (`spawn_with_retry`), used by the
//! service launcher.

use crate::engine::{EngineConfig, EngineTelemetry, FAILED_COMPILE_PENALTY};
use crate::store::ArtifactStore;
use crate::FitnessEngine;
use binrep::Arch;
use evald::wire::{encode_frame, Frame};
use evald::{
    Client, ClientOptions, Duplex, Endpoint, EvaldError, FaultKind, ShardWorker, WireAstArtifact,
    WireEval, WireLowerArtifact, WireSpan,
};
use minicc::{Compiler, CompilerKind, CompilerProfile};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// One farm worker, thread or process: everything it needs besides its
/// connection and the module, which arrives on the `Job` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Worker {
    /// Zero-based client id: it offsets the worker's span-id range and
    /// names the worker in its error messages.
    pub client_id: u32,
    /// Which compiler profile to build.
    pub kind: CompilerKind,
    /// Target architecture.
    pub arch: Arch,
    /// Whether the worker's engine keeps its staged artifact cache.
    pub artifact_cache: bool,
    /// Whether the worker records trace spans (stage timings parented
    /// to the server's dispatch spans, shipped back on Result frames).
    pub trace: bool,
    /// Chaos hook: trigger `fault_kind` after this many shards.
    pub fail_after: Option<usize>,
    /// What the chaos hook does when it triggers (crash, hang, slow
    /// frames, dropped frame). Inert while `fail_after` is `None`.
    pub fault_kind: FaultKind,
}

/// Parsed `--evald-worker` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArgs {
    /// The worker to run.
    pub worker: Worker,
    /// Server endpoint to connect back to.
    pub endpoint: Endpoint,
}

/// Parse a `--fault-kind` value: `crash`, `hang`, `drop`, `slow:<ms>`.
fn fault_kind_from_arg(arg: &str) -> Result<FaultKind, String> {
    match arg {
        "crash" => Ok(FaultKind::Crash),
        "hang" => Ok(FaultKind::Hang),
        "drop" => Ok(FaultKind::DropFrame),
        other => match other.strip_prefix("slow:") {
            Some(ms) => ms
                .parse::<u64>()
                .map(FaultKind::SlowFrame)
                .map_err(|e| format!("--fault-kind slow: {e}")),
            None => Err(format!(
                "--fault-kind expects crash|hang|drop|slow:<ms>, got {other}"
            )),
        },
    }
}

/// Inverse of [`fault_kind_from_arg`], used when spawning workers.
fn fault_kind_to_arg(kind: FaultKind) -> String {
    match kind {
        FaultKind::Crash => "crash".to_string(),
        FaultKind::Hang => "hang".to_string(),
        FaultKind::DropFrame => "drop".to_string(),
        FaultKind::SlowFrame(ms) => format!("slow:{ms}"),
    }
}

impl WorkerArgs {
    /// Parse the arguments following `--evald-worker`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed or missing
    /// argument (the worker prints it to stderr and exits non-zero —
    /// the parent only ever sees a connection that never arrived).
    pub fn parse(args: &[String]) -> Result<WorkerArgs, String> {
        let mut client_id = None;
        let mut kind = None;
        let mut arch = None;
        let mut artifact_cache = None;
        let mut endpoint = None;
        let mut trace = false;
        let mut fail_after = None;
        let mut fault_kind = FaultKind::Crash;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} expects a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--client-id" => {
                    client_id = Some(
                        value()?
                            .parse::<u32>()
                            .map_err(|e| format!("--client-id: {e}"))?,
                    );
                }
                "--compiler-tag" => {
                    let tag = value()?
                        .parse::<u8>()
                        .map_err(|e| format!("--compiler-tag: {e}"))?;
                    kind = Some(
                        CompilerKind::from_stable_id(tag)
                            .ok_or_else(|| format!("unknown compiler tag {tag}"))?,
                    );
                }
                "--arch-tag" => {
                    let tag = value()?
                        .parse::<u8>()
                        .map_err(|e| format!("--arch-tag: {e}"))?;
                    arch =
                        Some(Arch::from_tag(tag).ok_or_else(|| format!("unknown arch tag {tag}"))?);
                }
                "--artifact-cache" => {
                    artifact_cache = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--artifact-cache expects 0|1, got {other}")),
                    });
                }
                "--tcp" => {
                    endpoint = Some(Endpoint::Tcp(
                        value()?
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("--tcp: {e}"))?,
                    ));
                }
                "--unix" => endpoint = Some(Endpoint::Unix(PathBuf::from(value()?))),
                "--trace" => trace = true,
                "--fail-after" => {
                    fail_after = Some(
                        value()?
                            .parse::<usize>()
                            .map_err(|e| format!("--fail-after: {e}"))?,
                    );
                }
                "--fault-kind" => fault_kind = fault_kind_from_arg(&value()?)?,
                other => return Err(format!("unknown worker argument {other}")),
            }
        }
        Ok(WorkerArgs {
            worker: Worker {
                client_id: client_id.ok_or("--client-id is required")?,
                kind: kind.ok_or("--compiler-tag is required")?,
                arch: arch.ok_or("--arch-tag is required")?,
                artifact_cache: artifact_cache.ok_or("--artifact-cache is required")?,
                trace,
                fail_after,
                fault_kind,
            },
            endpoint: endpoint.ok_or("--tcp or --unix is required")?,
        })
    }
}

/// The `--evald-worker` entry point: parse `args` (everything after the
/// `--evald-worker` sentinel), connect, run the worker, and return the
/// process exit code. The `bintuner` binary calls this from `main`.
pub fn worker_main(args: &[String]) -> i32 {
    let parsed = match WorkerArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("evald worker: {e}");
            return 2;
        }
    };
    let duplex = parsed.endpoint.connect();
    match duplex.and_then(|d| run_worker(d, &parsed.worker)) {
        // A server that simply goes away is a normal end of service.
        Ok(()) | Err(EvaldError::Disconnected) => 0,
        Err(e) => {
            eprintln!("evald worker {}: {e}", parsed.worker.client_id);
            1
        }
    }
}

/// Serve the farm on `duplex` as `worker`: greet, then for each job
/// build an engine from the job's module and serve its shards, until
/// shutdown. Thread workers and worker processes both start here. The
/// worker holds one engine at a time, with its own [`Compiler`] and no
/// store of its own: its results go home on `Result` frames.
pub(crate) fn run_worker(mut duplex: Duplex, worker: &Worker) -> Result<(), EvaldError> {
    let n_flags = CompilerProfile::new(worker.kind).n_flags() as u16;
    duplex
        .tx
        .send_frame(&encode_frame(&Frame::Hello { n_flags }))?;
    let compiler = Compiler::new(worker.kind);
    let config = EngineConfig {
        workers: 1,
        artifact_cache: worker.artifact_cache,
        ..EngineConfig::default()
    };
    // A private registry (only spans travel back over the wire; the
    // handles hold their metrics alive without it) and a per-client
    // span-id range, so stitched traces never collide with the server's
    // — or each other's — ids. One tracer for the worker's life: spans
    // of successive jobs never share ids either.
    let tracing = worker.trace.then(|| {
        (
            btel::Registry::new(),
            btel::Tracer::with_id_base(4096, (u64::from(worker.client_id) + 1) << 48),
        )
    });
    let mut client = Client::new(ClientOptions {
        n_flags,
        fail_after_shards: worker.fail_after,
        fault_kind: worker.fault_kind,
    });
    let mut next = client.serve(&mut duplex, None)?;
    while let Some(payload) = next {
        let module = minicc::codec::decode_module(&payload)
            .map_err(|_| EvaldError::Corrupt("job payload is not an encoded module"))?;
        let mut engine = FitnessEngine::new(&compiler, &module, worker.arch, config.clone())
            .map_err(|_| EvaldError::Protocol("worker engine failed its baseline compile"))?;
        if worker.artifact_cache {
            // An in-memory artifact store is a pure *producer* seam: it
            // is never saved, so it never answers membership queries —
            // the engine's compile classification (and thus the
            // differential bit-identity guarantee) is untouched. Its only
            // job is to capture freshly built stage artifacts for the
            // shard's Result frame; the server folds them into the
            // persistent store.
            engine.set_artifact_store(ArtifactStore::in_memory());
        }
        if let Some((registry, tracer)) = &tracing {
            engine.set_telemetry(EngineTelemetry::from_registry(registry, tracer.clone()));
        }
        next = client.serve(&mut duplex, Some(&mut EngineWorker { engine: &engine }))?;
    }
    Ok(())
}

/// [`ShardWorker`] over a farm worker's [`FitnessEngine`] (see
/// [`run_worker`]).
struct EngineWorker<'e, 'a> {
    engine: &'e FitnessEngine<'a>,
}

impl ShardWorker for EngineWorker<'_, '_> {
    fn evaluate(&mut self, genomes: &[Vec<bool>], span: u64) -> Vec<WireEval> {
        use genetic::Evaluator;
        // Re-parent this shard's stage spans to the server's dispatch
        // span (`0` = tracing off upstream; a disabled local tracer
        // ignores the parent anyway).
        if let Some(tel) = self.engine.telemetry() {
            tel.set_trace_parent(span);
        }
        // A worker-local engine has no executor installed, and an
        // executor-less engine is infallible by construction (the
        // `Evaluator` contract: compile failures are scored, not
        // errors) — so this expect can never fire.
        self.engine
            .evaluate_batch(genomes)
            .expect("executor-less worker engine cannot abort")
            .into_iter()
            .map(|e| WireEval {
                fitness_bits: e.fitness.to_bits(),
                // NCD is non-negative, so the penalty value is unambiguous.
                failed: e.fitness.to_bits() == FAILED_COMPILE_PENALTY.to_bits(),
                // The frame carries one wall figure per eval, so the
                // worker's shared stage-1 production folds back in here:
                // the server charges the farm's physical time, not the
                // local attribution split.
                wall_seconds_bits: (e.wall_seconds + e.ast_produce_seconds).to_bits(),
            })
            .collect()
    }

    fn drain_spans(&mut self) -> Vec<WireSpan> {
        self.engine.telemetry().map_or_else(Vec::new, |tel| {
            tel.tracer
                .drain()
                .into_iter()
                .map(|s| WireSpan {
                    id: s.id,
                    parent: s.parent,
                    name: s.name,
                    start_us: s.start_us,
                    dur_us: s.dur_us,
                })
                .collect()
        })
    }

    fn drain_artifacts(&mut self) -> (Vec<WireAstArtifact>, Vec<WireLowerArtifact>) {
        let pending = self.engine.drain_pending_artifacts();
        (
            pending
                .ast
                .into_iter()
                .map(|(k, cost, blob)| WireAstArtifact {
                    body_hash: k.body_hash,
                    compiler: k.compiler,
                    ast_digest: k.ast_digest,
                    cost_bits: cost.to_bits(),
                    blob,
                })
                .collect(),
            pending
                .lower
                .into_iter()
                .map(|(k, cost, blob)| WireLowerArtifact {
                    body_hash: k.body_hash,
                    compiler: k.compiler,
                    arch: k.arch,
                    ast_digest: k.ast_digest,
                    lower_digest: k.lower_digest,
                    cost_bits: cost.to_bits(),
                    blob,
                })
                .collect(),
        )
    }
}

/// Where the parent spawns worker processes from, and the endpoint they
/// connect back to.
#[derive(Debug, Clone)]
pub(crate) struct WorkerSpec {
    pub binary: PathBuf,
    pub endpoint: Endpoint,
}

impl WorkerSpec {
    /// Spawn a process running `worker`. Stdin is null; stderr is
    /// inherited so a worker's own diagnostics surface in the parent's
    /// stream.
    pub fn spawn(&self, worker: &Worker) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.binary);
        cmd.arg("--evald-worker")
            .arg("--client-id")
            .arg(worker.client_id.to_string())
            .arg("--compiler-tag")
            .arg(worker.kind.stable_id().to_string())
            .arg("--arch-tag")
            .arg(worker.arch.tag().to_string())
            .arg("--artifact-cache")
            .arg(if worker.artifact_cache { "1" } else { "0" });
        match &self.endpoint {
            Endpoint::Tcp(addr) => cmd.arg("--tcp").arg(addr.to_string()),
            Endpoint::Unix(path) => cmd.arg("--unix").arg(path),
        };
        if worker.trace {
            cmd.arg("--trace");
        }
        if let Some(k) = worker.fail_after {
            cmd.arg("--fail-after").arg(k.to_string());
            cmd.arg("--fault-kind")
                .arg(fault_kind_to_arg(worker.fault_kind));
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        cmd.spawn()
    }
}

/// Respawn-plane metric handles (`bintuner_farm_{respawns,backoff_ms}`),
/// held by the service so respawns *after* launch still count.
#[derive(Clone)]
pub(crate) struct SupervisionCounters {
    pub respawns: Arc<btel::Counter>,
    pub backoff_ms: Arc<btel::Counter>,
}

/// The pause before retry `k` (zero-based) of a failed worker spawn:
/// 50 ms, doubling per retry, capped at 2 s. Jitter-free, so respawn
/// timing is a pure function of the attempt number.
fn retry_delay_ms(k: u32) -> u64 {
    (50u64 << k.min(6)).min(2_000)
}

/// Spawn one worker process, retrying with [`retry_delay_ms`] backoff:
/// one bad fork (transient EAGAIN, racing resource limits) must not fail
/// the whole launch, while a bad binary fails it with its last spawn
/// error after `attempts` consecutive failures (at least one attempt).
pub(crate) fn spawn_with_retry(
    spec: &WorkerSpec,
    worker: &Worker,
    attempts: u32,
    supervision: Option<&SupervisionCounters>,
) -> std::io::Result<Child> {
    let mut k = 0;
    loop {
        match spec.spawn(worker) {
            Ok(child) => return Ok(child),
            Err(e) if k + 1 >= attempts.max(1) => return Err(e),
            Err(_) => {
                let delay_ms = retry_delay_ms(k);
                if let Some(c) = supervision {
                    c.respawns.inc();
                    c.backoff_ms.add(delay_ms);
                }
                std::thread::sleep(Duration::from_millis(delay_ms));
                k += 1;
            }
        }
    }
}

/// Resolve the worker binary to re-exec: the configured path, or — the
/// common deployment — the current executable itself. When the current
/// executable is *not* the `bintuner` binary (a test or bench harness),
/// look for a sibling `bintuner` next to it and in the parent directory
/// (cargo places test binaries in `target/<profile>/deps/`, one level
/// below the real binary).
pub(crate) fn resolve_worker_binary(configured: Option<&PathBuf>) -> std::io::Result<PathBuf> {
    if let Some(path) = configured {
        return Ok(path.clone());
    }
    let exe = std::env::current_exe()?;
    if exe
        .file_stem()
        .is_some_and(|s| s.to_string_lossy() == "bintuner")
    {
        return Ok(exe);
    }
    let candidates = [
        exe.parent().map(|d| d.join("bintuner")),
        exe.parent()
            .and_then(Path::parent)
            .map(|d| d.join("bintuner")),
    ];
    for c in candidates.into_iter().flatten() {
        if c.is_file() {
            return Ok(c);
        }
    }
    Err(std::io::Error::new(
        std::io::ErrorKind::NotFound,
        "no worker binary: current exe is not bintuner and no sibling bintuner binary was found \
         (set ProcessFarm::worker_binary explicitly)",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_args() -> Vec<String> {
        [
            "--client-id",
            "7",
            "--compiler-tag",
            "1",
            "--arch-tag",
            "2",
            "--artifact-cache",
            "1",
            "--tcp",
            "127.0.0.1:4455",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn worker_args_parse_round_trips_the_spawn_command() {
        let args = WorkerArgs::parse(&base_args()).unwrap();
        assert_eq!(
            args,
            WorkerArgs {
                worker: Worker {
                    client_id: 7,
                    kind: CompilerKind::Llvm,
                    arch: Arch::Arm,
                    artifact_cache: true,
                    trace: false,
                    fail_after: None,
                    fault_kind: FaultKind::Crash,
                },
                endpoint: Endpoint::Tcp("127.0.0.1:4455".parse().unwrap()),
            }
        );
        let mut with_fault = base_args();
        with_fault.extend(["--fail-after".to_string(), "3".to_string()]);
        assert_eq!(
            WorkerArgs::parse(&with_fault).unwrap().worker.fail_after,
            Some(3)
        );
        let mut with_trace = base_args();
        with_trace.push("--trace".to_string());
        assert!(WorkerArgs::parse(&with_trace).unwrap().worker.trace);
        let unix: Vec<String> = base_args()
            .into_iter()
            .map(|a| if a == "--tcp" { "--unix".into() } else { a })
            .collect();
        assert_eq!(
            WorkerArgs::parse(&unix).unwrap().endpoint,
            Endpoint::Unix(PathBuf::from("127.0.0.1:4455"))
        );
    }

    #[test]
    fn worker_args_reject_malformed_input() {
        for (mangle, needle) in [
            (vec!["--client-id".to_string()], "expects a value"),
            (
                vec!["--compiler-tag".to_string(), "9".into()],
                "compiler tag",
            ),
            (vec!["--arch-tag".to_string(), "9".into()], "arch tag"),
            (vec!["--artifact-cache".to_string(), "2".into()], "0|1"),
            (vec!["--tcp".to_string(), "nonsense".into()], "--tcp"),
            (vec!["--what".to_string()], "unknown worker argument"),
        ] {
            let err = WorkerArgs::parse(&mangle).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        // Missing required pieces are named.
        let err = WorkerArgs::parse(&[]).unwrap_err();
        assert!(err.contains("--client-id"));
    }

    #[test]
    fn explicit_worker_binary_wins_resolution() {
        let configured = PathBuf::from("/custom/worker");
        assert_eq!(
            resolve_worker_binary(Some(&configured)).unwrap(),
            configured
        );
    }

    #[test]
    fn fault_kind_args_round_trip_the_spawn_command() {
        // Every kind must survive the CLI hop parent → worker process.
        for kind in [
            FaultKind::Crash,
            FaultKind::Hang,
            FaultKind::DropFrame,
            FaultKind::SlowFrame(75),
        ] {
            let arg = fault_kind_to_arg(kind);
            assert_eq!(fault_kind_from_arg(&arg), Ok(kind), "via {arg:?}");
            let mut args = base_args();
            args.extend([
                "--fail-after".to_string(),
                "2".to_string(),
                "--fault-kind".to_string(),
                arg,
            ]);
            let parsed = WorkerArgs::parse(&args).unwrap().worker;
            assert_eq!(parsed.fault_kind, kind);
            assert_eq!(parsed.fail_after, Some(2));
        }
        assert!(fault_kind_from_arg("slow").is_err());
        assert!(fault_kind_from_arg("slow:abc").is_err());
        assert!(fault_kind_from_arg("wedge").is_err());
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let delays: Vec<u64> = (0..8).map(retry_delay_ms).collect();
        assert_eq!(delays, [50, 100, 200, 400, 800, 1600, 2000, 2000]);
        // Overflow-safe far past the cap.
        assert_eq!(retry_delay_ms(u32::MAX), 2000);
    }

    #[test]
    fn supervisor_gives_up_after_k_consecutive_failures() {
        let spec = WorkerSpec {
            binary: std::env::temp_dir()
                .join("bintuner-no-such-dir")
                .join("bintuner"),
            endpoint: Endpoint::Tcp("127.0.0.1:9".parse().unwrap()),
        };
        let worker = Worker {
            client_id: 0,
            kind: CompilerKind::Gcc,
            arch: Arch::X86,
            artifact_cache: true,
            trace: false,
            fail_after: None,
            fault_kind: FaultKind::default(),
        };
        // At least one attempt; each retry is counted with its delay, and
        // the last spawn error is what the caller sees.
        for (attempts, respawns, backoff_ms) in [(0, 0, 0), (1, 0, 0), (3, 2, 150)] {
            let tel = crate::service::FarmTelemetry {
                registry: Arc::new(btel::Registry::new()),
                tracer: btel::Tracer::disabled(),
            };
            let counters = tel.supervision_counters();
            let err = spawn_with_retry(&spec, &worker, attempts, Some(&counters)).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::NotFound,
                "{attempts} attempts"
            );
            let count = |name| tel.registry.counter_value(name, None);
            assert_eq!(count("bintuner_farm_respawns_total"), Some(respawns));
            assert_eq!(count("bintuner_farm_backoff_ms_total"), Some(backoff_ms));
        }
    }
}
