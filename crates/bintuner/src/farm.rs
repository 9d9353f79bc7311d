//! The pre-forked worker-process farm (paper §5 "Implementation").
//!
//! [`crate::service::ServiceHandle`] can realize its clients as OS
//! *processes* instead of threads ([`evald::WorkerMode::Processes`]):
//! the launcher re-execs the current binary with a hidden
//! `--evald-worker` entry point, and each worker process connects back
//! over the configured stream transport (Unix socket or TCP loopback),
//! sends its [`evald::wire::Frame::Hello`], receives the module under
//! test as a [`evald::wire::Frame::Job`] (encoded with
//! [`minicc::codec`]), builds its own [`crate::FitnessEngine`], and
//! serves shards exactly like a thread client would.
//!
//! This module holds both halves of that protocol: [`worker_main`] (the
//! child side, invoked from the `bintuner` binary) and the crate-private
//! `WorkerSpec` (the parent side: binary resolution and process
//! spawning, used by the service launcher).

use crate::service::serve_client_engine;
use binrep::Arch;
use evald::wire::{decode_frame, encode_frame, Frame};
use evald::{ClientOptions, Endpoint, EvaldError, FaultKind};
use minicc::{CompilerKind, CompilerProfile};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Parsed `--evald-worker` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArgs {
    /// Zero-based client id: it offsets the worker's span-id range and
    /// names the worker in its error messages.
    pub client_id: u32,
    /// Which compiler profile to build.
    pub kind: CompilerKind,
    /// Target architecture.
    pub arch: Arch,
    /// Whether the worker's engine keeps its staged artifact cache.
    pub artifact_cache: bool,
    /// Server endpoint to connect back to.
    pub endpoint: Endpoint,
    /// Whether the worker records trace spans (stage timings parented
    /// to the server's dispatch spans, shipped back on Result frames).
    pub trace: bool,
    /// Chaos hook: trigger `fault_kind` after this many shards.
    pub fail_after: Option<usize>,
    /// What the chaos hook does when it triggers (crash, hang, slow
    /// frames, dropped frame). Inert while `fail_after` is `None`.
    pub fault_kind: FaultKind,
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
            client_id: client_id.ok_or("--client-id is required")?,
            kind: kind.ok_or("--compiler-tag is required")?,
            arch: arch.ok_or("--arch-tag is required")?,
            artifact_cache: artifact_cache.ok_or("--artifact-cache is required")?,
            endpoint: endpoint.ok_or("--tcp or --unix is required")?,
            trace,
            fail_after,
            fault_kind,
        })
    }
}

/// A deterministic, jitter-free exponential backoff schedule: attempt
/// `k` waits `base_ms × factor^k`, capped at `max_ms`. Determinism is a
/// feature here — the chaos differentials replay supervision decisions
/// exactly, so respawn timing must be a pure function of the attempt
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffSchedule {
    /// Delay before the first retry, milliseconds.
    pub base_ms: u64,
    /// Multiplier applied per subsequent attempt.
    pub factor: u64,
    /// Ceiling on any single delay, milliseconds.
    pub max_ms: u64,
}

impl Default for BackoffSchedule {
    fn default() -> BackoffSchedule {
        BackoffSchedule {
            base_ms: 50,
            factor: 2,
            max_ms: 2_000,
        }
    }
}

impl BackoffSchedule {
    /// The delay before retry number `attempt` (zero-based).
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let mut delay = self.base_ms;
        for _ in 0..attempt {
            delay = delay.saturating_mul(self.factor);
            if delay >= self.max_ms {
                return self.max_ms;
            }
        }
        delay.min(self.max_ms)
    }
}

/// What the supervisor says after a failure: try again after the
/// scheduled backoff, or stop burning the farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// Respawn after this many milliseconds.
    Retry {
        /// Backoff delay from the deterministic schedule.
        delay_ms: u64,
    },
    /// The crash-loop budget is spent: `strikes` consecutive failures.
    /// The caller surfaces the last failure instead of trying again.
    GiveUp,
}

/// Spawn-retry supervisor: consecutive-failure accounting over a
/// [`BackoffSchedule`]. Each failure is answered with a retry after the
/// schedule's next delay until `strikes` consecutive failures turn into
/// [`SupervisorVerdict::GiveUp`]. A fresh supervisor paces one worker
/// slot's spawn attempts at launch, so a bad fork retries while a bad
/// binary fails the launch with its last spawn error. (The daemon's
/// poison-job quarantine keeps its own per-module strike map.)
/// Deliberately clock-free (a failure *count*, not a failure *rate*):
/// the schedule already spaces attempts out, and clock-free decisions
/// replay deterministically in the chaos suite.
#[derive(Debug, Clone)]
pub struct Supervisor {
    schedule: BackoffSchedule,
    strikes: u32,
    consecutive_failures: u32,
}

impl Supervisor {
    /// A supervisor that gives up after `strikes` consecutive failures
    /// (minimum 1).
    pub fn new(schedule: BackoffSchedule, strikes: u32) -> Supervisor {
        Supervisor {
            schedule,
            strikes: strikes.max(1),
            consecutive_failures: 0,
        }
    }

    /// Record a spawn failure / dead-on-arrival worker and rule on what
    /// happens next.
    pub fn on_failure(&mut self) -> SupervisorVerdict {
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.strikes {
            SupervisorVerdict::GiveUp
        } else {
            SupervisorVerdict::Retry {
                delay_ms: self.schedule.delay_ms(self.consecutive_failures - 1),
            }
        }
    }
}

/// The `--evald-worker` entry point: parse `args` (everything after the
/// `--evald-worker` sentinel), run the worker, and return the process
/// exit code. The `bintuner` binary calls this from `main`.
pub fn worker_main(args: &[String]) -> i32 {
    let parsed = match WorkerArgs::parse(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("evald worker: {e}");
            return 2;
        }
    };
    match run_worker(&parsed) {
        // A server that simply goes away is a normal end of service.
        Ok(()) | Err(EvaldError::Disconnected) => 0,
        Err(e) => {
            eprintln!("evald worker {}: {e}", parsed.client_id);
            1
        }
    }
}

/// Connect, handshake, build the engine from the job description, and
/// serve shards until shutdown.
fn run_worker(args: &WorkerArgs) -> Result<(), EvaldError> {
    let mut duplex = args.endpoint.connect()?;
    let n_flags = CompilerProfile::new(args.kind).n_flags() as u16;
    let opts = ClientOptions {
        n_flags,
        fail_after_shards: args.fail_after,
        fault_kind: args.fault_kind,
    };
    duplex
        .tx
        .send_frame(&encode_frame(&Frame::Hello { n_flags }))?;
    // The engine needs the module, which arrives as the job description.
    // Nothing but a Job (or an early Shutdown) is legal before the first
    // Work frame.
    let payload = loop {
        let bytes = duplex.rx.recv_frame()?;
        let (frame, _) = decode_frame(&bytes)?;
        match frame {
            Frame::Job { payload } => break payload,
            Frame::Shutdown => return Ok(()),
            Frame::Work { .. } => {
                // Work before the job description: we cannot evaluate.
                // Exiting severs the connection; the server re-queues the
                // shard on a healthy client.
                return Err(EvaldError::Protocol("Work frame before Job"));
            }
            Frame::Ping { nonce } => {
                // Answer heartbeats even before the job arrives — a
                // worker waiting on its Job is alive, not hung.
                duplex
                    .tx
                    .send_frame(&encode_frame(&Frame::Pong { nonce }))?;
            }
            Frame::Hello { .. } | Frame::Result { .. } | Frame::Pong { .. } => {}
        }
    };
    let module = minicc::codec::decode_module(&payload)
        .map_err(|_| EvaldError::Corrupt("job payload is not an encoded module"))?;
    let serve = |w: &mut dyn evald::ShardWorker| evald::serve(w, &mut duplex, &opts);
    let failed = EvaldError::Protocol("worker engine failed its baseline compile");
    serve_client_engine(
        args.kind,
        &module,
        args.arch,
        args.artifact_cache,
        args.trace,
        args.client_id,
        serve,
    )
    .ok_or(failed)?
}

/// Everything the parent needs to (re)spawn one worker process.
#[derive(Debug, Clone)]
pub(crate) struct WorkerSpec {
    pub binary: PathBuf,
    pub kind: CompilerKind,
    pub arch: Arch,
    pub artifact_cache: bool,
    pub endpoint: Endpoint,
    /// Spawn workers with `--trace` (the launch carried a
    /// [`crate::service::FarmTelemetry`] with an enabled tracer).
    pub trace: bool,
}

impl WorkerSpec {
    /// Spawn one worker process. Stdin is null; stderr is inherited so a
    /// worker's own diagnostics surface in the parent's stream. `fault`
    /// is the chaos hook: trigger the given [`FaultKind`] after that
    /// many shards.
    pub fn spawn(
        &self,
        client_id: u32,
        fault: Option<(usize, FaultKind)>,
    ) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.binary);
        cmd.arg("--evald-worker")
            .arg("--client-id")
            .arg(client_id.to_string())
            .arg("--compiler-tag")
            .arg(self.kind.stable_id().to_string())
            .arg("--arch-tag")
            .arg(self.arch.tag().to_string())
            .arg("--artifact-cache")
            .arg(if self.artifact_cache { "1" } else { "0" });
        match &self.endpoint {
            Endpoint::Tcp(addr) => cmd.arg("--tcp").arg(addr.to_string()),
            Endpoint::Unix(path) => cmd.arg("--unix").arg(path),
        };
        if self.trace {
            cmd.arg("--trace");
        }
        if let Some((k, kind)) = fault {
            cmd.arg("--fail-after").arg(k.to_string());
            cmd.arg("--fault-kind").arg(fault_kind_to_arg(kind));
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        cmd.spawn()
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
                client_id: 7,
                kind: CompilerKind::Llvm,
                arch: Arch::Arm,
                artifact_cache: true,
                endpoint: Endpoint::Tcp("127.0.0.1:4455".parse().unwrap()),
                trace: false,
                fail_after: None,
                fault_kind: FaultKind::Crash,
            }
        );
        let mut with_fault = base_args();
        with_fault.extend(["--fail-after".to_string(), "3".to_string()]);
        assert_eq!(WorkerArgs::parse(&with_fault).unwrap().fail_after, Some(3));
        let mut with_trace = base_args();
        with_trace.push("--trace".to_string());
        assert!(WorkerArgs::parse(&with_trace).unwrap().trace);
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
            let parsed = WorkerArgs::parse(&args).unwrap();
            assert_eq!(parsed.fault_kind, kind);
            assert_eq!(parsed.fail_after, Some(2));
        }
        assert!(fault_kind_from_arg("slow").is_err());
        assert!(fault_kind_from_arg("slow:abc").is_err());
        assert!(fault_kind_from_arg("wedge").is_err());
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let schedule = BackoffSchedule {
            base_ms: 50,
            factor: 2,
            max_ms: 500,
        };
        let delays: Vec<u64> = (0..6).map(|k| schedule.delay_ms(k)).collect();
        assert_eq!(delays, vec![50, 100, 200, 400, 500, 500]);
        // Jitter-free: the same attempt always gets the same delay.
        assert_eq!(schedule.delay_ms(3), schedule.delay_ms(3));
        // Overflow-safe far past the cap.
        assert_eq!(schedule.delay_ms(u32::MAX), 500);
    }

    #[test]
    fn supervisor_gives_up_after_k_consecutive_failures() {
        let mut sup = Supervisor::new(BackoffSchedule::default(), 3);
        assert_eq!(
            sup.on_failure(),
            SupervisorVerdict::Retry { delay_ms: 50 },
            "first failure retries at the base delay"
        );
        assert_eq!(
            sup.on_failure(),
            SupervisorVerdict::Retry { delay_ms: 100 },
            "second failure backs off exponentially"
        );
        assert_eq!(sup.on_failure(), SupervisorVerdict::GiveUp, "third strike");

        // strikes=1: no retries at all.
        let mut sup = Supervisor::new(BackoffSchedule::default(), 1);
        assert_eq!(sup.on_failure(), SupervisorVerdict::GiveUp);
    }
}
