//! The `bintuner` binary.
//!
//! Three entry points:
//!
//! - `bintuner --evald-worker <args>` — the re-exec target of the
//!   process farm: runs one evaluation-service worker process (see
//!   [`bintuner::farm`]).
//! - `bintuner daemon [flags]` — the multi-tenant tuning daemon `tuned`
//!   (see [`bintuner::daemon`]): a long-lived server multiplexing tenant
//!   jobs onto one shared farm and one shared persistent store. The farm
//!   is thread workers over channels, or with `--process-workers`,
//!   worker processes over the socket `--farm-transport` names (Unix by
//!   default).
//! - `bintuner metrics (--unix <path> | --tcp <addr>) [--trace]` —
//!   render a live daemon's btel registry as Prometheus-style text (or,
//!   with `--trace`, its recent job spans as JSONL).
//!
//! The tuning loop itself stays a library embedded by the test and
//! bench harnesses.

use bintuner::daemon::{Daemon, DaemonAddr, DaemonClient, DaemonConfig};
use evald::{ProcessFarm, TransportKind, WorkerMode};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage:\n  bintuner daemon [--unix <path> | --tcp] [--store <dir>]\n\
         \x20                [--clients N] [--process-workers [--farm-transport unix|tcp]]\n\
         \x20                [--queue N] [--runners N] [--max-evals N]\n  \
         bintuner metrics (--unix <path> | --tcp <addr>) [--trace]\n  \
         bintuner --evald-worker <args>   (spawned by ServiceHandle::launch_with)"
    );
    std::process::exit(2);
}

fn parse_transport(s: &str) -> TransportKind {
    match s {
        "unix" => TransportKind::Unix,
        "tcp" => TransportKind::Tcp,
        _ => usage(),
    }
}

fn daemon_main(args: &[String]) -> i32 {
    let mut config = DaemonConfig::default();
    let mut farm_transport = None;
    let mut process_workers = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--unix" => {
                config.transport = TransportKind::Unix;
                config.unix_path = Some(PathBuf::from(value()));
            }
            "--tcp" => config.transport = TransportKind::Tcp,
            "--store" => config.store_path = Some(PathBuf::from(value())),
            "--clients" => config.farm.clients = value().parse().unwrap_or_else(|_| usage()),
            "--farm-transport" => farm_transport = Some(parse_transport(value())),
            "--process-workers" => process_workers = true,
            "--queue" => config.queue_limit = value().parse().unwrap_or_else(|_| usage()),
            "--runners" => config.runners = value().parse().unwrap_or_else(|_| usage()),
            "--max-evals" => {
                config.base.termination.max_evaluations =
                    value().parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    // The default farm is thread workers over channels; a socket only
    // carries frames to worker processes.
    if process_workers {
        config.farm.transport = farm_transport.unwrap_or(TransportKind::Unix);
        // Re-exec this very binary as the farm's worker processes.
        config.farm.workers = WorkerMode::Processes(ProcessFarm {
            worker_binary: std::env::current_exe().ok(),
            ..ProcessFarm::default()
        });
    } else if farm_transport.is_some() {
        usage();
    }
    let handle = match Daemon::launch(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bintuner daemon: launch failed: {e}");
            return 1;
        }
    };
    println!("tuned listening on {}", handle.addr());
    // Serve until killed; the handle's Drop (never reached) would shut
    // down cleanly.
    loop {
        std::thread::park();
    }
}

fn metrics_main(args: &[String]) -> i32 {
    let mut addr = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--unix" => addr = Some(DaemonAddr::Unix(PathBuf::from(value()))),
            "--tcp" => {
                let parsed = value().parse().unwrap_or_else(|_| usage());
                addr = Some(DaemonAddr::Tcp(parsed));
            }
            "--trace" => trace = true,
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let mut client = match DaemonClient::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("bintuner metrics: connect to {addr} failed: {e}");
            return 1;
        }
    };
    let fetched = if trace {
        client.trace_dump()
    } else {
        client.metrics_text()
    };
    match fetched {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("bintuner metrics: fetch failed: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--evald-worker") => std::process::exit(bintuner::farm::worker_main(&args[1..])),
        Some("daemon") => std::process::exit(daemon_main(&args[1..])),
        Some("metrics") => std::process::exit(metrics_main(&args[1..])),
        _ => usage(),
    }
}
