//! The BinTuner tuning benchmark.
//!
//! ```text
//! perfbench --workload <cold_tune|warm_retune|daemon_mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench bless <dir>     # rewrite the committed golden files (see jobs::bless)
//! ```
//!
//! Run from the repository root: scratch stores and sockets go under
//! `.bench_work/`. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it makes the separate traced run and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object. A failed correctness check exits non-zero with no result.

mod jobs;
mod stats;
mod timed;
mod traced;

use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: jobs::DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = num()?,
            "--seconds" => parsed.seconds = num()?,
            "--trace" => parsed.trace = num()? != 0,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn json(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The seven end-to-end metrics of a timed run.
fn end_to_end(workload: &str, t: &timed::Timed) -> Result<String, String> {
    let sorted = stats::sorted(&t.job_s);
    let (tail, pct) = stats::tail(&sorted)?;
    let p50 = stats::p50(&sorted);
    let metrics = [
        ("setup_s", stats::median(&t.setup_s), "s"),
        ("evals_per_s", t.evals as f64 / t.phase_s, "1/s"),
        ("job_s_p50", p50, "s"),
        ("job_s_tail", tail, "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
        (
            "best_ncd_mean",
            t.best_ncd.iter().sum::<f64>() / t.best_ncd.len() as f64,
            "ncd",
        ),
        (
            "job_ok_ratio",
            (t.attempted - t.failed) as f64 / t.attempted as f64,
            "ratio",
        ),
    ];
    println!(
        "{workload}: {} jobs ({} failed), budget {} evaluations, population {}, {} workers",
        t.attempted,
        t.failed,
        jobs::BUDGET,
        jobs::POPULATION,
        jobs::WORKERS
    );
    println!("setup_s runs: {:?}", t.setup_s);
    println!(
        "evals_per_s base: {} evaluations in {:.4} s",
        t.evals, t.phase_s
    );
    println!(
        "job_s_tail is p{pct:.1} of {} jobs ({} beyond it)",
        sorted.len(),
        stats::TAIL_BEYOND
    );
    for (module, secs) in &t.by_module {
        let s = stats::sorted(secs);
        println!(
            "  {module:<14} {:>3} jobs, median {:.4} s",
            s.len(),
            stats::p50(&s)
        );
    }
    for note in &t.notes {
        println!("{note}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    Ok(json(t.attempted, t.failed, &metrics))
}

fn run(args: &Args, work: PathBuf) -> Result<String, String> {
    let env = timed::Env {
        seed: args.seed,
        seconds: args.seconds,
        work,
    };
    let mut gate = jobs::Gate::load(args.seed)?;
    if args.trace {
        let mut layers = traced::traced(&args.workload, &env, &mut gate)?;
        let metrics = layers.metrics();
        for note in &layers.notes {
            println!("{note}");
        }
        for (name, value, unit) in &metrics {
            println!("{name} = {value} {unit}");
        }
        // Every traced job passed the correctness gate.
        return Ok(json(layers.jobs, 0, &metrics));
    }
    let t = match args.workload.as_str() {
        "cold_tune" => timed::cold_tune(&env, &mut gate)?,
        "warm_retune" => timed::warm_retune(&env, &mut gate)?,
        "daemon_mix" => timed::daemon_mix(&env, &mut gate)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    end_to_end(&args.workload, &t)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bless") {
        let dir = args.get(1).map_or("perfbench/golden", String::as_str);
        if let Err(e) = jobs::bless(std::path::Path::new(dir)) {
            eprintln!("perfbench bless: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = parse(&args).and_then(|args| {
        let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let result = run(&args, work.clone());
        let _ = std::fs::remove_dir_all(&work);
        result
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
