//! GSTM benchmark: one command per workload, run from the repository root.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ledger-tl2 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints comment lines (`# ...`: host, cores, build profile, revision and
//! what the run did), then one JSON result line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A failed output check prints the result with
//! `"correct": false` and exits with code 1. See `perfbench/README.md`.

mod block;
mod lane;
mod native;
mod recorder;
mod report;
mod sim;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Names accepted by `--workload`.
const WORKLOADS: [&str; 4] = ["ledger-tl2", "ledger-block", "wide-durable", "stamp-guided"];

/// Where traces and WAL files go, relative to the directory the benchmark
/// runs from.
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// The checked-out revision, read from `.git` when the directory is a
/// repository (a plain checkout has none).
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.into() };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().into();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host={} nproc={nproc} profile={profile} rev={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host(),
        git_revision()
    );
    lane::now_ns();
    let out_dir = PathBuf::from(OUT_DIR);
    let outcome = match args.workload.as_str() {
        "ledger-tl2" => {
            native::run(&native::ledger_tl2(), args.seed, args.seconds, args.trace, &out_dir)
        }
        "wide-durable" => {
            native::run(&native::wide_durable(), args.seed, args.seconds, args.trace, &out_dir)
        }
        "ledger-block" => block::run(args.seed, args.seconds, args.trace, &out_dir),
        "stamp-guided" => sim::run(args.seed, args.seconds, args.trace, &out_dir),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    let mut metrics = outcome.metrics;
    let peak_rss_mb = report::peak_rss_mb();
    println!("# peak_rss_mb {peak_rss_mb}");
    if args.trace {
        metrics.set("proc.peak_rss_mb", peak_rss_mb);
    }
    for e in &outcome.errors {
        println!("# CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    match report::result_line(correct, outcome.attempted, outcome.failed, &metrics, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
