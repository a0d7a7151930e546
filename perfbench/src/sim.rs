//! `stamp-guided`: the paper's experiment under `SimGate`. Profiling and
//! training on STAMP vacation (medium input, two virtual cores, fixed
//! training seeds, so the §IV verdict does not depend on `--seed`), then
//! rounds of one default and one guided run per test seed: a fixed number
//! of rounds first, whose seeds give the cross-seed stddev and makespan,
//! then more rounds until the run's time is spent, for the wall-time rates.
//!
//! The simulator runs one thread at a time and hands control between its
//! threads through the kernel. Across two cores each hand-off is a
//! cross-core wake-up, which on a shared host made whole runs up to 3x
//! slower or faster; the workload therefore pins itself (and so every
//! simulator thread) to one CPU, where a hand-off is a same-core switch.

use std::path::Path;

use gstm_guide::{run_workload, train, PolicyChoice, RunOptions, RunOutcome, TrainedModel};
use gstm_stamp::{InputSize, Vacation};

use crate::lane;
use crate::report::{median, Metrics, Outcome};
use crate::trace::{self, SpanLog};

/// Virtual cores: no more than the host's two.
const THREADS: usize = 2;
/// The paper's `Tfactor`.
const TFACTOR: f64 = 4.0;
/// Training seeds (fixed: the model, and so the verdict, is an input).
const TRAIN_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;
/// Training repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds whose guided runs give `guide.stddev_ticks` and
/// `guide.makespan_ticks`: a fixed seed set, so the two figures depend on
/// `--seed` and guided behaviour only, not on how fast the simulator runs.
const TICK_ROUNDS: u64 = 10;

fn workload() -> Vacation {
    Vacation::with_size(InputSize::Medium)
}

/// User and system CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in 1/100 s clock ticks).
fn cpu_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick =
        |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN) / 100.0;
    // `after` starts at field 3 (state), so field n is index n - 3.
    (tick(14 - 3), tick(15 - 3))
}

/// Pins the calling thread, and the threads it spawns afterwards, to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` when the
/// kernel refuses (the run then goes on unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes holding a
    // CPU the thread was already allowed to run on.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn same_outcome(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.thread_ticks == b.thread_ticks
        && a.makespan == b.makespan
        && a.commits == b.commits
        && a.aborts == b.aborts
        && a.holds == b.holds
}

/// Mean over threads of the cross-seed sample stddev of per-thread ticks.
fn stddev_ticks(runs: &[RunOutcome]) -> f64 {
    if runs.len() < 2 {
        return 0.0;
    }
    let n = runs.len() as f64;
    (0..THREADS)
        .map(|t| {
            let mean = runs.iter().map(|r| r.thread_ticks[t] as f64).sum::<f64>() / n;
            let var = runs.iter().map(|r| (r.thread_ticks[t] as f64 - mean).powi(2)).sum::<f64>()
                / (n - 1.0);
            var.sqrt()
        })
        .sum::<f64>()
        / THREADS as f64
}

pub fn run(seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Outcome {
    let cpu = pin_to_one_cpu();
    let w = workload();
    let full = (w.ops_per_thread * THREADS) as u64;
    let seeds: Vec<u64> = TRAIN_SEEDS.collect();
    let mut spans = SpanLog::default();
    let mut setup = Vec::new();
    let mut trained: Option<TrainedModel> = None;
    let mut errors = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = lane::now_ns();
        let tm = train(&w, &RunOptions::new(THREADS, 0), &seeds, TFACTOR);
        let t1 = lane::now_ns();
        spans.leaf("model.train", t0, t1, rep as u64);
        setup.push((t1 - t0) as f64 / 1e9);
        if let Some(prev) = &trained {
            if prev.tsa.state_count() != tm.tsa.state_count()
                || prev.tsa.edge_count() != tm.tsa.edge_count()
            {
                errors.push("training on the same seeds built different automata".into());
            }
        }
        trained = Some(tm);
    }
    let tm = trained.expect("trained at least once");
    if !tm.is_fit() {
        errors.push(format!("the §IV analyzer ruled the model unfit: {:?}", tm.analysis.verdict));
    }

    let budget_ns = (0.8 * seconds as f64 * 1e9) as u64;
    let start = lane::now_ns();
    let (user0, sys0) = cpu_s();
    let (mut default_runs, mut guided_runs) = (Vec::new(), Vec::new());
    let (mut guided_wall, mut guided_rates) = (Vec::new(), Vec::new());
    let (mut wall_ns, mut commits) = (0u64, 0u64);
    let mut round = 0u64;
    while round < TICK_ROUNDS || lane::now_ns() - start < budget_ns {
        let test_seed = seed.wrapping_mul(1_000_003).wrapping_add(round);
        for guided in [false, true] {
            let policy =
                if guided { PolicyChoice::guided(tm.model.clone()) } else { PolicyChoice::Default };
            let t0 = lane::now_ns();
            let out = run_workload(&w, &RunOptions::new(THREADS, test_seed).with_policy(policy));
            let t1 = lane::now_ns();
            spans.leaf(if guided { "sim.run_guided" } else { "sim.run_default" }, t0, t1, round);
            let c = out.total_commits();
            if c != full {
                errors.push(format!("seed {test_seed} committed {c} of {full} transactions"));
            }
            wall_ns += t1 - t0;
            commits += c;
            if guided {
                guided_wall.push((t1 - t0) as f64);
                guided_rates.push(c as f64 * 1e9 / (t1 - t0) as f64);
                guided_runs.push(out);
            } else {
                default_runs.push(out);
            }
        }
        round += 1;
    }
    let (user1, sys1) = cpu_s();
    let first = seed.wrapping_mul(1_000_003);
    let again = run_workload(
        &w,
        &RunOptions::new(THREADS, first).with_policy(PolicyChoice::guided(tm.model.clone())),
    );
    if !same_outcome(&again, &guided_runs[0]) {
        errors.push(format!("guided seed {first} re-run gave a different outcome"));
    }
    let fixed = TICK_ROUNDS as usize;
    let (default_fixed, guided_fixed) = (&default_runs[..fixed], &guided_runs[..fixed]);
    println!(
        "# stamp-guided: vacation medium, {THREADS} virtual cores pinned to cpu {cpu:?}, {round} rounds; cross-seed stddev of thread ticks over the first {TICK_ROUNDS} seeds: default {:.1} guided {:.1}",
        stddev_ticks(default_fixed),
        stddev_ticks(guided_fixed)
    );

    let mut m = Metrics::default();
    let throughput = median(&guided_rates);
    let latency_us = median(&guided_wall) / 1e3;
    if !traced {
        m.e2e(median(&setup), throughput, latency_us);
    } else {
        let guided_commits: u64 = guided_runs.iter().map(RunOutcome::total_commits).sum();
        let holds: u64 = guided_runs.iter().map(|r| r.holds.iter().sum::<u64>()).sum();
        let n = guided_runs.len() as f64;
        let bailed: u64 =
            guided_runs.iter().filter_map(|r| r.hold_stats).map(|h| h.bailed_out).sum();
        let unknown: u64 = guided_runs.iter().map(|r| r.unknown_hits).sum();
        m.per_layer_zero();
        m.set("sim.wall_us_per_commit", wall_ns as f64 / 1e3 / commits as f64);
        m.set("sim.user_cpu_s", user1 - user0);
        m.set("sim.sys_cpu_s", sys1 - sys0);
        m.set("model.train_s", median(&setup));
        m.set("model.tsa_states", tm.tsa.state_count() as f64);
        m.set("guide.holds_per_commit", holds as f64 / guided_commits as f64);
        m.set("guide.bailed_out", bailed as f64 / n);
        m.set("guide.unknown_hits", unknown as f64 / n);
        m.set("guide.run_wall_s", median(&guided_wall) / 1e9);
        m.set("guide.stddev_ticks", stddev_ticks(guided_fixed));
        m.set(
            "guide.makespan_ticks",
            guided_fixed.iter().map(|r| r.makespan as f64).sum::<f64>() / fixed as f64,
        );
        m.set("trace.throughput_per_s", throughput);
        m.set("trace.latency_p50_us", latency_us);
        let lanes = [spans];
        crate::report::print_span_totals(&trace::totals(&lanes));
        let path = out_dir.join(format!("trace-stamp-guided-seed{seed}.csv"));
        if let Err(e) = trace::write_csv(&path, &lanes) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let attempted = 2 * round + 1;
    Outcome { errors, attempted, failed: 0, metrics: m }
}
