//! `ledger-block`: the ledger traffic through `ServeMode::Block`.
//!
//! Throughput comes from the program's own `run_native`: closed loop
//! (every request due at once) in short calls whose rates give the
//! median. Latency comes from one open-loop pass at the fixed offered rate
//! through the public pieces `run_native` uses in block mode
//! (`merge_block_order`, `BlockPool` with `execute_block_on`, and
//! `Stm::run` with `apply_writes`), so that each request is timed with the
//! benchmark's own recorder from the start of its block's execution to its
//! commit. Its sojourn would add the wait for the block to fill, about
//! half a block's arrival time, which the offered rate sets and not the
//! program; that wait is the per-layer `block.fill_wait_ms_per_block`.
//!
//! The traced run drives the same pieces for the closed loop too, to time
//! each block's fill wait, parallel execution and serial commit.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use gstm_block::{execute_block_on, BlockConfig, BlockPool, BlockStats};
use gstm_check::{check_block_equivalence, BlockRecord};
use gstm_core::cm::Aggressive;
use gstm_core::{AdmitAll, RealGate, Stm, ThreadId};
use gstm_serve::{
    apply_with, block_parts, merge_block_order, response_digest, run_block_reference, run_native,
    spine_config, store_digest, Arrival, Entry, EphemeralBackend, ScheduledRequest, ServeSpec,
    ShardedStore, StoreBackend, INITIAL_BALANCE,
};
use gstm_wal::fnv1a64;

use crate::lane::{self, BenchBackend, BenchSink, Lane, Phase};
use crate::native::{SETUP_REPS, THREADS, YIELD_EVERY};
use crate::report::{median, Metrics, Outcome};
use crate::trace::{self, SpanLog};

/// Transactions per block. At 64 (the program's block suite) one pool
/// hand-off per 64 tiny transactions made closed-loop rates swing
/// 171k-209k req/s between runs on 2 vCPUs; 256 amortises it (187k-211k).
const BLOCK_SIZE: usize = 256;
/// Open-loop mean gap between one stream's requests, nanoseconds.
const OPEN_GAP_NS: f64 = 50_000.0;
/// Requests per stream in one closed-loop `run_native` call.
const CLOSED_PER_CALL: usize = 8_192;
/// Closed-loop request rate assumed when sizing the number of calls.
const SIZED_RPS: f64 = 200_000.0;
/// Every `SPAN_BLOCKS`-th block gets spans in the traced run.
const SPAN_BLOCKS: u64 = 8;

fn spec(requests: usize, arrival: Arrival) -> ServeSpec {
    ServeSpec::ledger(requests).with_arrival(arrival).with_block_mode(BLOCK_SIZE)
}

fn closed_arrival() -> Arrival {
    // Gaps far below a nanosecond tick: every request is due at tick 0.
    Arrival::Poisson { mean_gap: 1e-6 }
}

/// Seed of the `k`-th closed-loop call.
fn call_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k + 1)
}

fn check_record(spec: &ServeSpec, seed: u64, record: BlockRecord) -> Option<String> {
    let reference = run_block_reference(spec, THREADS, seed);
    let report = check_block_equivalence(&reference, &[(THREADS, record)]);
    (!report.ok() || report.is_vacuous()).then(|| {
        format!(
            "block run (seed {seed}) differs from the sequential reference: {}",
            report.summary()
        )
    })
}

pub fn run(seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Outcome {
    let secs = seconds as f64;
    let open_requests = (0.4 * secs * 1e9 / OPEN_GAP_NS) as usize;
    let open_spec = spec(open_requests, Arrival::Poisson { mean_gap: OPEN_GAP_NS });
    let calls =
        ((SIZED_RPS * 0.45 * secs) / (THREADS * CLOSED_PER_CALL) as f64).ceil().max(5.0) as u64;

    // Set-up is what `run_native` does before its clock starts: the store
    // and the merged block order.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = lane::now_ns();
        let store =
            ShardedStore::new(open_spec.shards, open_spec.buckets_per_shard, open_spec.keys);
        let order = merge_block_order(&open_spec, THREADS, seed);
        setup.push((lane::now_ns() - t0) as f64 / 1e9);
        std::hint::black_box((store, order));
    }

    if traced {
        return traced_run(seed, calls, &open_spec, out_dir);
    }
    let mut errors = Vec::new();
    let mut attempted = 0;
    // One short call first, unmeasured: thread and allocator warm-up.
    let warm = spec(CLOSED_PER_CALL / 4, closed_arrival());
    attempted += run_native(&warm, THREADS, call_seed(seed, u64::MAX - 1), 1, YIELD_EVERY).done;
    let mut rates = Vec::new();
    for k in 0..calls {
        let s = spec(CLOSED_PER_CALL, closed_arrival());
        let r = run_native(&s, THREADS, call_seed(seed, k), 1, YIELD_EVERY);
        attempted += r.done;
        rates.push(r.done as f64 * 1e9 / r.elapsed_ticks.max(1) as f64);
        let block = r.block.expect("block mode reports its record");
        errors.extend(check_record(&s, call_seed(seed, k), block.record));
    }
    let pool = BlockPool::new(THREADS);
    lane::install(Lane::new(false, 0));
    let (record, _) = drive(&open_spec, seed, true, &pool, &mut BlockTimes::default());
    let latency_p50_us = lane::take().service.quantile(0.5) / 1e3;
    let served = record.outputs.len();
    attempted += served as u64;
    errors.extend(check_record(&open_spec, seed, record));
    if served != THREADS * open_requests {
        errors.push(format!("open-loop block run served {served} of {}", THREADS * open_requests));
    }
    println!(
        "# ledger-block: {calls} closed calls of {} requests; open {} requests at {:.0} req/s offered",
        THREADS * CLOSED_PER_CALL,
        THREADS * open_requests,
        THREADS as f64 * 1e9 / OPEN_GAP_NS
    );
    let mut m = Metrics::default();
    m.e2e(median(&setup), median(&rates), latency_p50_us);
    Outcome { errors, attempted, failed: 0, metrics: m }
}

/// Per-block timings of the driven block loop.
#[derive(Default)]
struct BlockTimes {
    blocks: u64,
    fill_ns: u64,
    execute_ns: u64,
    commit_ns: u64,
    stats: BlockStats,
}

/// The block-mode serve loop of `run_native`, assembled from the program's
/// public pieces so each stage can be timed. Runs on the calling thread,
/// which must have a lane installed; returns the record for the oracle
/// and the loop's wall time in nanoseconds. `open` paces blocks by the
/// requests' due times and records, per request, sojourn from its due time
/// and service from the start of its block's execution to its commit.
fn drive(
    spec: &ServeSpec,
    seed: u64,
    open: bool,
    pool: &BlockPool,
    times: &mut BlockTimes,
) -> (BlockRecord, u64) {
    let cfg = BlockConfig::new(BLOCK_SIZE, block_parts(spec)).expect("valid block config");
    let order = merge_block_order(spec, THREADS, seed);
    let stm = Stm::with_parts(
        spine_config(spec, THREADS),
        Arc::new(RealGate::new(YIELD_EVERY)),
        Arc::new(BenchSink),
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    );
    let backend = BenchBackend {
        inner: Arc::new(EphemeralBackend::new(ShardedStore::new(
            spec.shards,
            spec.buckets_per_shard,
            spec.keys,
        ))),
        durable: None,
    };
    let store = backend.store();
    let initial: BTreeMap<u64, Entry> =
        (0..spec.keys).map(|k| (k, Entry { balance: INITIAL_BALANCE, blob: 0 })).collect();
    let shadow = Arc::new(RwLock::new(initial));
    let t0 = ThreadId::new(0);
    let base = lane::now_ns();
    let mut outputs = Vec::with_capacity(order.len());
    let chunks: Vec<Arc<[ScheduledRequest]>> =
        order.chunks(BLOCK_SIZE).map(|c| Arc::from(c.to_vec())).collect();
    let dues = Arc::new(order.iter().map(|s| s.at).collect::<Vec<_>>());
    let phase = if open { Phase::Open { base, dues } } else { Phase::Closed { every: u64::MAX } };
    lane::with(|l| l.begin_phase(phase));
    for chunk in &chunks {
        let block_no = times.blocks;
        let spans = block_no.is_multiple_of(SPAN_BLOCKS);
        let f0 = lane::now_ns();
        let last = chunk.last().expect("chunks are non-empty").at;
        let mut t = f0;
        while t < base + last {
            std::thread::yield_now();
            t = lane::now_ns();
        }
        let e0 = t;
        let keys = spec.keys;
        let (block_shadow, block_chunk) = (Arc::clone(&shadow), Arc::clone(chunk));
        let outcome = execute_block_on(
            pool,
            &cfg,
            chunk.len(),
            move |k: &u64| block_shadow.read().expect("shadow poisoned").get(k).copied(),
            move |i, ctx| apply_with(&block_chunk[i].req, keys, &mut |k| ctx.read(&k)),
        );
        let c0 = lane::now_ns();
        for (i, sr) in chunk.iter().enumerate() {
            let writes = &outcome.txn_writes[i];
            // Service of each request starts when its block starts executing.
            lane::with(|l| l.service_start(e0));
            stm.run(t0, sr.req.site(), |tx| {
                tx.work(spec.work);
                store.apply_writes(tx, writes)
            });
            backend.on_commit(stm.last_commit_seq(t0), &sr.req);
            lane::with(|l| l.clock_read(lane::now_ns()));
            if !writes.is_empty() {
                let mut s = shadow.write().expect("shadow poisoned");
                for &(k, e) in writes {
                    s.insert(k, e);
                }
            }
        }
        let c1 = lane::now_ns();
        outputs.extend(outcome.outputs.iter().map(response_digest));
        times.blocks += 1;
        times.fill_ns += e0 - f0;
        times.execute_ns += c0 - e0;
        times.commit_ns += c1 - c0;
        times.stats.merge(&outcome.stats);
        if spans {
            lane::with(|l| {
                if let Some(tr) = l.trace.as_mut() {
                    let s = &mut tr.spans;
                    s.open("block.block", f0, block_no);
                    s.leaf("block.fill_wait", f0, e0, block_no);
                    s.leaf("block.execute", e0, c0, block_no);
                    s.leaf("block.commit", c0, c1, block_no);
                    s.close(c1);
                }
            });
        }
    }
    let entries: Vec<(u64, Entry)> =
        shadow.read().expect("shadow poisoned").iter().map(|(&k, &e)| (k, e)).collect();
    let final_digest = fnv1a64(&gstm_serve::encode_state(&entries));
    assert_eq!(final_digest, store_digest(store), "shadow state diverged from the committed store");
    (BlockRecord { outputs, final_digest }, lane::now_ns() - base)
}

fn traced_run(seed: u64, calls: u64, open_spec: &ServeSpec, out_dir: &Path) -> Outcome {
    let pool = BlockPool::new(THREADS);
    let mut errors = Vec::new();
    let mut times = BlockTimes::default();
    lane::install(Lane::new(true, 0));
    let mut rates = Vec::new();
    let mut attempted = 0u64;
    for k in 0..calls {
        let s = spec(CLOSED_PER_CALL, closed_arrival());
        let (record, loop_ns) = drive(&s, call_seed(seed, k), false, &pool, &mut times);
        let n = record.outputs.len() as u64;
        rates.push(n as f64 * 1e9 / loop_ns as f64);
        attempted += n;
        errors.extend(check_record(&s, call_seed(seed, k), record));
    }
    let (record, _) = drive(open_spec, seed, true, &pool, &mut times);
    attempted += record.outputs.len() as u64;
    errors.extend(check_record(open_spec, seed, record));
    let mut l = lane::take();
    let tr = l.trace.take().expect("traced lane");
    let txns = attempted as f64;
    let blocks = times.blocks.max(1) as f64;
    let mut m = Metrics::default();
    m.per_layer_zero();
    m.set("serve.queue_wait_p50_us", l.queue_wait.quantile(0.5) / 1e3);
    m.set("serve.service_p50_us", l.service.quantile(0.5) / 1e3);
    m.set("serve.service_p99_us", l.service.quantile(0.99) / 1e3);
    m.set("core.attempts_per_req", tr.attempts as f64 / txns);
    m.set("core.aborted_us_per_req", tr.aborted_ns as f64 / 1e3 / txns);
    m.set("core.commit_attempt_p50_us", tr.commit_attempt.quantile(0.5) / 1e3);
    m.set("core.commit_attempt_p99_us", tr.commit_attempt.quantile(0.99) / 1e3);
    m.set("core.ro_aborts", tr.ro_aborts as f64);
    m.set("wal.on_commit_p50_us", tr.wal_on_commit.quantile(0.5) / 1e3);
    m.set("wal.on_commit_p99_us", tr.wal_on_commit.quantile(0.99) / 1e3);
    m.set("block.fill_wait_ms_per_block", times.fill_ns as f64 / 1e6 / blocks);
    m.set("block.execute_us_per_block", times.execute_ns as f64 / 1e3 / blocks);
    m.set("block.commit_us_per_block", times.commit_ns as f64 / 1e3 / blocks);
    m.set("block.waves_per_block", times.stats.waves as f64 / blocks);
    m.set("block.re_executions_per_block", times.stats.re_executions as f64 / blocks);
    m.set("block.validations_per_txn", times.stats.validations as f64 / txns);
    m.set("block.dependency_stalls_per_block", times.stats.dependency_stalls as f64 / blocks);
    m.set("trace.throughput_per_s", median(&rates));
    m.set("trace.latency_p50_us", l.service.quantile(0.5) / 1e3);
    let spans: Vec<SpanLog> = vec![tr.spans];
    crate::report::print_span_totals(&trace::totals(&spans));
    let path = out_dir.join(format!("trace-ledger-block-seed{seed}.csv"));
    if let Err(e) = trace::write_csv(&path, &spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
    Outcome { errors, attempted, failed: 0, metrics: m }
}
