//! The interleaved native workloads (`ledger-tl2`, `wide-durable`): two
//! worker threads run the program's `serve_schedule` on a `RealGate`
//! engine, with the benchmark's clock and backend wrapper around it.
//!
//! A run is: set-up (store, backend, engine and schedules, repeated and
//! timed), a closed-loop warm-up, a closed-loop phase of a fixed request
//! count (throughput from the median rate over short windows), and an open-loop
//! phase at the workload's fixed offered rate (sojourn, service and queue
//! wait per request). Every commit's sequence number is kept, so the whole
//! run is replayed serially afterwards and compared with the store.

use std::path::Path;
use std::sync::{Arc, Barrier};

use gstm_core::cm::Aggressive;
use gstm_core::{AdmitAll, EventSink, ReadMode, RealGate, SiteStatsSink, Stm, ThreadId};
use gstm_serve::{
    generate_schedule, recover_store, serve_schedule, spine_config, store_digest, Arrival,
    BackendKind, DurableBackend, EphemeralBackend, Materializer, Mix, Request, ScheduledRequest,
    ServeSpec, ShardedStore, StoreBackend, ThreadLog, TrafficSpec,
};
use gstm_wal::{LogDevice, MemDevice, Wal, WalConfig};

use crate::lane::{
    self, BenchBackend, BenchClock, BenchSink, CountingDevice, DeviceStats, Lane, Phase,
};
use crate::recorder::LatencyRecorder;
use crate::report::{median, Metrics, Outcome};
use crate::trace::{self, SpanLog};

/// Serve worker threads: the host's two cores, one busy thread each.
pub const THREADS: usize = 2;
/// `RealGate` yield cadence, as the program's native serve callers use.
pub const YIELD_EVERY: u32 = 64;
/// Closed-loop requests are fed to `serve_schedule` in chunks of this many.
const CHUNK: usize = 1024;
/// Distinct requests per thread in the closed-loop pool (cycled).
const POOL: usize = 1 << 16;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// One interleaved workload's fixed parameters.
pub struct Workload {
    pub name: &'static str,
    pub spec: ServeSpec,
    /// Open-loop mean gap between one thread's requests, nanoseconds.
    pub open_gap_ns: f64,
    /// Closed-loop request rate assumed when sizing the closed phase to
    /// `--seconds` (the count is then fixed, so memory and work repeat).
    pub sized_rps: f64,
    /// Completions per thread in one closed-loop throughput window.
    pub window: u64,
}

/// `ledger-tl2`: the ledger shape on the ephemeral store.
pub fn ledger_tl2() -> Workload {
    Workload {
        name: "ledger-tl2",
        spec: ServeSpec::ledger(0),
        open_gap_ns: 50_000.0,
        sized_rps: 550_000.0,
        window: 2048,
    }
}

/// `wide-durable`: the wide shape, scan-heavy mix, snapshot reads and a
/// WAL. The WAL writes to `MemDevice`s: with `FileDevice`s on ext4 (a
/// 2-vCPU VM on a shared virtio disk) every snapshot install renames a file
/// over the last one, ext4 starts writeback on each such rename, and
/// closed-loop throughput swung 130k-205k req/s between identical runs.
pub fn wide_durable() -> Workload {
    Workload {
        name: "wide-durable",
        spec: ServeSpec::wide(0)
            .with_mix(Mix::mvcc_read())
            .with_read_mode(ReadMode::Snapshot)
            .with_backend(BackendKind::Durable),
        open_gap_ns: 40_000.0,
        sized_rps: 300_000.0,
        window: 512,
    }
}

struct Built {
    backend: Arc<BenchBackend>,
    log_stats: Arc<DeviceStats>,
    snap_stats: Arc<DeviceStats>,
    log_dev: Option<Arc<dyn LogDevice>>,
    snap_dev: Option<Arc<dyn LogDevice>>,
    stm: Arc<Stm>,
    pools: Vec<Arc<Vec<ScheduledRequest>>>,
    open: Vec<Arc<Vec<ScheduledRequest>>>,
}

fn traffic(spec: &ServeSpec, arrival: Arrival, requests: usize) -> TrafficSpec {
    TrafficSpec {
        keys: spec.keys,
        zipf_theta: spec.zipf_theta,
        arrival,
        requests_per_thread: requests,
        mix: spec.mix,
        scan_len: spec.scan_len,
        drift: None,
    }
}

fn build(w: &Workload, seed: u64, open_requests: usize, traced: bool) -> Built {
    let spec = &w.spec;
    let store = ShardedStore::new(spec.shards, spec.buckets_per_shard, spec.keys);
    let log_stats = Arc::new(DeviceStats::default());
    let snap_stats = Arc::new(DeviceStats::default());
    let (inner, durable, log_dev, snap_dev): (Arc<dyn StoreBackend>, _, _, _) = match spec.backend {
        BackendKind::Ephemeral => (Arc::new(EphemeralBackend::new(store)), None, None, None),
        BackendKind::Durable => {
            let log: Arc<dyn LogDevice> = Arc::new(MemDevice::new());
            let snap: Arc<dyn LogDevice> = Arc::new(MemDevice::new());
            let wal = Wal::new(
                WalConfig::new(),
                Arc::new(CountingDevice { inner: Arc::clone(&log), stats: Arc::clone(&log_stats) }),
                Arc::new(CountingDevice {
                    inner: Arc::clone(&snap),
                    stats: Arc::clone(&snap_stats),
                }),
            );
            let d = Arc::new(DurableBackend::new(store, wal));
            (Arc::clone(&d) as Arc<dyn StoreBackend>, Some(d), Some(log), Some(snap))
        }
    };
    let sink: Arc<dyn EventSink> =
        if traced { Arc::new(BenchSink) } else { Arc::new(SiteStatsSink::new()) };
    let stm = Arc::new(Stm::with_parts(
        spine_config(spec, THREADS),
        Arc::new(RealGate::new(YIELD_EVERY)),
        sink,
        Arc::new(AdmitAll),
        Arc::new(Aggressive),
    ));
    // The closed-loop pool and the open-loop schedule are independent
    // streams of the same traffic; both are pure functions of the seed.
    let pool_traffic = traffic(spec, Arrival::Poisson { mean_gap: 1.0 }, POOL);
    let open_traffic = traffic(spec, Arrival::Poisson { mean_gap: w.open_gap_ns }, open_requests);
    let pools = (0..THREADS)
        .map(|t| Arc::new(generate_schedule(&pool_traffic, seed ^ 0x5eed_c105_ed00, t)))
        .collect();
    let open = (0..THREADS).map(|t| Arc::new(generate_schedule(&open_traffic, seed, t))).collect();
    Built {
        backend: Arc::new(BenchBackend { inner, durable }),
        log_stats,
        snap_stats,
        log_dev,
        snap_dev,
        stm,
        pools,
        open,
    }
}

/// Runs `work(thread, lane)` on every worker thread at once, each with its
/// lane installed, and hands the lanes back.
fn on_workers(lanes: Vec<Lane>, work: impl Fn(usize) + Sync) -> Vec<Lane> {
    let barrier = Barrier::new(lanes.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(t, l)| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    lane::install(l);
                    barrier.wait();
                    work(t);
                    lane::take()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve worker panicked")).collect()
    })
}

/// Feeds `count` closed-loop requests (all due at once) from the thread's
/// pool, starting at pool position `from`.
fn closed_loop(b: &Built, spec: &ServeSpec, t: usize, from: usize, count: usize, log: &ThreadLog) {
    let pool = &b.pools[t];
    let clock = BenchClock { base: lane::now_ns() };
    let mut buf: Vec<ScheduledRequest> = Vec::with_capacity(CHUNK);
    let mut pos = from;
    let end = from + count;
    while pos < end {
        buf.clear();
        let n = CHUNK.min(end - pos);
        buf.extend((pos..pos + n).map(|i| ScheduledRequest { at: 0, req: pool[i % POOL].req }));
        let thread = ThreadId::new(t as u16);
        serve_schedule(&b.stm, thread, b.backend.as_ref(), &buf, &clock, spec, log);
        pos += n;
    }
}

/// Each thread's closed-loop rates over the windows of `every` completions
/// it finished while both threads were busy.
fn window_rates(lanes: &[Lane], every: u64) -> Vec<Vec<f64>> {
    let from = lanes.iter().filter_map(|l| l.marks.first()).copied().max().unwrap_or(0);
    let to = lanes.iter().filter_map(|l| l.marks.last()).copied().min().unwrap_or(0);
    lanes
        .iter()
        .map(|l| {
            l.marks
                .windows(2)
                .filter(|w| w[0] >= from && w[1] <= to)
                .map(|w| every as f64 * 1e9 / (w[1] - w[0]) as f64)
                .collect()
        })
        .collect()
}

/// Replays every commit serially in sequence order. The request each lane
/// served `k`-th is known: warm-up and closed phases cycle the pool, then
/// the open schedule follows.
fn replay(
    b: &Built,
    lanes: &[Lane],
    closed_total: usize,
    keys: u64,
) -> Result<Materializer, String> {
    let commits: usize = lanes.iter().map(|l| l.seqs.len()).sum();
    // Slot `seq - 1` holds `(lane << 31) | k + 1`; 0 marks a missing seq.
    let mut by_seq: Vec<u32> = vec![0; commits];
    for (t, l) in lanes.iter().enumerate() {
        for (k, &seq) in l.seqs.iter().enumerate() {
            let slot = (seq as usize)
                .checked_sub(1)
                .and_then(|i| by_seq.get_mut(i))
                .ok_or_else(|| format!("commit seq {seq} outside 1..={commits}"))?;
            if *slot != 0 {
                return Err(format!("commit seq {seq} seen twice"));
            }
            *slot = ((t as u32) << 31) | (k as u32 + 1);
        }
    }
    let mut m = Materializer::initial(keys);
    for (i, &packed) in by_seq.iter().enumerate() {
        if packed == 0 {
            return Err(format!("commit seq {} never seen", i + 1));
        }
        let (t, k) = ((packed >> 31) as usize, (packed & 0x7FFF_FFFF) as usize - 1);
        let req: Request = if k < closed_total {
            b.pools[t][k % POOL].req
        } else {
            b.open[t][k - closed_total].req
        };
        m.apply(&req);
    }
    Ok(m)
}

fn checks(
    b: &Built,
    w: &Workload,
    lanes: &[Lane],
    logs: &[ThreadLog],
    fed: u64,
    closed_total: usize,
) -> Vec<String> {
    let mut errors = Vec::new();
    let store = b.backend.store();
    let done: u64 = logs.iter().map(|l| l.done.load(std::sync::atomic::Ordering::Relaxed)).sum();
    let shed: u64 = logs.iter().map(|l| l.shed.load(std::sync::atomic::Ordering::Relaxed)).sum();
    if shed != 0 || done != fed {
        errors.push(format!("served {done} and shed {shed} of {fed} requests"));
    }
    let digest = store_digest(store);
    match replay(b, lanes, closed_total, w.spec.keys) {
        Ok(m) => {
            if m.digest() != digest {
                errors.push("serial replay of the commit order differs from the store".into());
            }
            if m.total_balance() != store.expected_total() {
                errors.push("serial replay does not conserve the total balance".into());
            }
        }
        Err(e) => errors.push(e),
    }
    if store.total_balance_unlogged() != store.expected_total() {
        errors.push("served store does not conserve the total balance".into());
    }
    if let (Some(log), Some(snap)) = (&b.log_dev, &b.snap_dev) {
        let s = &w.spec;
        match recover_store(
            s.shards,
            s.buckets_per_shard,
            s.keys,
            &log.contents(),
            &snap.contents(),
        ) {
            Ok(rec) => {
                if store_digest(&rec.store) != digest {
                    errors.push(
                        "store recovered from the WAL device bytes differs from the served store"
                            .into(),
                    );
                }
                if rec.recovered_seq != done {
                    errors.push(format!("WAL recovered {} of {done} commits", rec.recovered_seq));
                }
            }
            Err(e) => errors.push(format!("recovery from the WAL device bytes failed: {e:?}")),
        }
    }
    errors
}

/// Runs one interleaved workload.
pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Outcome {
    let secs = seconds as f64;
    let open_requests = (0.4 * secs * 1e9 / w.open_gap_ns) as usize;
    // Closed-loop counts are fixed (sized to about 0.45 S at the workload's
    // sized rate), so work and memory repeat from run to run.
    let per_thread = |s: f64| ((w.sized_rps * s / THREADS as f64) as usize).div_ceil(CHUNK) * CHUNK;
    let warm = per_thread(0.03 * secs);
    let closed = per_thread(0.45 * secs);

    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = lane::now_ns();
        built = Some(build(w, seed, open_requests, traced));
        setup.push((lane::now_ns() - t0) as f64 / 1e9);
    }
    let b = built.expect("set up at least once");
    let cap = warm + closed + open_requests;
    let mut lanes: Vec<Lane> = (0..THREADS).map(|_| Lane::new(traced, cap)).collect();
    let mut spec = w.spec.clone();
    spec.max_queue_depth = usize::MAX;
    let logs: Vec<ThreadLog> = (0..THREADS).map(|_| ThreadLog::default()).collect();

    for (from, count) in [(0, warm), (warm, closed)] {
        lanes.iter_mut().for_each(|l| l.begin_phase(Phase::Closed { every: w.window }));
        lanes = on_workers(lanes, |t| closed_loop(&b, &spec, t, from, count, &logs[t]));
    }
    let rates = window_rates(&lanes, w.window);
    let windows: usize = rates.iter().map(Vec::len).sum();
    // Each thread's median window rate, summed over threads.
    let throughput: f64 = rates.iter().map(|r| median(r)).sum();

    let base = lane::now_ns() + 1_000_000;
    for (t, l) in lanes.iter_mut().enumerate() {
        let dues = Arc::new(b.open[t].iter().map(|s| s.at).collect());
        l.begin_phase(Phase::Open { base, dues });
    }
    lanes = on_workers(lanes, |t| {
        let clock = BenchClock { base };
        serve_schedule(
            &b.stm,
            ThreadId::new(t as u16),
            b.backend.as_ref(),
            &b.open[t],
            &clock,
            &spec,
            &logs[t],
        );
    });
    let last_done = lane::now_ns();
    let behind_ms = last_done.saturating_sub(
        base + b.open.iter().map(|s| s.last().map_or(0, |r| r.at)).max().unwrap_or(0),
    ) as f64
        / 1e6;

    let fed = (THREADS * (warm + closed + open_requests)) as u64;
    let errors = checks(&b, w, &lanes, &logs, fed, warm + closed);

    let mut service = LatencyRecorder::default();
    let mut sojourn = LatencyRecorder::default();
    let mut queue = LatencyRecorder::default();
    for l in &lanes {
        service.merge(&l.service);
        sojourn.merge(&l.sojourn);
        queue.merge(&l.queue_wait);
    }
    let sojourn_p50_us = sojourn.quantile(0.5) / 1e3;
    println!(
        "# {}: closed {} req/thread, {} windows; open {} req/thread at {:.0} req/s offered, generator ended {behind_ms:.2} ms after the last due time",
        w.name,
        warm + closed,
        windows,
        open_requests,
        THREADS as f64 * 1e9 / w.open_gap_ns
    );
    let mut m = Metrics::default();
    if !traced {
        m.e2e(median(&setup), throughput, sojourn_p50_us);
    } else {
        let mut tr: Vec<crate::lane::TraceLane> =
            lanes.into_iter().filter_map(|l| l.trace).collect();
        let requests = fed as f64;
        let mut commit_attempt = LatencyRecorder::default();
        let mut on_commit = LatencyRecorder::default();
        for t in &tr {
            commit_attempt.merge(&t.commit_attempt);
            on_commit.merge(&t.wal_on_commit);
        }
        let sum = |f: fn(&crate::lane::TraceLane) -> u64| tr.iter().map(f).sum::<u64>() as f64;
        m.per_layer_zero();
        m.set("serve.queue_wait_p50_us", queue.quantile(0.5) / 1e3);
        m.set("serve.service_p50_us", service.quantile(0.5) / 1e3);
        m.set("serve.service_p99_us", service.quantile(0.99) / 1e3);
        m.set("core.attempts_per_req", sum(|t| t.attempts) / requests);
        m.set("core.aborted_us_per_req", sum(|t| t.aborted_ns) / 1e3 / requests);
        m.set("core.commit_attempt_p50_us", commit_attempt.quantile(0.5) / 1e3);
        m.set("core.commit_attempt_p99_us", commit_attempt.quantile(0.99) / 1e3);
        m.set("core.ro_aborts", sum(|t| t.ro_aborts));
        let mvcc = b.stm.mvcc_stats();
        m.set("mvcc.snapshot_txns", mvcc.snapshot_txns as f64);
        m.set("mvcc.ring_len_max", mvcc.ring_len_max as f64);
        m.set("mvcc.gc_lag_events", mvcc.gc_lag_events as f64);
        m.set("wal.on_commit_p50_us", on_commit.quantile(0.5) / 1e3);
        m.set("wal.on_commit_p99_us", on_commit.quantile(0.99) / 1e3);
        if let Some(d) = &b.backend.durable {
            let ws = d.wal().stats();
            let ld = &b.log_stats;
            let sd = &b.snap_stats;
            let get = |a: &std::sync::atomic::AtomicU64| {
                a.load(std::sync::atomic::Ordering::Relaxed) as f64
            };
            m.set("wal.flushes", ws.flushes as f64);
            m.set("wal.records_per_flush", ws.flushed_records as f64 / (ws.flushes.max(1)) as f64);
            m.set(
                "wal.device_append_us_per_call",
                get(&ld.append_ns) / 1e3 / get(&ld.appends).max(1.0),
            );
            m.set("wal.snapshot_installs", ws.snapshots as f64);
            let installs = sum(|t| t.snapshot_installs).max(1.0);
            m.set("wal.snapshot_us_per_install", sum(|t| t.snapshot_ns) / 1e3 / installs);
            m.set(
                "wal.log_bytes_per_req",
                (get(&ld.append_bytes) + get(&ld.reset_bytes)) / requests,
            );
            m.set(
                "wal.snapshot_bytes_per_req",
                (get(&sd.append_bytes) + get(&sd.reset_bytes)) / requests,
            );
        }
        m.set("trace.throughput_per_s", throughput);
        m.set("trace.latency_p50_us", sojourn_p50_us);
        let spans: Vec<SpanLog> = tr.iter_mut().map(|t| std::mem::take(&mut t.spans)).collect();
        crate::report::print_span_totals(&trace::totals(&spans));
        let path = out_dir.join(format!("trace-{}-seed{seed}.csv", w.name));
        if let Err(e) = trace::write_csv(&path, &spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    Outcome { errors, attempted: fed, failed: 0, metrics: m }
}
