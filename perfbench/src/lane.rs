//! What the benchmark sees of a serve worker from outside the program: a
//! [`ServeClock`], a [`StoreBackend`] wrapper, an [`EventSink`] and wrapped
//! [`LogDevice`]s, all reporting to the calling thread's [`Lane`].
//!
//! `serve_schedule` calls, per request: `clock.now` (the top of its loop,
//! where service starts unless it then waits), optionally
//! `clock.wait_until` (service starts when the wait ends), the engine,
//! `backend.on_commit`, and `clock.now` again (completion). The lane
//! follows that sequence to time service, queue wait and sojourn of every
//! request with the benchmark's own clock and recorder.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use gstm_core::{EventSink, ThreadId, TxEvent};
use gstm_serve::{DurableBackend, Request, ServeClock, ShardedStore, StoreBackend};
use gstm_wal::LogDevice;

use crate::recorder::LatencyRecorder;
use crate::trace::SpanLog;

/// One request in this many gets spans in a traced run (counters see all).
pub const SPAN_EVERY: u64 = 16;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the run's epoch (fixed at the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Read-only request sites (`Get`, `Scan`, `GetMany`), as `Request::site`
/// numbers them.
fn read_only_site(site: u16) -> bool {
    matches!(site, 0 | 4 | 5)
}

/// What the lane does with each completed request.
#[derive(Clone)]
pub enum Phase {
    /// Closed loop: mark the time of every `every`-th completion.
    Closed { every: u64 },
    /// Open loop: request `i` was due at `base + dues[i]`.
    Open { base: u64, dues: Arc<Vec<u64>> },
}

/// Per-layer counters and spans of a traced run.
#[derive(Default)]
pub struct TraceLane {
    pub spans: SpanLog,
    attempt_start: u64,
    /// Attempt spans of the request in service, emitted at its commit.
    attempts_buf: Vec<(u64, u64)>,
    pub attempts: u64,
    pub aborted_ns: u64,
    pub ro_aborts: u64,
    pub commit_attempt: LatencyRecorder,
    pub wal_on_commit: LatencyRecorder,
    pub snapshot_installs: u64,
    pub snapshot_ns: u64,
}

/// Everything one worker thread records.
pub struct Lane {
    pub phase: Phase,
    /// Requests completed in the current phase.
    pub idx: usize,
    svc_start: u64,
    due: u64,
    completing: bool,
    span_req: bool,
    /// Request number across phases (span request ids).
    pub served: u64,
    /// Commit sequence number of every request, in serving order.
    pub seqs: Vec<u32>,
    /// Completion times of every `every`-th closed-loop request.
    pub marks: Vec<u64>,
    pub service: LatencyRecorder,
    pub sojourn: LatencyRecorder,
    pub queue_wait: LatencyRecorder,
    pub trace: Option<TraceLane>,
}

impl Lane {
    pub fn new(traced: bool, seq_capacity: usize) -> Self {
        Lane {
            phase: Phase::Closed { every: 1 },
            idx: 0,
            svc_start: 0,
            due: 0,
            completing: false,
            span_req: false,
            served: 0,
            seqs: Vec::with_capacity(seq_capacity),
            marks: Vec::new(),
            service: LatencyRecorder::default(),
            sojourn: LatencyRecorder::default(),
            queue_wait: LatencyRecorder::default(),
            trace: traced.then(TraceLane::default),
        }
    }

    /// Starts a phase; completions are counted from zero again.
    pub fn begin_phase(&mut self, phase: Phase) {
        self.phase = phase;
        self.idx = 0;
        self.marks.clear();
    }

    /// Service of the next request starts at `t`.
    pub fn service_start(&mut self, t: u64) {
        self.svc_start = t;
    }

    /// The request in service committed at `t` with sequence `seq`.
    pub fn committed(&mut self, t: u64, seq: u64) {
        self.seqs.push(u32::try_from(seq).expect("fewer than 2^32 commits per run"));
        self.due = match &self.phase {
            Phase::Closed { .. } => self.svc_start,
            Phase::Open { base, dues } => base + dues[self.idx],
        };
        if let Phase::Open { .. } = self.phase {
            self.service.record(t - self.svc_start);
            self.queue_wait.record(self.svc_start.saturating_sub(self.due));
        }
        self.span_req = self.served.is_multiple_of(SPAN_EVERY);
        let (req, due, svc, span_req) = (self.served, self.due, self.svc_start, self.span_req);
        if let Some(tr) = self.trace.as_mut() {
            if span_req {
                tr.spans.open("serve.request", due.min(svc), req);
                if due < svc {
                    tr.spans.leaf("serve.queue_wait", due, svc, req);
                }
                tr.spans.open("serve.service", svc, req);
                for (a, b) in tr.attempts_buf.drain(..) {
                    tr.spans.leaf("core.attempt", a, b, req);
                }
                tr.spans.close(t);
            }
            tr.attempts_buf.clear();
        }
        self.completing = true;
    }

    /// The backend's commit hook took `[start, end)`; `snapshot` tells
    /// whether it installed a WAL snapshot.
    pub fn commit_hook(&mut self, start: u64, end: u64, snapshot: bool) {
        if let Some(tr) = self.trace.as_mut() {
            tr.wal_on_commit.record(end - start);
            if snapshot {
                tr.snapshot_installs += 1;
                tr.snapshot_ns += end - start;
            }
        }
    }

    /// A clock read at `t`: the completion of the committed request, or
    /// the top of the serve loop.
    pub fn clock_read(&mut self, t: u64) {
        if !self.completing {
            self.svc_start = t;
            return;
        }
        self.completing = false;
        match &self.phase {
            Phase::Closed { every } => {
                if (self.idx as u64 + 1).is_multiple_of(*every) {
                    self.marks.push(t);
                }
            }
            Phase::Open { .. } => self.sojourn.record(t - self.due),
        }
        if self.span_req {
            if let Some(tr) = self.trace.as_mut() {
                tr.spans.close_all(t);
            }
        }
        self.idx += 1;
        self.served += 1;
    }

    /// Opens a span on this lane if the request in service is sampled.
    fn span_open(&mut self, name: &'static str, t: u64) {
        let req = self.served;
        if let (true, Some(tr)) = (self.span_req && self.completing, self.trace.as_mut()) {
            tr.spans.open(name, t, req);
        }
    }

    fn span_close(&mut self, t: u64) {
        if let (true, Some(tr)) = (self.span_req && self.completing, self.trace.as_mut()) {
            tr.spans.close(t);
        }
    }
}

thread_local! {
    static LANE: RefCell<Option<Lane>> = const { RefCell::new(None) };
}

/// Installs `lane` on the calling thread.
pub fn install(lane: Lane) {
    LANE.with(|l| *l.borrow_mut() = Some(lane));
}

/// Removes and returns the calling thread's lane.
pub fn take() -> Lane {
    LANE.with(|l| l.borrow_mut().take()).expect("lane installed on this thread")
}

/// Runs `f` on the calling thread's lane, if it has one.
pub fn with<R>(f: impl FnOnce(&mut Lane) -> R) -> Option<R> {
    LANE.with(|l| l.borrow_mut().as_mut().map(f))
}

fn tracing() -> bool {
    with(|l| l.trace.is_some()).unwrap_or(false)
}

/// Wall-clock [`ServeClock`] in nanosecond ticks from `base` (run-epoch
/// nanoseconds), waiting like the program's `WallClock` (yield loop).
pub struct BenchClock {
    pub base: u64,
}

impl ServeClock for BenchClock {
    fn now(&self, _thread: ThreadId) -> u64 {
        let t = now_ns();
        with(|l| l.clock_read(t));
        t - self.base
    }

    fn wait_until(&self, _thread: ThreadId, at: u64) {
        let target = self.base + at;
        let mut t = now_ns();
        while t < target {
            std::thread::yield_now();
            t = now_ns();
        }
        with(|l| l.service_start(t));
    }
}

/// Times engine attempts from `Begin` to `Abort`/`Commit` on the
/// executing thread's lane.
pub struct BenchSink;

impl EventSink for BenchSink {
    fn record(&self, event: &TxEvent) {
        let (start, abort, site) = match event {
            TxEvent::Begin { .. } => (true, false, 0),
            TxEvent::Abort { who, .. } => (false, true, who.tx.raw()),
            TxEvent::Commit { .. } => (false, false, 0),
            _ => return,
        };
        let t = now_ns();
        with(|l| {
            let Some(tr) = l.trace.as_mut() else { return };
            if start {
                tr.attempt_start = t;
                tr.attempts += 1;
                return;
            }
            let dur = t - tr.attempt_start;
            if abort {
                tr.aborted_ns += dur;
                tr.ro_aborts += u64::from(read_only_site(site));
            } else {
                tr.commit_attempt.record(dur);
            }
            tr.attempts_buf.push((tr.attempt_start, t));
        });
    }
}

/// Byte and time counters of one wrapped device.
#[derive(Default, Debug)]
pub struct DeviceStats {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub append_ns: AtomicU64,
    pub reset_bytes: AtomicU64,
}

/// A [`LogDevice`] that counts what the WAL hands its inner device.
pub struct CountingDevice {
    pub inner: Arc<dyn LogDevice>,
    pub stats: Arc<DeviceStats>,
}

impl LogDevice for CountingDevice {
    fn append(&self, bytes: &[u8]) {
        let t0 = now_ns();
        with(|l| l.span_open("wal.device_append", t0));
        self.inner.append(bytes);
        let t1 = now_ns();
        with(|l| l.span_close(t1));
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats.append_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.stats.append_ns.fetch_add(t1 - t0, Ordering::Relaxed);
    }

    fn contents(&self) -> Vec<u8> {
        self.inner.contents()
    }

    fn reset(&self, bytes: &[u8]) {
        with(|l| l.span_open("wal.device_reset", now_ns()));
        self.inner.reset(bytes);
        with(|l| l.span_close(now_ns()));
        self.stats.reset_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// The [`StoreBackend`] the benchmark hands `serve_schedule`: forwards to
/// the program's backend and reports each commit to the lane.
pub struct BenchBackend {
    pub inner: Arc<dyn StoreBackend>,
    /// Set for the durable backend, whose WAL counters tell snapshot
    /// installs apart.
    pub durable: Option<Arc<DurableBackend>>,
}

impl StoreBackend for BenchBackend {
    fn store(&self) -> &ShardedStore {
        self.inner.store()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn on_commit(&self, seq: u64, req: &Request) {
        let t0 = now_ns();
        with(|l| l.committed(t0, seq));
        if !tracing() {
            self.inner.on_commit(seq, req);
            return;
        }
        let snaps = |d: &Arc<DurableBackend>| d.wal().stats().snapshots;
        let before = self.durable.as_ref().map(snaps);
        with(|l| l.span_open("wal.on_commit", t0));
        self.inner.on_commit(seq, req);
        let t1 = now_ns();
        with(|l| l.span_close(t1));
        let installed = self.durable.as_ref().map(snaps) != before;
        with(|l| l.commit_hook(t0, t1, installed));
    }

    fn on_snapshot_read(&self, req: &Request) {
        self.inner.on_snapshot_read(req);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}
