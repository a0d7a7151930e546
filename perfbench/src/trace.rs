//! Spans recorded around the calls into each layer, kept in memory per
//! thread and written out when the run ends. A span's self time is its
//! duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `wal.on_commit`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start: u64,
    /// End, nanoseconds since the run's epoch.
    pub end: u64,
    /// Index of the parent span in the same lane, or [`ROOT`].
    pub parent: u32,
    /// Request (or block, or simulated run) the span belongs to.
    pub req: u64,
}

/// The spans one thread recorded, in the order they were opened.
#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, start: u64, req: u64) -> u32 {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per lane");
        self.spans.push(Span { name, start, end: start, parent, req });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span at `end`.
    pub fn close(&mut self, end: u64) {
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id as usize].end = end;
    }

    /// Records a closed span under the innermost open one.
    pub fn leaf(&mut self, name: &'static str, start: u64, end: u64, req: u64) {
        self.open(name, start, req);
        self.close(end);
    }

    /// Drops any spans left open (a request cut off at a phase end).
    pub fn close_all(&mut self, end: u64) {
        while !self.open.is_empty() {
            self.close(end);
        }
    }
}

/// Per-name totals derived from a set of lanes.
#[derive(Default, Debug, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total and self time per span name over all lanes.
pub fn totals(lanes: &[SpanLog]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for lane in lanes {
        let mut child_ns = vec![0u64; lane.spans.len()];
        for s in &lane.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, kids) in lane.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(kids);
        }
    }
    out
}

/// Writes every span as one CSV line: `lane,id,name,start_ns,end_ns,parent,req`.
pub fn write_csv(path: &Path, lanes: &[SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "lane,id,name,start_ns,end_ns,parent,req")?;
    for (lane, log) in lanes.iter().enumerate() {
        for (id, s) in log.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(w, "{lane},{id},{},{},{},{parent},{}", s.name, s.start, s.end, s.req)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::default();
        log.open("serve.request", 0, 7);
        log.open("core.txn", 10, 7);
        log.leaf("core.attempt", 12, 20, 7);
        log.close(30);
        log.leaf("wal.on_commit", 30, 45, 7);
        log.close(50);
        let t = totals(&[log]);
        assert_eq!(t["serve.request"].total_ns, 50);
        assert_eq!(t["serve.request"].self_ns, 50 - 20 - 15);
        assert_eq!(t["core.txn"].self_ns, 20 - 8);
        assert_eq!(t["core.attempt"].self_ns, 8);
        assert_eq!(t["wal.on_commit"].count, 1);
    }
}
