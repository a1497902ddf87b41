//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span per call into a layer, from its own
//! code around the call: name, start, end, parent span and request id
//! (all spans of one request share the id). Spans stay in memory and
//! are written out once, when the run ends. A span's self time is its
//! duration minus the part of it that its child spans cover.
//!
//! A disabled recorder ([`Tracer::off`]) is what the untraced run uses:
//! every call is a branch on one flag, so the untraced and traced runs
//! execute the same benchmark code.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (or [`SpanId::NONE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span: returned when tracing is off or the buffer is full.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Request the call served.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`start` until the span ends).
    pub end: u64,
    /// Enclosing span, or [`SpanId::NONE`].
    pub parent: SpanId,
}

/// The recorder: a bounded in-memory span buffer plus the stack of
/// open spans (spans nest on one thread).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    capacity: usize,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl NameStats {
    /// Mean duration per span, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            capacity: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder holding up to `capacity` spans, timed from `epoch`.
    pub fn on(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            capacity,
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the buffer has no room left (a traced phase stops here).
    pub fn full(&self) -> bool {
        self.enabled && self.spans.len() >= self.capacity
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled || self.spans.len() >= self.capacity {
            return SpanId::NONE;
        }
        let parent = self.open.last().copied().unwrap_or(SpanId::NONE);
        let start = self.ns(Instant::now());
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            req,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.ns(Instant::now());
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id.0 as usize].end = now;
    }

    /// Renames a span once its outcome is known (e.g. a submit that
    /// turned out `Pending` or `Answered`).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if id != SpanId::NONE {
            self.spans[id.0 as usize].name = name;
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished span from instants taken elsewhere (e.g. an
    /// open-loop request whose due time and reply were seen apart).
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled || self.spans.len() >= self.capacity {
            return SpanId::NONE;
        }
        let id = SpanId(self.spans.len() as u32);
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            req,
            start,
            end: end.max(start),
            parent,
        });
        id
    }

    /// Appends another recorder's spans (same epoch), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != SpanId::NONE {
                s.parent = SpanId(s.parent.0 + base);
            }
            s
        }));
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover (children are clipped to the parent's interval).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != SpanId::NONE {
                let p = &self.spans[s.parent.0 as usize];
                let overlap = s.end.min(p.end).saturating_sub(s.start.max(p.start));
                covered[s.parent.0 as usize] += overlap;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.end - s.start;
            e.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one tab-separated line
    /// (`id name req start_ns end_ns parent self_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\treq\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == SpanId::NONE {
                -1
            } else {
                s.parent.0 as i64
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{self_ns}",
                s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut t = Tracer::on(epoch, 16);
        let root = t.record("arrival", 7, at(0), at(10), SpanId::NONE);
        t.record("sql.parse", 7, at(1), at(3), root);
        t.record("core.submit", 7, at(4), at(9), root);
        // a child reaching past its parent only covers the overlap
        let other = t.record("wire.match", 8, at(20), at(30), SpanId::NONE);
        t.record("net.decode", 8, at(28), at(34), other);
        let selfs = t.self_times();
        let ms = 1_000_000;
        assert_eq!(selfs, vec![3 * ms, 2 * ms, 5 * ms, 8 * ms, 6 * ms]);
        let by = t.by_name();
        assert_eq!(by["arrival"].count, 1);
        assert_eq!(by["arrival"].mean_self_us(), 3000.0);
        assert_eq!(by["core.submit"].mean_us(), 5000.0);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_share_the_request() {
        let mut t = Tracer::on(Instant::now(), 16);
        let root = t.begin("arrival", 3);
        let child = t.span("sql.parse", 3, || 42);
        assert_eq!(child, 42);
        let submit = t.begin("core.submit", 3);
        t.rename(submit, "core.submit_pending");
        t.end(submit);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].parent, root);
        assert_eq!(spans[2].name, "core.submit_pending");
        assert!(spans.iter().all(|s| s.req == 3 && s.end >= s.start));
        let selfs = t.self_times();
        assert_eq!(
            selfs[0],
            (spans[0].end - spans[0].start)
                - (spans[1].end - spans[1].start)
                - (spans[2].end - spans[2].start)
        );
    }

    #[test]
    fn off_and_full_recorders_drop_spans() {
        let mut off = Tracer::off();
        assert_eq!(off.begin("x", 1), SpanId::NONE);
        off.end(SpanId::NONE);
        assert!(off.spans().is_empty() && !off.full());

        let mut t = Tracer::on(Instant::now(), 1);
        let a = t.begin("a", 1);
        assert!(t.full());
        assert_eq!(t.begin("b", 1), SpanId::NONE);
        t.end(a);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::on(epoch, 8);
        a.record("x", 1, epoch, epoch, SpanId::NONE);
        let mut b = Tracer::on(epoch, 8);
        let root = b.record("y", 2, epoch, epoch, SpanId::NONE);
        b.record("z", 2, epoch, epoch, root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, SpanId(1));
    }
}
