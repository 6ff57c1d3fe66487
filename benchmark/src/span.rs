//! Spans recorded by the benchmark around each call into a layer.
//!
//! The program is not instrumented: every span here opens and closes in
//! the benchmark's own code, on the generator's clock, so no two clocks
//! are ever compared. A span has a name (the layer and the call), a
//! start, an end, the span that caused it, and the frame/op id it
//! belongs to. Spans stay in memory while the workload runs and are
//! written out once it has ended. With tracing off, [`Tracer::enter`]
//! returns before it reads the clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its tracer; `NONE` for "no parent" / "not traced".
pub type SpanIdx = u32;
pub const NONE: SpanIdx = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The frame, batch, op or run this span belongs to.
    pub id: u64,
    pub parent: SpanIdx,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. Spans nest by call order: `enter` makes
/// the innermost open span the parent.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanIdx>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so their spans land on
    /// one axis; `cap` spans are reserved up front so recording does not
    /// reallocate inside a window.
    pub fn new(on: bool, epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::with_capacity(if on { cap } else { 0 }),
            open: Vec::with_capacity(8),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle tracing between spans");
        self.on = on;
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, id: u64) -> SpanIdx {
        if !self.on {
            return NONE;
        }
        let idx = self.spans.len() as SpanIdx;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied().unwrap_or(NONE),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    #[inline]
    pub fn exit(&mut self, idx: SpanIdx) {
        if idx == NONE {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (another thread's spans) to `all`, re-basing parent
/// links so they keep pointing inside their own thread's spans.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as SpanIdx;
    all.extend(more.into_iter().map(|mut s| {
        if s.parent != NONE {
            s.parent += base;
        }
        s
    }));
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent
/// and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                kids[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in k.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals over `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// How many spans a trace file carries in full; the per-name totals in
/// the same file always cover every span recorded.
pub const FILE_SPANS: usize = 100_000;

/// The trace file: per-name totals over everything recorded, then the
/// first [`FILE_SPANS`] spans verbatim.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(128 * spans.len().min(FILE_SPANS) + 4096);
    let _ = write!(
        s,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"generator monotonic, ns since run start\",\
         \"spans_recorded\":{},\"spans_written\":{},\"totals\":[",
        spans.len(),
        spans.len().min(FILE_SPANS)
    );
    for (i, (name, t)) in totals(spans).iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i > 0 { "," } else { "" },
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    s.push_str("],\"spans\":[");
    for (i, sp) in spans.iter().take(FILE_SPANS).enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i > 0 { "," } else { "" },
            sp.name,
            sp.id,
            if sp.parent == NONE {
                "null".to_string()
            } else {
                sp.parent.to_string()
            },
            sp.start_ns,
            sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanIdx, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("frame", NONE, 0, 100),
            span("encode", 0, 10, 30),
            span("write", 0, 30, 70),
            span("syscall", 2, 35, 65),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
        let t = totals(&spans);
        assert_eq!(
            t["frame"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.values().map(|v| v.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span("parent", NONE, 100, 200),
            span("a", 0, 110, 150),
            span("b", 0, 140, 160), // overlaps a by 10
            span("c", 0, 190, 250), // overhangs the parent by 50
            span("d", 0, 50, 90),   // entirely outside: covers nothing
            span("e", 0, 120, 130), // inside a: adds nothing
        ];
        // covered = [110,160) + [190,200) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_by_call_order_and_is_inert_when_off() {
        let mut t = Tracer::new(true, Instant::now(), 16);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        let second = t.enter("second", 7);
        t.exit(second);
        t.exit(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NONE);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(spans.iter().all(|s| s.id == 7));

        let mut off = Tracer::new(false, Instant::now(), 16);
        let s = off.enter("x", 0);
        assert_eq!(s, NONE);
        off.exit(s);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut all = vec![span("a", NONE, 0, 10), span("b", 0, 1, 2)];
        merge(&mut all, vec![span("c", NONE, 0, 10), span("d", 0, 3, 4)]);
        assert_eq!(all[2].parent, NONE);
        assert_eq!(all[3].parent, 2);
        assert_eq!(self_times(&all), vec![9, 1, 9, 1]);
    }

    #[test]
    fn json_has_totals_and_spans() {
        let spans = [span("frame", NONE, 0, 100), span("encode", 0, 10, 30)];
        let json = to_json("wire_batched", 3, &spans);
        let v: serde::Value = serde_json::from_str(&json).expect("valid json");
        assert_eq!(v.get("spans_recorded"), Some(&serde::Value::U64(2)));
        let serde::Value::Seq(list) = v.get("spans").unwrap() else {
            panic!("spans is a list")
        };
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].get("parent"), Some(&serde::Value::Null));
        assert_eq!(list[1].get("parent"), Some(&serde::Value::U64(0)));
    }
}
