//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public functions: name, start, end, parent span and a shared op
//! id. Nothing is recorded inside the program. A disabled recorder costs
//! one branch per call site, so the untraced run uses the same code path.
//!
//! Self time of a span is its duration minus the part of its interval its
//! child spans cover (children of a multi-threaded phase may overlap each
//! other, so coverage is the union of their intervals).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Trace`], or [`NO_SPAN`].
pub type SpanId = u32;

/// Marks a root span (no parent).
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span buffer. Threads each own one and the phase
/// owner merges them with [`Trace::absorb`].
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    /// Parent (in the forking trace) of this trace's root spans.
    root_parent: SpanId,
}

impl Trace {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Trace {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            root_parent: NO_SPAN,
        }
    }

    /// A recorder for another thread sharing this one's epoch, whose root
    /// spans become children of the currently open span.
    pub fn fork(&self) -> Trace {
        let mut t = Trace::new(self.enabled, self.epoch);
        t.root_parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        t
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }

    /// Merges another thread's spans (re-basing their indices; roots of
    /// the fork point at the span that was open when it was forked).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as SpanId;
        for mut s in other.spans {
            s.parent = if s.parent == NO_SPAN {
                other.root_parent
            } else {
                s.parent + base
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Trace {
    /// A disabled recorder.
    fn default() -> Self {
        Trace::new(false, Instant::now())
    }
}

/// Per-name totals derived from a finished trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Busy and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NO_SPAN {
            children[s.parent as usize].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(s, children[i].iter().map(|&c| &spans[c]));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.busy_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of the children's intervals clipped to `parent`.
fn covered_ns<'a>(parent: &Span, kids: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .map(|k| (k.start_ns.max(parent.start_ns), k.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Writes every span as one tab-separated line under a header line
/// (`parent` is -1 for a root span).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\top")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_SPAN {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A phase 0..100 with two threads' calls overlapping at 20..30.
        let spans = [
            span("phase", 0, 100, NO_SPAN),
            span("call", 10, 30, 0),
            span("call", 20, 40, 0),
            span("call", 90, 120, 0),
        ];
        let t = totals(&spans);
        assert_eq!(t["phase"].busy_ns, 100);
        // Covered: 10..40 and 90..100 (clipped to the phase).
        assert_eq!(t["phase"].self_ns, 60);
        assert_eq!(t["call"].calls, 3);
        assert_eq!(t["call"].busy_ns, 20 + 20 + 30);
        assert_eq!(t["call"].self_ns, t["call"].busy_ns);
    }

    #[test]
    fn absorbed_fork_roots_hang_off_the_open_span() {
        let epoch = Instant::now();
        let mut main = Trace::new(true, epoch);
        main.begin("before", 0);
        let b = main.begin("phase", 0);
        let mut fork = main.fork();
        let leaf = fork.begin("call", 1);
        let child = fork.begin("inner", 1);
        fork.end(child);
        fork.end(leaf);
        main.end(b);
        main.absorb(fork);
        let s = main.spans();
        assert_eq!(s[2].name, "call");
        assert_eq!(s[2].parent, b);
        assert_eq!(s[3].parent, 2);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, Instant::now());
        let v = t.span("call", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
