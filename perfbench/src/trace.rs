//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records its kind, start, end, parent and op id. Parents are
//! logical: the layer below a call is usually driven on a mirror after the
//! call returns, so a child span need not lie inside its parent in time. A
//! span's self time is its duration minus the durations of its children
//! ([`self_times`]), after taking out what the tracer itself added to
//! each. Spans are aggregated per kind as each op ends, and the first spans
//! of a run are kept verbatim and written out when it exits.

use crate::alloc;
use crate::stats::median;
use std::io::Write;
use std::time::Instant;

/// Every layer boundary the benchmark times, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FacadeQuery,
    FacadeUpdate,
    JournalRecord,
    JournalCatchUp,
    SamplerQueryIn,
    SamplerPlanBuild,
    SamplerUpdate,
    StructureUpdate,
    ItemSlab,
    QueryLevel1,
    QueryLevel2,
    QueryLevel3,
    QueryExtract,
    GraphAddEdge,
    GraphRemoveEdge,
    GraphSampleIn,
    GraphRrSet,
}

pub const KINDS: usize = 17;

pub const ALL: [Kind; KINDS] = [
    Kind::FacadeQuery,
    Kind::FacadeUpdate,
    Kind::JournalRecord,
    Kind::JournalCatchUp,
    Kind::SamplerQueryIn,
    Kind::SamplerPlanBuild,
    Kind::SamplerUpdate,
    Kind::StructureUpdate,
    Kind::ItemSlab,
    Kind::QueryLevel1,
    Kind::QueryLevel2,
    Kind::QueryLevel3,
    Kind::QueryExtract,
    Kind::GraphAddEdge,
    Kind::GraphRemoveEdge,
    Kind::GraphSampleIn,
    Kind::GraphRrSet,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FacadeQuery => "pss_core.facade.query",
            Kind::FacadeUpdate => "pss_core.facade.update",
            Kind::JournalRecord => "pss_core.journal.record",
            Kind::JournalCatchUp => "pss_core.journal.catch_up",
            Kind::SamplerQueryIn => "dpss.sampler.query_in",
            Kind::SamplerPlanBuild => "dpss.sampler.plan_build",
            Kind::SamplerUpdate => "dpss.sampler.update",
            Kind::StructureUpdate => "dpss.structure.update",
            Kind::ItemSlab => "dpss.item.slab",
            Kind::QueryLevel1 => "dpss.query.level1",
            Kind::QueryLevel2 => "dpss.query.level2",
            Kind::QueryLevel3 => "dpss.query.level3",
            Kind::QueryExtract => "dpss.query.extract",
            Kind::GraphAddEdge => "graphsub.add_edge",
            Kind::GraphRemoveEdge => "graphsub.remove_edge",
            Kind::GraphSampleIn => "graphsub.sample_in",
            Kind::GraphRrSet => "graphsub.rr_set",
        }
    }
}

/// Index of a span within the current op.
pub type SpanId = usize;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
    /// Spans opened while this one was open.
    pub nested: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What tracing adds to measured durations, in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanCost {
    /// Recorded inside a span's own window (an empty span's duration).
    pub inside: f64,
    /// Added to the enclosing span by one nested span, its window included.
    pub nested: f64,
}

/// Self time of every span of one op: its duration without the tracer's
/// own cost, minus the same for each span naming it as parent. It can be
/// negative when children timed on a mirror ran slower than the call they
/// stand under.
pub fn self_times(spans: &[Span], cost: SpanCost) -> Vec<f64> {
    let inclusive = |s: &Span| s.dur() as f64 - cost.inside - f64::from(s.nested) * cost.nested;
    let mut out: Vec<f64> = spans.iter().map(inclusive).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= inclusive(s);
        }
    }
    out
}

#[derive(Clone, Copy, Debug, Default)]
pub struct KindTotals {
    /// Calls over the whole run, set-up included.
    pub calls: u64,
    /// Calls made inside measured ops.
    pub op_calls: u64,
    pub self_ns: f64,
}

/// Raw spans kept for the trace file, per phase.
const KEEP_SETUP: usize = 1 << 16;
const KEEP_OPS: usize = 1 << 19;

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u64,
    /// Measured ops ended so far (set-up ops excluded).
    pub ops: u64,
    in_setup: bool,
    cur: Vec<Span>,
    /// Open spans, innermost last: allocations go to the top one.
    open: Vec<SpanId>,
    pub totals: [KindTotals; KINDS],
    kept: Vec<Span>,
    kept_setup: usize,
    kept_ops: usize,
    dropped: u64,
    pub cost: SpanCost,
}

impl Tracer {
    /// A tracer whose span cost is measured first, on empty spans.
    pub fn new() -> Self {
        let mut t = Tracer::with_cost(SpanCost::default());
        let (mut alone, mut with_children, mut inner) = (Vec::new(), Vec::new(), Vec::new());
        const CHILDREN: u32 = 8;
        for _ in 0..2000 {
            let p = t.open(Kind::FacadeQuery, None);
            t.close(p);
            alone.push(t.dur(p) as f64);
            let p = t.open(Kind::FacadeQuery, None);
            for _ in 0..CHILDREN {
                let c = t.open(Kind::SamplerQueryIn, Some(p));
                t.close(c);
                inner.push(t.dur(c) as f64);
            }
            t.close(p);
            with_children.push(t.dur(p) as f64);
            t.cur.clear();
        }
        let nested = (median(&with_children) - median(&alone)) / f64::from(CHILDREN);
        Tracer::with_cost(SpanCost { inside: median(&inner), nested })
    }

    fn with_cost(cost: SpanCost) -> Self {
        Tracer {
            origin: Instant::now(),
            op: 0,
            ops: 0,
            in_setup: false,
            cur: Vec::with_capacity(1 << 12),
            open: Vec::with_capacity(64),
            totals: [KindTotals::default(); KINDS],
            kept: Vec::new(),
            kept_setup: 0,
            kept_ops: 0,
            dropped: 0,
            cost,
        }
    }

    /// Marks the ops that follow as set-up (`true`) or measured (`false`).
    pub fn set_setup(&mut self, setup: bool) {
        self.in_setup = setup;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `kind` under `parent`. Its clock starts last, after
    /// the tracer's own bookkeeping.
    pub fn open(&mut self, kind: Kind, parent: Option<SpanId>) -> SpanId {
        alloc::set_slot(None);
        let id = self.cur.len();
        for &o in &self.open {
            self.cur[o].nested += 1;
        }
        self.cur.push(Span { kind, parent, start_ns: 0, end_ns: 0, op: self.op, nested: 0 });
        self.open.push(id);
        alloc::set_slot(Some(kind as usize));
        self.cur[id].start_ns = self.now();
        id
    }

    /// Closes span `id`, which must be the innermost open one. Its clock
    /// stops first.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        alloc::set_slot(None);
        self.cur[id].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        alloc::set_slot(self.open.last().map(|&s| self.cur[s].kind as usize));
    }

    /// Runs `f` inside a span of `kind`.
    pub fn span<T>(
        &mut self,
        kind: Kind,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> (T, SpanId) {
        let id = self.open(kind, parent);
        let out = f(self, id);
        self.close(id);
        (out, id)
    }

    /// Runs `top` (the call under test) and `lower` (the layers below it, on
    /// mirrors) in that order, or the other way round when `bottom_up`, so
    /// neither side always finds the cache as the other left it.
    pub fn ordered<A, B>(
        &mut self,
        bottom_up: bool,
        top: impl FnOnce(&mut Self) -> A,
        lower: impl FnOnce(&mut Self) -> B,
    ) -> (A, B) {
        if bottom_up {
            let b = lower(self);
            (top(self), b)
        } else {
            let a = top(self);
            (a, lower(self))
        }
    }

    /// Sets the parent of span `id`, for a child timed before its parent.
    pub fn set_parent(&mut self, id: SpanId, parent: SpanId) {
        self.cur[id].parent = Some(parent);
    }

    pub fn dur(&self, id: SpanId) -> u64 {
        self.cur[id].dur()
    }

    /// Ends the current op: folds its spans into the per-kind totals and
    /// keeps the first ones for the trace file.
    pub fn end_op(&mut self) {
        debug_assert!(self.open.is_empty(), "op ended with open spans");
        for (s, self_ns) in self.cur.iter().zip(self_times(&self.cur, self.cost)) {
            let t = &mut self.totals[s.kind as usize];
            t.calls += 1;
            t.self_ns += self_ns;
            if !self.in_setup {
                t.op_calls += 1;
            }
        }
        let (kept, cap) = if self.in_setup {
            (&mut self.kept_setup, KEEP_SETUP)
        } else {
            (&mut self.kept_ops, KEEP_OPS)
        };
        let take = self.cur.len().min(cap - *kept);
        *kept += take;
        self.kept.extend_from_slice(&self.cur[..take]);
        self.dropped += (self.cur.len() - take) as u64;
        self.cur.clear();
        self.op += 1;
        if !self.in_setup {
            self.ops += 1;
        }
    }

    /// Writes the kept spans as tab-separated lines under `header`
    /// comment lines. Parent and span ids are indices within the op.
    pub fn write(&self, path: &std::path::Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for h in header {
            writeln!(f, "# {h}")?;
        }
        writeln!(f, "# spans kept {}, dropped {}", self.kept.len(), self.dropped)?;
        writeln!(f, "op\tspan\tparent\tname\tstart_ns\tend_ns")?;
        let mut idx = 0;
        let mut last_op = u64::MAX;
        for s in &self.kept {
            if s.op != last_op {
                idx = 0;
                last_op = s.op;
            }
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                f,
                "{}\t{idx}\t{parent}\t{}\t{}\t{}",
                s.op,
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
            idx += 1;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { kind, parent, start_ns, end_ns, op: 0, nested: 0 }
    }

    #[test]
    fn self_time_subtracts_logical_and_nested_children() {
        // facade.query [0,100) → query_in on a mirror [110,190) → level1
        // nested [120,180) → two level-2 calls nested inside level1.
        let spans = [
            span(Kind::FacadeQuery, None, 0, 100),
            span(Kind::SamplerQueryIn, Some(0), 110, 190),
            span(Kind::QueryLevel1, Some(1), 120, 180),
            span(Kind::QueryLevel2, Some(2), 125, 140),
            span(Kind::QueryLevel2, Some(2), 150, 170),
        ];
        assert_eq!(self_times(&spans, SpanCost::default()), vec![20.0, 20.0, 25.0, 15.0, 20.0]);
    }

    #[test]
    fn self_time_takes_out_the_tracer_cost() {
        // level1 [0,100) holds two nested level-2 spans; each span records
        // 2 ns of tracer time inside its window and costs its enclosing
        // span 5 ns in all. Its mirror parent query_in [200,260) has none.
        let cost = SpanCost { inside: 2.0, nested: 5.0 };
        let mut spans = [
            span(Kind::SamplerQueryIn, None, 200, 260),
            span(Kind::QueryLevel1, Some(0), 0, 100),
            span(Kind::QueryLevel2, Some(1), 10, 30),
            span(Kind::QueryLevel2, Some(1), 40, 60),
        ];
        spans[1].nested = 2;
        // Inclusive work: query_in 58, level1 100 − 2 − 10 = 88, level-2
        // calls 18 each; self = inclusive minus children's inclusive.
        assert_eq!(self_times(&spans, cost), vec![-30.0, 52.0, 18.0, 18.0]);
    }

    #[test]
    fn self_time_can_go_negative_on_a_slower_mirror() {
        let spans =
            [span(Kind::FacadeUpdate, None, 0, 50), span(Kind::SamplerUpdate, Some(0), 60, 120)];
        assert_eq!(self_times(&spans, SpanCost::default()), vec![-10.0, 60.0]);
    }

    #[test]
    fn tracer_aggregates_per_kind_and_counts_op_calls() {
        let mut tr = Tracer::new();
        tr.set_setup(true);
        tr.span(Kind::GraphAddEdge, None, |_, _| ());
        tr.end_op();
        tr.set_setup(false);
        for _ in 0..3 {
            let (_, f) = tr.span(Kind::FacadeQuery, None, |_, _| ());
            tr.span(Kind::SamplerQueryIn, Some(f), |tr, q| {
                tr.span(Kind::QueryLevel1, Some(q), |_, _| ());
            });
            tr.end_op();
        }
        assert_eq!(tr.ops, 3);
        let t = |k: Kind| tr.totals[k as usize];
        assert_eq!((t(Kind::GraphAddEdge).calls, t(Kind::GraphAddEdge).op_calls), (1, 0));
        assert_eq!((t(Kind::FacadeQuery).calls, t(Kind::FacadeQuery).op_calls), (3, 3));
        assert_eq!(t(Kind::QueryLevel1).op_calls, 3);
        // Nesting is counted as spans open.
        assert!(tr.cost.inside >= 0.0);
    }

    #[test]
    fn open_counts_nested_spans() {
        let mut tr = Tracer::with_cost(SpanCost::default());
        tr.span(Kind::QueryLevel1, None, |tr, a| {
            tr.span(Kind::QueryLevel2, Some(a), |tr, b| {
                tr.span(Kind::QueryLevel3, Some(b), |_, _| ());
            });
            tr.span(Kind::QueryExtract, Some(a), |_, _| ());
        });
        let nested: Vec<u32> = tr.cur.iter().map(|s| s.nested).collect();
        assert_eq!(nested, vec![3, 1, 0, 0]);
    }
}
