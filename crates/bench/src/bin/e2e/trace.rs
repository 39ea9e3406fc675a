//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the calls it makes into
//! each layer — nothing inside the library crates is instrumented. A
//! span has a name, a start and an end, the span that caused it and an
//! op id shared by all spans of one driver operation (a chunk of
//! publishes, a batch, a churn round, a federated batch).
//!
//! Every span feeds a per-name roll-up (count, total time, self time);
//! only the first [`Recorder::KEEP`] spans are retained in full for
//! the trace file, because a window closes millions of them. A span's
//! **self time** is its duration minus the time covered by its direct
//! children; with one thread and no overlap that is exactly the time
//! spent in the span's own code.

use std::time::Instant;

use crate::json::Json;

/// Index into [`NAMES`].
pub type NameId = u16;

macro_rules! span_names {
    ($($ident:ident = $text:literal,)*) => {
        span_names!(@consts 0u16; $($ident,)*);
        /// Span names, `<crate>.<module>.<call>`.
        pub const NAMES: &[&str] = &[$($text,)*];
    };
    (@consts $n:expr; $head:ident, $($tail:ident,)*) => {
        pub const $head: NameId = $n;
        span_names!(@consts $n + 1; $($tail,)*);
    };
    (@consts $n:expr;) => {};
}

span_names! {
    DRIVER_OP = "driver.op",
    BROKER_SETUP = "service.broker.setup",
    BROKER_PUBLISH = "service.broker.publish",
    BROKER_PUBLISH_BATCH = "service.broker.publish_batch",
    BROKER_SUBSCRIBE = "service.broker.subscribe",
    BROKER_UNSUBSCRIBE = "service.broker.unsubscribe",
    NOTIFY_DRAIN = "service.notify.drain",
    DURABILITY_CHECKPOINT = "service.durability.checkpoint",
    DURABILITY_OPEN = "service.durability.open",
    FED_PUBLISH_BATCH = "service.federation.publish_batch",
    FED_PUMP_ORIGIN = "service.federation.pump_origin",
    FED_PUMP_TRANSIT = "service.federation.pump_transit",
    FED_PUMP_EDGE = "service.federation.pump_edge",
    REPLAY_RESOLVE = "types.indexed.resolve",
    REPLAY_RESOLVE_BATCH = "types.indexed.resolve_batch",
    REPLAY_BUILD_BULK = "types.covering.build_bulk",
    REPLAY_COMPILE = "filter.snapshot.compile",
    REPLAY_MATCH_TREE = "filter.snapshot.match_tree",
    REPLAY_MATCH_DFSA = "filter.snapshot.match_dfsa",
    REPLAY_MATCH_BLOCK = "filter.snapshot.match_block",
    REPLAY_TREE_ONLY = "filter.tree.match",
    REPLAY_WITH_OVERLAY = "filter.overlay.with_overlay",
    REPLAY_OVERLAY_MATCH = "filter.overlay.match",
    REPLAY_OBSERVE = "filter.rebuild.observe",
    REPLAY_SNAPSHOT_ENCODE = "filter.persist.encode",
    REPLAY_SNAPSHOT_DECODE = "filter.persist.decode",
    REPLAY_ENCODE_FRAME = "service.persist.encode_frame",
    REPLAY_WAL_DECODE = "service.persist.wal_decode",
    REPLAY_CHECKPOINT_DECODE = "service.persist.checkpoint_decode",
}

/// One retained span. `parent` indexes the retained span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: NameId,
    pub parent: Option<u32>,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Roll-up of every span closed under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: NameId,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

pub struct Recorder {
    epoch: Instant,
    open: Vec<Open>,
    kept: Vec<Span>,
    totals: Vec<Totals>,
}

impl Recorder {
    /// Spans retained in full for the trace file.
    pub const KEEP: usize = 20_000;

    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            open: Vec::with_capacity(8),
            kept: Vec::with_capacity(Self::KEEP),
            totals: vec![Totals::default(); NAMES.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: NameId, op: u32) {
        let start_ns = self.now_ns();
        let kept = (self.kept.len() < Self::KEEP).then(|| {
            self.kept.push(Span {
                name,
                parent: self.open.last().and_then(|o| o.kept),
                op,
                start_ns,
                end_ns: start_ns,
            });
            (self.kept.len() - 1) as u32
        });
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span and returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an unbalanced `exit` is a bug in the
    /// benchmark).
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("exit without a matching enter");
        let duration = end_ns - span.start_ns;
        let t = &mut self.totals[span.name as usize];
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(span.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(k) = span.kept {
            self.kept[k as usize].end_ns = end_ns;
        }
        duration
    }

    pub fn totals(&self, name: NameId) -> Totals {
        self.totals[name as usize]
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.kept
    }

    /// The trace file: the per-name roll-up over *all* spans, the
    /// retained spans as `[name, start_ns, end_ns, parent, op]` rows
    /// (`parent` is a row index, `-1` for a root) with their self
    /// times, and the counts the caller recorded at the same
    /// boundaries.
    pub fn to_json(&self, counts: &[(String, f64)]) -> Json {
        let self_ns = self_times(&self.kept);
        let totals = NAMES
            .iter()
            .zip(&self.totals)
            .filter(|(_, t)| t.count > 0)
            .map(|(name, t)| {
                (
                    *name,
                    Json::obj([
                        ("count", Json::UInt(t.count)),
                        ("total_ns", Json::UInt(t.total_ns)),
                        ("self_ns", Json::UInt(t.self_ns)),
                    ]),
                )
            });
        let rows = self.kept.iter().zip(&self_ns).map(|(s, own)| {
            Json::Arr(vec![
                Json::UInt(u64::from(s.name)),
                Json::UInt(s.start_ns),
                Json::UInt(s.end_ns),
                s.parent
                    .map_or(Json::Num(-1.0), |p| Json::UInt(u64::from(p))),
                Json::UInt(u64::from(s.op)),
                Json::UInt(*own),
            ])
        });
        Json::obj([
            (
                "names",
                Json::Arr(NAMES.iter().map(|n| Json::str(*n)).collect()),
            ),
            (
                "span_columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op", "self_ns"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("totals", Json::obj(totals)),
            (
                "counts",
                Json::obj(counts.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
            ),
            ("spans_retained", Json::UInt(self.kept.len() as u64)),
            ("spans", Json::Arr(rows.collect())),
        ])
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// How the drivers time a call: always measured, and additionally
/// recorded as a span when the run is traced — one code path for both
/// runs, so the traced run executes what the untraced one does.
pub enum Probe<'a> {
    Off,
    On(&'a mut Recorder),
}

impl Probe<'_> {
    /// Runs `f` and returns its result with its duration in ns.
    #[inline]
    pub fn time<R>(&mut self, name: NameId, op: u32, f: impl FnOnce() -> R) -> (R, u64) {
        match self {
            Probe::Off => {
                let t0 = Instant::now();
                let r = f();
                (r, t0.elapsed().as_nanos() as u64)
            }
            Probe::On(rec) => {
                rec.enter(name, op);
                let r = f();
                (r, rec.exit())
            }
        }
    }

    /// Opens a span that encloses other timed calls (no-op untraced).
    #[inline]
    pub fn enter(&mut self, name: NameId, op: u32) {
        if let Probe::On(rec) = self {
            rec.enter(name, op);
        }
    }

    #[inline]
    pub fn exit(&mut self) {
        if let Probe::On(rec) = self {
            rec.exit();
        }
    }
}

/// Splits a publish span into the layer replays measured on the same
/// events plus a residual, so that the parts add up to the whole **by
/// construction**: the residual is whatever the replays do not explain
/// (delivery, receipt and bookkeeping self time), and is negative only
/// if the replays cost more outside the broker than inside it.
pub fn residual_ns(publish_ns: f64, resolve_ns: f64, match_ns: f64, observe_ns: f64) -> f64 {
    publish_ns - resolve_ns - match_ns - observe_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: NameId, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) { publish [10,40) { inner [15,25) }  drain [50,70) }
        let spans = vec![
            span(DRIVER_OP, None, 0, 100),
            span(BROKER_PUBLISH, Some(0), 10, 40),
            span(REPLAY_RESOLVE, Some(1), 15, 25),
            span(NOTIFY_DRAIN, Some(0), 50, 70),
        ];
        // Grandchildren are charged to their parent, not to the root.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn recorder_rolls_up_totals_and_links_parents() {
        let mut rec = Recorder::new();
        rec.enter(DRIVER_OP, 7);
        rec.enter(BROKER_PUBLISH, 7);
        let publish = rec.exit();
        rec.enter(NOTIFY_DRAIN, 7);
        let drain = rec.exit();
        let op = rec.exit();
        assert!(op >= publish + drain);
        assert_eq!(rec.totals(DRIVER_OP).count, 1);
        assert_eq!(rec.totals(DRIVER_OP).total_ns, op);
        assert_eq!(rec.totals(DRIVER_OP).self_ns, op - publish - drain);
        assert_eq!(rec.totals(BROKER_PUBLISH).self_ns, publish);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        // The retained spans tell the same story as the roll-up.
        assert_eq!(self_times(spans)[0], rec.totals(DRIVER_OP).self_ns);
    }

    #[test]
    fn retention_is_capped_but_totals_are_not() {
        let mut rec = Recorder::new();
        for i in 0..(Recorder::KEEP as u32 + 10) {
            rec.enter(BROKER_PUBLISH, i);
            rec.exit();
        }
        assert_eq!(rec.spans().len(), Recorder::KEEP);
        assert_eq!(rec.totals(BROKER_PUBLISH).count, Recorder::KEEP as u64 + 10);
    }

    #[test]
    fn probe_measures_the_same_call_traced_or_not() {
        let mut rec = Recorder::new();
        let (v, ns) = Probe::On(&mut rec).time(BROKER_PUBLISH, 1, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(rec.totals(BROKER_PUBLISH).total_ns, ns);
        let (v, _) = Probe::Off.time(BROKER_PUBLISH, 1, || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn layer_shares_add_up_to_the_publish_span_by_construction() {
        let (publish, resolve, matching, observe) = (24_000.0, 35.5, 160.25, 410.0);
        let residual = residual_ns(publish, resolve, matching, observe);
        assert_eq!(resolve + matching + observe + residual, publish);
        // Also when the replays overshoot the span they explain.
        let residual = residual_ns(100.0, 60.0, 50.0, 10.0);
        assert_eq!(60.0 + 50.0 + 10.0 + residual, 100.0);
        assert!(residual < 0.0);
    }

    #[test]
    fn trace_json_lists_totals_and_rows() {
        let mut rec = Recorder::new();
        rec.enter(DRIVER_OP, 3);
        rec.enter(BROKER_PUBLISH, 3);
        rec.exit();
        rec.exit();
        let text = rec
            .to_json(&[("service.broker.notifications".into(), 12.0)])
            .to_string();
        assert!(text.contains(r#""service.broker.publish": {"count": 1"#));
        assert!(text.contains(r#""service.broker.notifications": 12"#));
        assert!(text.contains(r#""spans_retained": 2"#));
    }
}
