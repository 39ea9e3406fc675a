//! Composite events — the extension announced in the paper's outlook
//! ("We will extend the filter to handle composite events", §5).
//!
//! A composite event is a temporal combination of primitive profile
//! matches. The detector consumes the per-event match sets a
//! [`Broker`](ens_service::Broker) reports (via
//! [`PublishReceipt::matched`](ens_service::PublishReceipt)) together with a
//! logical timestamp, and fires composite ids when their expressions are
//! satisfied.
//!
//! Semantics (non-consuming, per observation at logical time `t` with
//! window `w`):
//!
//! * `Primitive(s)` fires iff subscription `s` matched at `t`;
//! * `Or(a, b)` fires iff `a` or `b` fires at `t`;
//! * `And(a, b)` fires iff one operand fires at `t` and the other fired
//!   at some `t' ∈ [t − w, t]`;
//! * `Seq(a, b)` fires iff `b` fires at `t` and `a` fired strictly
//!   earlier at some `t' ∈ [t − w, t)`;
//! * `Repeat(e, k)` fires iff `e` fires at `t` and has fired at least
//!   `k` times within `[t − w, t]` (e.g. "three storm readings within
//!   an hour").

use serde::{Deserialize, Serialize};

use ens_service::SubscriptionId;

/// Identifier of a registered composite definition.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct CompositeId(u64);

impl CompositeId {
    /// The raw value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for CompositeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The referenced composite definition does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownComposite(pub CompositeId);

impl std::fmt::Display for UnknownComposite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown composite definition {}", self.0.get())
    }
}

impl std::error::Error for UnknownComposite {}

/// A composite-event expression over primitive subscriptions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompositeExpr {
    /// A primitive profile match.
    Primitive(SubscriptionId),
    /// Both operands within the window.
    And(Box<CompositeExpr>, Box<CompositeExpr>),
    /// Either operand.
    Or(Box<CompositeExpr>, Box<CompositeExpr>),
    /// Left strictly before right, within the window.
    Seq(Box<CompositeExpr>, Box<CompositeExpr>),
    /// At least `k` occurrences of the operand within the window.
    Repeat(Box<CompositeExpr>, u32),
}

impl CompositeExpr {
    /// `a AND b`.
    #[must_use]
    pub fn and(a: CompositeExpr, b: CompositeExpr) -> Self {
        CompositeExpr::And(Box::new(a), Box::new(b))
    }

    /// `a OR b`.
    #[must_use]
    pub fn or(a: CompositeExpr, b: CompositeExpr) -> Self {
        CompositeExpr::Or(Box::new(a), Box::new(b))
    }

    /// `a ; b` (sequence).
    #[must_use]
    pub fn seq(a: CompositeExpr, b: CompositeExpr) -> Self {
        CompositeExpr::Seq(Box::new(a), Box::new(b))
    }

    /// `k × a` within the window.
    #[must_use]
    pub fn repeat(a: CompositeExpr, k: u32) -> Self {
        CompositeExpr::Repeat(Box::new(a), k)
    }

    fn primitives(&self, out: &mut Vec<SubscriptionId>) {
        match self {
            CompositeExpr::Primitive(s) => out.push(*s),
            CompositeExpr::And(a, b) | CompositeExpr::Or(a, b) | CompositeExpr::Seq(a, b) => {
                a.primitives(out);
                b.primitives(out);
            }
            CompositeExpr::Repeat(a, _) => a.primitives(out),
        }
    }
}

/// Mutable evaluation state mirroring an expression tree.
#[derive(Debug, Clone)]
struct NodeState {
    last_fired: Option<u64>,
    /// Recent firing times (only maintained below `Repeat` nodes).
    recent: Vec<u64>,
    children: Vec<NodeState>,
}

impl NodeState {
    fn for_expr(expr: &CompositeExpr) -> Self {
        let children = match expr {
            CompositeExpr::Primitive(_) => Vec::new(),
            CompositeExpr::And(a, b) | CompositeExpr::Or(a, b) | CompositeExpr::Seq(a, b) => {
                vec![NodeState::for_expr(a), NodeState::for_expr(b)]
            }
            CompositeExpr::Repeat(a, _) => vec![NodeState::for_expr(a)],
        };
        NodeState {
            last_fired: None,
            recent: Vec::new(),
            children,
        }
    }
}

struct Definition {
    id: CompositeId,
    expr: CompositeExpr,
    window: u64,
    state: NodeState,
}

/// Detects composite events over a stream of primitive match sets.
///
/// # Example
///
/// ```
/// use ens::composite::{CompositeDetector, CompositeExpr};
/// use ens::service::SubscriptionId;
///
/// let heat = SubscriptionId::new(0);
/// let dry = SubscriptionId::new(1);
/// let mut det = CompositeDetector::new();
/// // Fire when heat is followed by dryness within 10 ticks.
/// let fire_risk = det.register(
///     CompositeExpr::seq(
///         CompositeExpr::Primitive(heat),
///         CompositeExpr::Primitive(dry),
///     ),
///     10,
/// );
/// assert!(det.observe(&[heat], 1).is_empty());
/// assert_eq!(det.observe(&[dry], 5), vec![fire_risk]);
/// ```
#[derive(Default)]
pub struct CompositeDetector {
    defs: Vec<Definition>,
    next_id: u64,
}

impl CompositeDetector {
    /// An empty detector.
    #[must_use]
    pub fn new() -> Self {
        CompositeDetector::default()
    }

    /// Registers a composite definition with a time window (logical
    /// units, same clock as passed to [`CompositeDetector::observe`]).
    pub fn register(&mut self, expr: CompositeExpr, window: u64) -> CompositeId {
        let id = CompositeId(self.next_id);
        self.next_id += 1;
        let state = NodeState::for_expr(&expr);
        self.defs.push(Definition {
            id,
            expr,
            window,
            state,
        });
        id
    }

    /// Removes a definition.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownComposite`] for unknown ids.
    pub fn unregister(&mut self, id: CompositeId) -> Result<(), UnknownComposite> {
        let before = self.defs.len();
        self.defs.retain(|d| d.id != id);
        if self.defs.len() == before {
            return Err(UnknownComposite(id));
        }
        Ok(())
    }

    /// Number of registered definitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no definitions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// All primitive subscriptions referenced by a definition (useful to
    /// know which broker subscriptions must be kept alive).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownComposite`] for unknown ids.
    pub fn primitives(&self, id: CompositeId) -> Result<Vec<SubscriptionId>, UnknownComposite> {
        let def = self
            .defs
            .iter()
            .find(|d| d.id == id)
            .ok_or(UnknownComposite(id))?;
        let mut out = Vec::new();
        def.expr.primitives(&mut out);
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Feeds one observation: the subscriptions matched by an event at
    /// logical time `now`. Returns the composites that fire.
    ///
    /// Timestamps must be non-decreasing across calls; this is the
    /// "time and order of occurrence" clock of the paper's §1.
    pub fn observe(&mut self, matched: &[SubscriptionId], now: u64) -> Vec<CompositeId> {
        let mut fired = Vec::new();
        for def in &mut self.defs {
            if eval(&def.expr, &mut def.state, matched, now, def.window) {
                fired.push(def.id);
            }
        }
        fired
    }
}

impl std::fmt::Debug for CompositeDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeDetector")
            .field("definitions", &self.defs.len())
            .finish_non_exhaustive()
    }
}

/// Evaluates `expr` at `now`, updating `state`, and reports whether the
/// node fires at `now`.
fn eval(
    expr: &CompositeExpr,
    state: &mut NodeState,
    matched: &[SubscriptionId],
    now: u64,
    window: u64,
) -> bool {
    let fires = match expr {
        CompositeExpr::Primitive(s) => matched.contains(s),
        CompositeExpr::Or(a, b) => {
            let fa = eval(a, &mut state.children[0], matched, now, window);
            let fb = eval(b, &mut state.children[1], matched, now, window);
            fa || fb
        }
        CompositeExpr::And(a, b) => {
            let fa = eval(a, &mut state.children[0], matched, now, window);
            let fb = eval(b, &mut state.children[1], matched, now, window);
            let within = |t: Option<u64>| t.is_some_and(|t| now.saturating_sub(t) <= window);
            (fa && within(state.children[1].last_fired))
                || (fb && within(state.children[0].last_fired))
        }
        CompositeExpr::Seq(a, b) => {
            // Evaluate left first so "a then b in the same observation"
            // does not fire (strictly earlier is required).
            let a_last_before = state.children[0].last_fired;
            let _ = eval(a, &mut state.children[0], matched, now, window);
            let fb = eval(b, &mut state.children[1], matched, now, window);
            fb && a_last_before.is_some_and(|t| t < now && now - t <= window)
        }
        CompositeExpr::Repeat(a, k) => {
            let fa = eval(a, &mut state.children[0], matched, now, window);
            if fa {
                state.recent.push(now);
            }
            state.recent.retain(|t| now.saturating_sub(*t) <= window);
            fa && state.recent.len() as u32 >= *k
        }
    };
    if fires {
        state.last_fired = Some(now);
    }
    fires
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> SubscriptionId {
        SubscriptionId::new(n)
    }

    #[test]
    fn primitive_fires_on_match() {
        let mut det = CompositeDetector::new();
        let id = det.register(CompositeExpr::Primitive(s(1)), 5);
        assert!(det.observe(&[s(2)], 0).is_empty());
        assert_eq!(det.observe(&[s(1), s(2)], 1), vec![id]);
    }

    #[test]
    fn and_requires_both_within_window() {
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::and(
                CompositeExpr::Primitive(s(0)),
                CompositeExpr::Primitive(s(1)),
            ),
            5,
        );
        assert!(det.observe(&[s(0)], 0).is_empty());
        assert_eq!(det.observe(&[s(1)], 3), vec![id], "within window");
        assert!(det.observe(&[s(0)], 100).is_empty(), "window expired");
        // Simultaneous match fires too.
        assert_eq!(det.observe(&[s(0), s(1)], 200), vec![id]);
    }

    #[test]
    fn or_fires_on_either() {
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::or(
                CompositeExpr::Primitive(s(0)),
                CompositeExpr::Primitive(s(1)),
            ),
            5,
        );
        assert_eq!(det.observe(&[s(1)], 0), vec![id]);
        assert_eq!(det.observe(&[s(0)], 1), vec![id]);
        assert!(det.observe(&[s(2)], 2).is_empty());
    }

    #[test]
    fn seq_requires_strict_order() {
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::seq(
                CompositeExpr::Primitive(s(0)),
                CompositeExpr::Primitive(s(1)),
            ),
            10,
        );
        // b before a: nothing.
        assert!(det.observe(&[s(1)], 0).is_empty());
        assert!(det.observe(&[s(0)], 1).is_empty());
        // a then b within window: fires.
        assert_eq!(det.observe(&[s(1)], 5), vec![id]);
        // Same-instant a and b does NOT satisfy a-then-b.
        let mut det2 = CompositeDetector::new();
        let id2 = det2.register(
            CompositeExpr::seq(
                CompositeExpr::Primitive(s(0)),
                CompositeExpr::Primitive(s(1)),
            ),
            10,
        );
        assert!(det2.observe(&[s(0), s(1)], 7).is_empty());
        // But the pending `a` still enables a later b.
        assert_eq!(det2.observe(&[s(1)], 8), vec![id2]);
    }

    #[test]
    fn seq_window_expiry() {
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::seq(
                CompositeExpr::Primitive(s(0)),
                CompositeExpr::Primitive(s(1)),
            ),
            3,
        );
        det.observe(&[s(0)], 0);
        assert!(det.observe(&[s(1)], 10).is_empty(), "too late");
        det.observe(&[s(0)], 11);
        assert_eq!(det.observe(&[s(1)], 13), vec![id]);
    }

    #[test]
    fn nested_expressions() {
        // (heat AND dry) ; wind — a fire-weather sequence.
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::seq(
                CompositeExpr::and(
                    CompositeExpr::Primitive(s(0)),
                    CompositeExpr::Primitive(s(1)),
                ),
                CompositeExpr::Primitive(s(2)),
            ),
            100,
        );
        det.observe(&[s(0)], 1);
        det.observe(&[s(1)], 2); // AND fires at t=2
        assert_eq!(det.observe(&[s(2)], 3), vec![id]);
    }

    #[test]
    fn repeat_counts_occurrences_within_window() {
        let mut det = CompositeDetector::new();
        let id = det.register(CompositeExpr::repeat(CompositeExpr::Primitive(s(0)), 3), 10);
        assert!(det.observe(&[s(0)], 0).is_empty(), "1 of 3");
        assert!(det.observe(&[s(0)], 4).is_empty(), "2 of 3");
        assert_eq!(det.observe(&[s(0)], 8), vec![id], "3 within the window");
        // The window slides: the t=0 occurrence has expired by t=12,
        // but t=4/t=8/t=12 still make three.
        assert_eq!(det.observe(&[s(0)], 12), vec![id]);
        // After a long gap the count restarts.
        assert!(det.observe(&[s(0)], 100).is_empty());
        assert!(
            det.observe(&[s(2)], 101).is_empty(),
            "non-matching events don't count"
        );
        assert!(det.observe(&[s(0)], 102).is_empty(), "2 of 3");
        assert_eq!(det.observe(&[s(0)], 103), vec![id]);
    }

    #[test]
    fn repeat_composes_with_seq() {
        // Three gusts then a pressure drop.
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::seq(
                CompositeExpr::repeat(CompositeExpr::Primitive(s(0)), 3),
                CompositeExpr::Primitive(s(1)),
            ),
            20,
        );
        assert_eq!(det.primitives(id).unwrap(), vec![s(0), s(1)]);
        det.observe(&[s(0)], 1);
        det.observe(&[s(0)], 2);
        det.observe(&[s(0)], 3); // Repeat fires here
        assert_eq!(det.observe(&[s(1)], 10), vec![id]);
    }

    #[test]
    fn register_unregister() {
        let mut det = CompositeDetector::new();
        let a = det.register(CompositeExpr::Primitive(s(0)), 1);
        let b = det.register(CompositeExpr::Primitive(s(1)), 1);
        assert_eq!(det.len(), 2);
        assert_eq!(det.primitives(a).unwrap(), vec![s(0)]);
        det.unregister(a).unwrap();
        assert!(det.unregister(a).is_err());
        assert_eq!(det.len(), 1);
        assert_eq!(det.observe(&[s(1)], 0), vec![b]);
    }

    #[test]
    fn multiple_definitions_fire_independently() {
        let mut det = CompositeDetector::new();
        let a = det.register(CompositeExpr::Primitive(s(0)), 1);
        let b = det.register(CompositeExpr::Primitive(s(0)), 1);
        assert_eq!(det.observe(&[s(0)], 0), vec![a, b]);
    }
}
