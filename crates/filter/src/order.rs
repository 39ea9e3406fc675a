//! Value orders and search strategies inside a tree node.
//!
//! §4.1/§4.2 of the paper: within each node the edges (value subranges)
//! can be stored and scanned in one of eight orders — natural
//! ascending/descending, event-probability (Measure V1),
//! profile-probability (Measure V2) and combined event·profile
//! probability (Measure V3), each ascending or descending — or searched
//! with binary search on the natural order. Linear scans terminate early
//! using the lookup-table rule of Example 5: stop as soon as the current
//! edge's position in the defined order exceeds the position the
//! searched value would occupy.

use serde::{Deserialize, Serialize};

/// Scan direction for a [`ValueOrder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Smallest key first.
    Ascending,
    /// Largest key first.
    Descending,
}

/// The defined order of edges within a node (paper's `o_v`).
///
/// The paper's prototype supports each order "either descending or
/// ascending" — eight orders in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueOrder {
    /// The natural order implied by the domain.
    Natural(Direction),
    /// Measure V1: order by event-probability `Pe(x_i)`.
    EventProb(Direction),
    /// Measure V2: order by profile-probability `Pp(x_i)`.
    ProfileProb(Direction),
    /// Measure V3: order by `Pe(x_i) · Pp(x_i)`.
    Combined(Direction),
}

impl ValueOrder {
    /// All eight orders, in a stable enumeration (for sweeps).
    pub const ALL: [ValueOrder; 8] = [
        ValueOrder::Natural(Direction::Ascending),
        ValueOrder::Natural(Direction::Descending),
        ValueOrder::EventProb(Direction::Descending),
        ValueOrder::EventProb(Direction::Ascending),
        ValueOrder::ProfileProb(Direction::Descending),
        ValueOrder::ProfileProb(Direction::Ascending),
        ValueOrder::Combined(Direction::Descending),
        ValueOrder::Combined(Direction::Ascending),
    ];

    /// Whether this order requires an event distribution model.
    #[must_use]
    pub fn needs_event_model(self) -> bool {
        matches!(self, ValueOrder::EventProb(_) | ValueOrder::Combined(_))
    }

    /// A short label used by the experiment harness ("natural order
    /// search", "event order search", …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ValueOrder::Natural(Direction::Ascending) => "natural asc",
            ValueOrder::Natural(Direction::Descending) => "natural desc",
            ValueOrder::EventProb(Direction::Descending) => "event desc",
            ValueOrder::EventProb(Direction::Ascending) => "event asc",
            ValueOrder::ProfileProb(Direction::Descending) => "profile desc",
            ValueOrder::ProfileProb(Direction::Ascending) => "profile asc",
            ValueOrder::Combined(Direction::Descending) => "event*profile desc",
            ValueOrder::Combined(Direction::Ascending) => "event*profile asc",
        }
    }
}

impl Default for ValueOrder {
    fn default() -> Self {
        ValueOrder::Natural(Direction::Ascending)
    }
}

/// How a node's edges are searched.
///
/// `Linear` and `Binary` are the two strategies of the paper's prototype
/// (§4.2); `Interpolation` and `Hash` realise the outlook of §5
/// ("sensible strategies are … binary-, interpolation-, or hash-based
/// search within attribute-values").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Linear scan in the given defined order, with lookup-table early
    /// termination.
    Linear(ValueOrder),
    /// Binary search on the natural order (the strategy of the original
    /// tree algorithm [Gough & Smith]).
    Binary,
    /// Interpolation search on the natural order: probes positioned
    /// proportionally to the searched value within the node's key range.
    /// Excellent when subrange keys are evenly spread, degrades toward
    /// linear probing on skewed key layouts.
    Interpolation,
    /// Hash lookup for nodes whose edges are all single-value subranges
    /// (equality-dominated workloads): one operation per node, hit or
    /// miss. Nodes containing range edges fall back to binary search.
    Hash,
}

impl SearchStrategy {
    /// Whether this strategy requires an event distribution model.
    #[must_use]
    pub fn needs_event_model(self) -> bool {
        match self {
            SearchStrategy::Linear(o) => o.needs_event_model(),
            SearchStrategy::Binary | SearchStrategy::Interpolation | SearchStrategy::Hash => false,
        }
    }

    /// A short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SearchStrategy::Linear(o) => o.label(),
            SearchStrategy::Binary => "binary",
            SearchStrategy::Interpolation => "interpolation",
            SearchStrategy::Hash => "hash",
        }
    }
}

impl Default for SearchStrategy {
    fn default() -> Self {
        SearchStrategy::Linear(ValueOrder::default())
    }
}

/// Precomputed per-node search costs.
///
/// `hit_cost[i]` is the number of comparison operations to find edge `i`
/// (natural index, 1-based count); `miss_cost[g]` is the number of
/// operations after which the scan concludes absence for a value falling
/// in the gap with insertion index `g ∈ 0..=m` (`g` edges lie naturally
/// below the value). `visit` lists edge indices in the defined order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeOrdering {
    /// Edge indices in visit (defined) order.
    pub visit: Vec<u32>,
    /// Per-edge (natural index) operation count to locate it.
    pub hit_cost: Vec<u32>,
    /// Per-gap (insertion index `0..=m`) operation count to reject.
    pub miss_cost: Vec<u32>,
}

impl NodeOrdering {
    /// Computes the ordering for a node with `m` edges.
    ///
    /// `edge_pe`/`edge_pp` give the event/profile probability of each
    /// edge (natural order); `gap_pe` gives the event probability of
    /// each of the `m + 1` gap slots (zero-width gaps carry 0).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent.
    #[must_use]
    pub fn compute(
        strategy: SearchStrategy,
        edge_pe: &[f64],
        edge_pp: &[f64],
        gap_pe: &[f64],
    ) -> Self {
        // Without interval geometry interpolation and hash fall back to
        // binary; the tree builder uses `compute_with_geometry`.
        let strategy = match strategy {
            SearchStrategy::Interpolation | SearchStrategy::Hash => SearchStrategy::Binary,
            other => other,
        };
        let mut ordering = NodeOrdering::default();
        ordering.recompute(strategy, edge_pe, edge_pp, gap_pe, &[], 0);
        ordering
    }

    /// Computes the ordering with interval geometry available, enabling
    /// the geometry-dependent strategies (interpolation and hash).
    ///
    /// `edge_intervals` are the node's edges in natural order;
    /// `domain_size` bounds the trailing gap.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent.
    #[must_use]
    pub fn compute_with_geometry(
        strategy: SearchStrategy,
        edge_pe: &[f64],
        edge_pp: &[f64],
        gap_pe: &[f64],
        edge_intervals: &[ens_types::IndexInterval],
        domain_size: u64,
    ) -> Self {
        let mut ordering = NodeOrdering::default();
        ordering.recompute(
            strategy,
            edge_pe,
            edge_pp,
            gap_pe,
            edge_intervals,
            domain_size,
        );
        ordering
    }

    /// [`NodeOrdering::compute_with_geometry`] into this ordering's
    /// buffers, for a caller that orders many nodes one after another.
    /// Only interpolation and hash read `edge_intervals`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent.
    pub fn recompute(
        &mut self,
        strategy: SearchStrategy,
        edge_pe: &[f64],
        edge_pp: &[f64],
        gap_pe: &[f64],
        edge_intervals: &[ens_types::IndexInterval],
        domain_size: u64,
    ) {
        let m = edge_pe.len();
        assert_eq!(edge_pp.len(), m, "edge_pp length");
        assert_eq!(gap_pe.len(), m + 1, "gap_pe length");
        let geometric = matches!(
            strategy,
            SearchStrategy::Interpolation | SearchStrategy::Hash
        );
        assert!(
            !geometric || edge_intervals.len() == m,
            "edge_intervals length"
        );
        match strategy {
            SearchStrategy::Binary => self.binary(m),
            SearchStrategy::Linear(order) => self.linear(order, edge_pe, edge_pp, gap_pe),
            SearchStrategy::Interpolation => {
                let keys: Vec<u64> = edge_intervals
                    .iter()
                    .map(|iv| iv.lo() + (iv.len().saturating_sub(1)) / 2)
                    .collect();
                self.natural_visit(m);
                self.hit_cost.clear();
                let hits = keys.iter().map(|&k| interpolation_cost(&keys, k));
                self.hit_cost.extend(hits);
                self.miss_cost.clear();
                self.miss_cost.extend((0..=m).map(|g| {
                    let lo = g.checked_sub(1).map_or(0, |p| edge_intervals[p].hi());
                    let hi = edge_intervals.get(g).map_or(domain_size, |e| e.lo());
                    if hi <= lo {
                        1 // empty gap slot: cost never charged
                    } else {
                        interpolation_cost(&keys, (lo + hi) / 2)
                    }
                }));
            }
            SearchStrategy::Hash => {
                if m > 0 && edge_intervals.iter().all(|iv| iv.len() == 1) {
                    // Perfect-hashable node: every lookup is one probe.
                    self.natural_visit(m);
                    self.hit_cost.clear();
                    self.hit_cost.resize(m, 1);
                    self.miss_cost.clear();
                    self.miss_cost.resize(m + 1, 1);
                } else {
                    self.binary(m);
                }
            }
        }
    }

    fn natural_visit(&mut self, m: usize) {
        self.visit.clear();
        self.visit.extend(0..m as u32);
    }

    fn linear(&mut self, order: ValueOrder, edge_pe: &[f64], edge_pp: &[f64], gap_pe: &[f64]) {
        let m = edge_pe.len();
        // The sort key of an element: (primary, natural position). Gaps
        // use the fractional natural position g - 0.5 and their own
        // probabilities (Pp of a gap is 0 by definition of D0).
        let primary = |pe: f64, pp: f64, natural: f64| -> f64 {
            match order {
                ValueOrder::Natural(Direction::Ascending) => natural,
                ValueOrder::Natural(Direction::Descending) => -natural,
                ValueOrder::EventProb(Direction::Descending) => -pe,
                ValueOrder::EventProb(Direction::Ascending) => pe,
                ValueOrder::ProfileProb(Direction::Descending) => -pp,
                ValueOrder::ProfileProb(Direction::Ascending) => pp,
                ValueOrder::Combined(Direction::Descending) => -pe * pp,
                ValueOrder::Combined(Direction::Ascending) => pe * pp,
            }
        };
        let edge_key = |i: usize| (primary(edge_pe[i], edge_pp[i], i as f64), i as f64);
        let gap_key = |g: usize| (primary(gap_pe[g], 0.0, g as f64 - 0.5), g as f64 - 0.5);
        let key_lt =
            |a: (f64, f64), b: (f64, f64)| -> bool { a.0 < b.0 || (a.0 == b.0 && a.1 < b.1) };

        self.natural_visit(m);
        // `total_cmp` orders these keys as `<` does: they are finite,
        // and every key of one sort is the same expression of
        // non-negative masses or positions, so its zeros share a sign.
        // The natural position makes every key distinct, so an unstable
        // sort orders them as a stable one would.
        self.visit.sort_unstable_by(|&a, &b| {
            let (ka, kb) = (edge_key(a as usize), edge_key(b as usize));
            ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
        });
        self.hit_cost.clear();
        self.hit_cost.resize(m, 0);
        for (pos, &e) in self.visit.iter().enumerate() {
            self.hit_cost[e as usize] = pos as u32 + 1;
        }
        // Early-termination rule: a scan in the defined order stops at
        // the first element whose key exceeds the searched value's key,
        // i.e. after (#edges with key below the gap's key) + 1 visits,
        // capped at m when no such stop edge exists.
        self.miss_cost.clear();
        self.miss_cost.extend((0..=m).map(|g| {
            let gk = gap_key(g);
            let below = (0..m).filter(|&i| key_lt(edge_key(i), gk)).count();
            (below + 1).min(m.max(1)) as u32
        }));
    }

    fn binary(&mut self, m: usize) {
        self.natural_visit(m);
        self.hit_cost.clear();
        self.hit_cost.extend((0..m).map(|i| binary_hit_cost(m, i)));
        self.miss_cost.clear();
        self.miss_cost
            .extend((0..=m).map(|g| binary_miss_cost(m, g)));
    }
}

/// Comparisons a midpoint bisection over `m` sorted edges performs to
/// find edge `target`.
#[must_use]
pub fn binary_hit_cost(m: usize, target: usize) -> u32 {
    debug_assert!(target < m);
    let (mut lo, mut hi) = (0i64, m as i64 - 1);
    let mut ops = 0;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        ops += 1;
        match (target as i64).cmp(&mid) {
            std::cmp::Ordering::Equal => return ops,
            std::cmp::Ordering::Less => hi = mid - 1,
            std::cmp::Ordering::Greater => lo = mid + 1,
        }
    }
    ops
}

/// Probes an interpolation search over sorted `keys` performs to locate
/// `target` (or conclude absence). Each probe is positioned
/// proportionally to the target's offset within the remaining key range.
#[must_use]
pub fn interpolation_cost(keys: &[u64], target: u64) -> u32 {
    let mut lo = 0i64;
    let mut hi = keys.len() as i64 - 1;
    let mut ops = 0;
    while lo <= hi {
        let (klo, khi) = (keys[lo as usize], keys[hi as usize]);
        let probe = if khi == klo {
            lo
        } else {
            let t = target.clamp(klo, khi);
            lo + ((t - klo) as i64 * (hi - lo)) / (khi - klo) as i64
        };
        ops += 1;
        let k = keys[probe as usize];
        if k == target {
            return ops;
        }
        if target < k {
            hi = probe - 1;
        } else {
            lo = probe + 1;
        }
    }
    ops.max(1)
}

/// Comparisons a midpoint bisection over `m` sorted edges performs to
/// conclude absence of a value with insertion index `g` (the value lies
/// above edges `0..g` and below edges `g..m`).
#[must_use]
pub fn binary_miss_cost(m: usize, g: usize) -> u32 {
    let (mut lo, mut hi) = (0i64, m as i64 - 1);
    let mut ops = 0;
    while lo <= hi {
        let mid = (lo + hi) / 2;
        ops += 1;
        if mid < g as i64 {
            lo = mid + 1;
        } else {
            hi = mid - 1;
        }
    }
    ops.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_ascending_costs() {
        // Three edges; uniform probabilities are irrelevant here.
        let o = NodeOrdering::compute(
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
            &[0.1, 0.1, 0.1],
            &[1.0, 1.0, 1.0],
            &[0.0, 0.2, 0.0, 0.0],
        );
        assert_eq!(o.visit, vec![0, 1, 2]);
        assert_eq!(o.hit_cost, vec![1, 2, 3]);
        // Gap g: scan stops at edge g (g+1 ops), capped at m.
        assert_eq!(o.miss_cost, vec![1, 2, 3, 3]);
    }

    #[test]
    fn natural_descending_costs() {
        let o = NodeOrdering::compute(
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Descending)),
            &[0.1, 0.1, 0.1],
            &[1.0, 1.0, 1.0],
            &[0.0, 0.0, 0.0, 0.0],
        );
        assert_eq!(o.visit, vec![2, 1, 0]);
        assert_eq!(o.hit_cost, vec![3, 2, 1]);
        // Gap above all edges (g = 3) is rejected by the first visited
        // edge; gap below all (g = 0) needs the full scan.
        assert_eq!(o.miss_cost, vec![3, 3, 2, 1]);
    }

    #[test]
    fn event_order_reproduces_paper_example2() {
        // Subranges x1 (2%), x2 (1%), x3 (80%); gap between x1 and x2
        // carries 17%. Event-descending order must visit x3, x1, x2 and
        // reject the gap value after 2 operations (paper: r0 = 2).
        let o = NodeOrdering::compute(
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            &[0.02, 0.01, 0.80],
            &[1.0, 3.0, 4.0],
            &[0.0, 0.17, 0.0, 0.0],
        );
        assert_eq!(o.visit, vec![2, 0, 1]);
        assert_eq!(o.hit_cost, vec![2, 3, 1]);
        assert_eq!(o.miss_cost[1], 2, "gap ranks second by probability");
    }

    #[test]
    fn binary_reproduces_paper_example2() {
        let o = NodeOrdering::compute(
            SearchStrategy::Binary,
            &[0.02, 0.01, 0.80],
            &[0.0; 3],
            &[0.0; 4],
        );
        assert_eq!(o.hit_cost, vec![2, 1, 2], "middle found first");
        // E = 0.02*2 + 0.01*1 + 0.8*2 = 1.65 (paper).
        let e: f64 = [0.02, 0.01, 0.80]
            .iter()
            .zip(&o.hit_cost)
            .map(|(p, c)| p * f64::from(*c))
            .sum();
        assert!((e - 1.65).abs() < 1e-12);
        assert_eq!(o.miss_cost[1], 2, "paper: r0 = 2 for the 17% gap");
    }

    #[test]
    fn profile_order_sends_gaps_to_the_end() {
        let o = NodeOrdering::compute(
            SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
            &[0.5, 0.5],
            &[1.0, 2.0],
            &[0.1, 0.1, 0.1],
        );
        assert_eq!(o.visit, vec![1, 0]);
        // Gaps have Pp = 0 < every edge's Pp: full scan of m edges.
        assert_eq!(o.miss_cost, vec![2, 2, 2]);
    }

    #[test]
    fn combined_order_multiplies() {
        let o = NodeOrdering::compute(
            SearchStrategy::Linear(ValueOrder::Combined(Direction::Descending)),
            &[0.9, 0.1],
            &[0.1, 1.0],
            &[0.0, 0.0, 0.0],
        );
        // Keys: 0.09 vs 0.10 -> edge 1 first.
        assert_eq!(o.visit, vec![1, 0]);
    }

    #[test]
    fn ties_break_naturally() {
        let o = NodeOrdering::compute(
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            &[0.3, 0.3, 0.3],
            &[1.0; 3],
            &[0.0; 4],
        );
        assert_eq!(o.visit, vec![0, 1, 2]);
    }

    #[test]
    fn binary_costs_bounded_by_log() {
        for m in 1..=64usize {
            let bound = (m as f64).log2().floor() as u32 + 1;
            for i in 0..m {
                assert!(binary_hit_cost(m, i) <= bound, "hit m={m} i={i}");
            }
            for g in 0..=m {
                assert!(binary_miss_cost(m, g) <= bound, "miss m={m} g={g}");
                assert!(binary_miss_cost(m, g) >= 1);
            }
        }
    }

    #[test]
    fn single_edge_node() {
        let o = NodeOrdering::compute(
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
            &[1.0],
            &[1.0],
            &[0.0, 0.0],
        );
        assert_eq!(o.hit_cost, vec![1]);
        assert_eq!(o.miss_cost, vec![1, 1]);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = ValueOrder::ALL.iter().map(|o| o.label()).collect();
        labels.push(SearchStrategy::Binary.label());
        labels.push(SearchStrategy::Interpolation.label());
        labels.push(SearchStrategy::Hash.label());
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn interpolation_cost_on_even_keys_is_one_probe() {
        // Evenly spaced keys: interpolation lands exactly on the target.
        let keys: Vec<u64> = (0..32).map(|i| i * 10).collect();
        for (i, k) in keys.iter().enumerate() {
            let c = interpolation_cost(&keys, *k);
            assert!(c <= 2, "key {i}: {c} probes");
        }
    }

    #[test]
    fn interpolation_cost_terminates_on_skewed_keys() {
        let keys = [0u64, 1, 2, 3, 1000];
        for target in [0u64, 2, 500, 999, 1000, 2000] {
            let c = interpolation_cost(&keys, target);
            assert!(c >= 1 && c <= keys.len() as u32, "target {target}: {c}");
        }
        assert_eq!(interpolation_cost(&[7], 7), 1);
        assert_eq!(interpolation_cost(&[7], 3), 1);
    }

    #[test]
    fn interpolation_geometry_ordering() {
        use ens_types::IndexInterval;
        let intervals = [
            IndexInterval::new(0, 10),
            IndexInterval::new(20, 30),
            IndexInterval::new(40, 50),
        ];
        let o = NodeOrdering::compute_with_geometry(
            SearchStrategy::Interpolation,
            &[0.1; 3],
            &[1.0; 3],
            &[0.0; 4],
            &intervals,
            100,
        );
        // Evenly spaced edges: every hit within 2 probes.
        assert!(o.hit_cost.iter().all(|c| *c <= 2), "{:?}", o.hit_cost);
        assert!(o.miss_cost.iter().all(|c| *c >= 1 && *c <= 3));
    }

    #[test]
    fn hash_ordering_for_point_nodes() {
        use ens_types::IndexInterval;
        let points = [
            IndexInterval::point(3),
            IndexInterval::point(9),
            IndexInterval::point(40),
        ];
        let o = NodeOrdering::compute_with_geometry(
            SearchStrategy::Hash,
            &[0.1; 3],
            &[1.0; 3],
            &[0.0; 4],
            &points,
            100,
        );
        assert_eq!(o.hit_cost, vec![1, 1, 1]);
        assert_eq!(o.miss_cost, vec![1; 4]);
        // A range edge forces the binary fallback.
        let mixed = [IndexInterval::point(3), IndexInterval::new(10, 20)];
        let o = NodeOrdering::compute_with_geometry(
            SearchStrategy::Hash,
            &[0.1; 2],
            &[1.0; 2],
            &[0.0; 3],
            &mixed,
            100,
        );
        assert_eq!(o.hit_cost, vec![1, 2], "binary fallback costs");
    }

    #[test]
    fn needs_event_model_flags() {
        assert!(ValueOrder::EventProb(Direction::Descending).needs_event_model());
        assert!(ValueOrder::Combined(Direction::Ascending).needs_event_model());
        assert!(!ValueOrder::Natural(Direction::Ascending).needs_event_model());
        assert!(!ValueOrder::ProfileProb(Direction::Descending).needs_event_model());
        assert!(!SearchStrategy::Binary.needs_event_model());
    }
}
