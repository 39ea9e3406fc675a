//! The profile tree: construction and event matching.
//!
//! From a profile set a deterministic matching structure of height `n`
//! (one level per attribute) is built, following Gough & Smith's tree
//! algorithm as described in §3 of the paper. Each inner node tests one
//! attribute; its edges are the elementary value subranges referenced by
//! the profiles alive on that branch, merged where adjacent subranges
//! select identical profile sets (this reproduces the trees of Fig. 1
//! and Fig. 2). Don't-care profiles flow down every edge and also down a
//! dedicated `(*)`-edge (`*` when a node has no specific edges at all).
//!
//! Matching an event follows a single path; the number of comparison
//! operations per node is governed by the configured [`SearchStrategy`]
//! and recorded in the [`MatchScratch`].

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use ens_dist::{DistOverDomain, JointDist};
use ens_types::{AttrId, IndexInterval, IndexedEvent, ProfileId, ProfileSet, Schema};
use serde::{Deserialize, Serialize};

use crate::dfsa::{Dfsa, Next};
use crate::order::{NodeOrdering, SearchStrategy, ValueOrder};
use crate::persist::{self, ByteReader, ByteWriter, PersistError};
use crate::scratch::{MatchScratch, Matcher};
use crate::selectivity::AttributeMeasure;
use crate::subrange::AttributePartition;
use crate::{Direction, FilterError};

/// How the tree's levels (attributes) are ordered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum AttributeOrder {
    /// Schema declaration order (the paper's "natural order … according
    /// to their index-number").
    #[default]
    Natural,
    /// An explicit permutation of all schema attributes.
    Explicit(Vec<AttrId>),
    /// Order by an attribute-selectivity measure (A1–A3). `Descending`
    /// puts the most selective attribute at the root (the paper's
    /// recommended direction); `Ascending` is its worst case.
    Selectivity {
        /// The measure to rank attributes by.
        measure: AttributeMeasure,
        /// Rank direction.
        direction: Direction,
    },
}

/// Configuration of a [`ProfileTree`].
///
/// # Example
///
/// ```
/// use ens_filter::{TreeConfig, SearchStrategy, ValueOrder, Direction};
///
/// let config = TreeConfig {
///     search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
///     ..TreeConfig::default()
/// };
/// assert!(config.search.needs_event_model());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(default)]
pub struct TreeConfig {
    /// Attribute (level) order.
    pub attribute_order: AttributeOrder,
    /// Per-node edge search strategy.
    pub search: SearchStrategy,
    /// Event distribution model (one marginal per schema attribute).
    /// Required by distribution-dependent orders (V1/V3, A2/A3) and
    /// optional otherwise. It is checked against the schema either way,
    /// but a tree keeps it only if [`TreeConfig::uses_event_model`]: the
    /// [`ProfileTree::config`] of any other shape holds `None`.
    pub event_model: Option<JointDist>,
    /// Ablation: disable the lookup-table early-termination rule of
    /// §4.2/Example 5 for linear scans — a miss then costs a full node
    /// scan. Binary search is unaffected.
    pub disable_early_termination: bool,
    /// Ablation: keep elementary subranges unmerged instead of
    /// coalescing adjacent cells with identical profile sets (the
    /// merging that produces the compact Fig. 1/Fig. 2 edges).
    pub disable_cell_merging: bool,
    /// Optional per-profile priority weights (indexed by profile id).
    /// Weights scale each profile's contribution to the profile
    /// distribution `Pp`, so the V2/V3 orderings serve high-priority
    /// subscriptions first (the paper's "faster notifications for
    /// profiles with high priority", §4.3). `None` weights every profile
    /// equally.
    pub profile_weights: Option<Vec<f64>>,
}

impl TreeConfig {
    /// Whether the tree this configuration compiles depends on
    /// [`TreeConfig::event_model`] at all: a V1/V3 edge order or an
    /// A2/A3 attribute order does, the natural and profile-weighted
    /// orders and binary search do not — recompiling those under
    /// another model yields the same tree.
    #[must_use]
    pub fn uses_event_model(&self) -> bool {
        self.search.needs_event_model()
            || matches!(
                &self.attribute_order,
                AttributeOrder::Selectivity { measure, .. } if measure.needs_event_model()
            )
    }

    /// What a tree keeps of this configuration: all of it, less an
    /// event model its shape does not read.
    fn kept(&self) -> TreeConfig {
        let read = self.uses_event_model();
        TreeConfig {
            attribute_order: self.attribute_order.clone(),
            search: self.search,
            event_model: self.event_model.as_ref().filter(|_| read).cloned(),
            disable_early_termination: self.disable_early_termination,
            disable_cell_merging: self.disable_cell_merging,
            profile_weights: self.profile_weights.clone(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeRef {
    Inner(Box<Node>),
    /// A leaf's profiles: list `l` of the tree's [`LeafPool`].
    Leaf(u32),
    /// A leaf that notifies no profile.
    Empty,
}

/// The distinct non-empty leaf lists of a tree, each strictly
/// ascending, in one CSR arena: list `l` is `ids[off[l]..off[l + 1]]`.
/// The tree and its automaton share it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LeafPool {
    pub(crate) off: Vec<u32>,
    pub(crate) ids: Vec<ProfileId>,
}

impl Default for LeafPool {
    fn default() -> Self {
        LeafPool {
            off: vec![0],
            ids: Vec::new(),
        }
    }
}

impl LeafPool {
    /// Number of lists.
    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// List `l`.
    pub(crate) fn get(&self, l: u32) -> &[ProfileId] {
        &self.ids[self.off[l as usize] as usize..self.off[l as usize + 1] as usize]
    }

    fn push(&mut self, ids: &[ProfileId]) -> u32 {
        self.ids.extend_from_slice(ids);
        self.off.push(self.ids.len() as u32);
        (self.off.len() - 2) as u32
    }

    /// The pool at its exact size: it lives as long as its tree.
    fn shrunk(mut self) -> Arc<Self> {
        self.off.shrink_to_fit();
        self.ids.shrink_to_fit();
        Arc::new(self)
    }
}

/// Builds a [`LeafPool`] that holds each distinct list once: a list is
/// looked up by a hash of its whole contents and compared with the
/// lists of that hash. The default hasher stays: the lists come from
/// subscriptions and checkpoints, input from outside the process.
#[derive(Default)]
struct LeafInterner {
    pool: LeafPool,
    /// Hash -> the last list with it; `earlier[l]` is the list before
    /// `l` with `l`'s hash, or `u32::MAX`.
    last: HashMap<u64, u32>,
    earlier: Vec<u32>,
}

impl LeafInterner {
    /// The leaf holding `ids`, which are strictly ascending.
    fn intern(&mut self, ids: &[ProfileId]) -> NodeRef {
        if ids.is_empty() {
            return NodeRef::Empty;
        }
        let hash = self.last.hasher().hash_one(ids);
        let head = self.last.get(&hash).copied().unwrap_or(u32::MAX);
        let mut l = head;
        while l != u32::MAX {
            if self.pool.get(l) == ids {
                return NodeRef::Leaf(l);
            }
            l = self.earlier[l as usize];
        }
        let l = self.pool.push(ids);
        self.earlier.push(head);
        self.last.insert(hash, l);
        NodeRef::Leaf(l)
    }
}

impl NodeRef {
    /// `f` summed over this node and every node below it.
    fn sum(&self, f: &impl Fn(&NodeRef) -> usize) -> usize {
        let below = match self {
            NodeRef::Inner(node) => node.children().map(|child| child.sum(f)).sum(),
            NodeRef::Leaf(_) | NodeRef::Empty => 0,
        };
        f(self) + below
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Node {
    pub(crate) attr: AttrId,
    /// Edges in natural (ascending interval) order.
    pub(crate) edges: Vec<Edge>,
    pub(crate) ordering: NodeOrdering,
    pub(crate) star: Star,
}

impl Node {
    /// The star edge's child, if any, then the edges' children.
    fn children(&self) -> impl Iterator<Item = &NodeRef> {
        let star = match &self.star {
            Star::None => None,
            Star::All(child) | Star::Else(child) => Some(&**child),
        };
        star.into_iter().chain(self.edges.iter().map(|e| &e.child))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Edge {
    pub(crate) interval: IndexInterval,
    pub(crate) child: NodeRef,
}

/// Don't-care continuation of a node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Star {
    /// No don't-care profiles: values outside every edge are rejected.
    None,
    /// `*`: the node has no specific edges; every value passes with one
    /// operation.
    All(Box<NodeRef>),
    /// `(*)`: taken after the specific edges have been excluded, at one
    /// additional operation.
    Else(Box<NodeRef>),
}

/// The distribution-aware profile tree (the paper's core structure).
///
/// # Example
///
/// ```
/// use ens_filter::{Matcher, ProfileTree, TreeConfig};
/// use ens_types::{Schema, Domain, Predicate, ProfileSet, Event};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder()
///     .attribute("temperature", Domain::int(-30, 50))?
///     .attribute("humidity", Domain::int(0, 100))?
///     .build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| {
///     b.predicate("temperature", Predicate::ge(35))?
///         .predicate("humidity", Predicate::ge(90))
/// })?;
/// let tree = ProfileTree::build(&ps, &TreeConfig::default())?;
/// let hot = Event::builder(&schema)
///     .value("temperature", 40)?
///     .value("humidity", 95)?
///     .build();
/// assert!(tree.match_event(&schema, &hot)?.is_match());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTree {
    header: TreeHeader,
    root: NodeRef,
    leaves: Arc<LeafPool>,
}

/// What a tree is besides its nodes and leaves: what it was built for
/// and how. A [`FilterSnapshot`](crate::FilterSnapshot) keeps it beside
/// the automaton, from which the nodes can be raised again.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TreeHeader {
    pub(crate) schema: Arc<Schema>,
    pub(crate) config: TreeConfig,
    pub(crate) attribute_order: Vec<AttrId>,
    pub(crate) profile_count: usize,
}

impl TreeHeader {
    /// Writes the head of the tree section: schema and config (the
    /// event model with it, if the shape reads one) through the serde
    /// codec, an empty partitions section and the profile count.
    fn encode(&self, w: &mut ByteWriter) {
        w.serde(self.schema.as_ref());
        w.serde(&self.config);
        w.serde(&self.attribute_order);
        w.seq_len(0);
        w.u64(self.profile_count as u64);
    }
}

impl ProfileTree {
    /// Builds the tree for `profiles` under `config`.
    ///
    /// The tree keeps `config` less an event model its shape does not
    /// read ([`TreeConfig::uses_event_model`]); the model is checked
    /// against the schema all the same. What only the build reads —
    /// the global attribute partitions of a selectivity order or of the
    /// merging ablation — is dropped with it.
    ///
    /// # Errors
    ///
    /// * [`FilterError::MissingDistribution`] if a distribution-dependent
    ///   order is configured without an event model;
    /// * [`FilterError::ModelMismatch`] if the event model's arity or
    ///   domain sizes disagree with the schema;
    /// * predicate lowering errors from the data model.
    pub fn build(profiles: &ProfileSet, config: &TreeConfig) -> Result<Self, FilterError> {
        let schema = Arc::new(profiles.schema().clone());

        // Validate the event model; its per-point tables are borrowed
        // for the build and, if the shape reads them, held once in the
        // tree's copy of `config`.
        let marginals = match &config.event_model {
            Some(joint) => {
                crate::cost::check_model(&schema, joint)?;
                Some(joint.marginals())
            }
            None => None,
        };
        let marginals = marginals.filter(|_| config.uses_event_model());
        if config.search.needs_event_model() && marginals.is_none() {
            return Err(FilterError::MissingDistribution {
                needed_by: format!("search strategy `{}`", config.search.label()),
            });
        }
        if let Some(w) = &config.profile_weights {
            if w.len() != profiles.len() {
                return Err(FilterError::ModelMismatch {
                    message: format!(
                        "{} profile weights for {} profiles",
                        w.len(),
                        profiles.len()
                    ),
                });
            }
            if w.iter().any(|x| !x.is_finite() || *x <= 0.0) {
                return Err(FilterError::ModelMismatch {
                    message: "profile weights must be finite and positive".into(),
                });
            }
        }

        // Global per-attribute partitions: the scaffolding of a
        // selectivity order and of the merging ablation, nothing else.
        let partitions = if config.disable_cell_merging
            || matches!(config.attribute_order, AttributeOrder::Selectivity { .. })
        {
            let build = |(id, a): (AttrId, &ens_types::Attribute)| {
                AttributePartition::build(profiles.iter(), id, a.domain())
            };
            schema.iter().map(build).collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };

        // Resolve the attribute order.
        let attribute_order = match &config.attribute_order {
            AttributeOrder::Natural => schema.ids().collect(),
            AttributeOrder::Explicit(order) => {
                let mut seen = vec![false; schema.len()];
                for id in order {
                    if id.index() >= schema.len() || seen[id.index()] {
                        return Err(FilterError::ModelMismatch {
                            message: format!("explicit order is not a permutation (at {id})"),
                        });
                    }
                    seen[id.index()] = true;
                }
                if order.len() != schema.len() {
                    return Err(FilterError::ModelMismatch {
                        message: "explicit order must list every attribute".into(),
                    });
                }
                order.clone()
            }
            AttributeOrder::Selectivity { measure, direction } => {
                crate::selectivity::order_attributes(
                    *measure,
                    *direction,
                    profiles,
                    &partitions,
                    marginals,
                    config.search,
                )?
            }
        };

        let alive: Vec<ProfileId> = profiles.iter().map(ens_types::Profile::id).collect();
        // For the merging ablation every node keeps the global cut
        // points instead of re-decomposing per branch.
        let global_cuts: Option<Vec<Vec<u64>>> = config.disable_cell_merging.then(|| {
            partitions
                .iter()
                .map(|p| {
                    let mut cuts: Vec<u64> = p.cells().iter().map(|c| c.interval().lo()).collect();
                    cuts.push(p.domain_size());
                    cuts
                })
                .collect()
        });
        let mut builder = TreeBuilder {
            profiles,
            schema: schema.as_ref(),
            order: &attribute_order,
            marginals,
            strategy: config.search,
            early_termination: !config.disable_early_termination,
            global_cuts,
            weights: config.profile_weights.clone(),
            leaves: LeafInterner::default(),
            leaf: Vec::new(),
        };
        let root = builder.build_node(&alive, 0)?;
        let leaves = builder.leaves.pool.shrunk();

        Ok(ProfileTree {
            header: TreeHeader {
                schema,
                config: config.kept(),
                attribute_order,
                profile_count: profiles.len(),
            },
            root,
            leaves,
        })
    }

    /// The tree `dfsa` was lowered from, given its header: lowering
    /// keeps, beside the transitions, which of them are edges and every
    /// node ordering the codec does not derive, so nothing is lost.
    pub(crate) fn raise(dfsa: &Dfsa, header: TreeHeader) -> Self {
        let ctx = OrderCtx::new(&header);
        let root = raise_node(dfsa, dfsa.root(), &ctx);
        ProfileTree {
            header,
            root,
            leaves: Arc::clone(dfsa.leaves()),
        }
    }

    pub(crate) fn header(&self) -> &TreeHeader {
        &self.header
    }

    /// The tree less its nodes and leaves.
    pub(crate) fn into_header(self) -> TreeHeader {
        self.header
    }

    /// The schema this tree was built for.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.header.schema.as_ref()
    }

    /// The configuration the tree was built with.
    #[must_use]
    pub fn config(&self) -> &TreeConfig {
        &self.header.config
    }

    /// The resolved attribute order: `attribute_order()[k]` is tested at
    /// level `k`.
    #[must_use]
    pub fn attribute_order(&self) -> &[AttrId] {
        &self.header.attribute_order
    }

    /// Number of profiles indexed.
    #[must_use]
    pub fn profile_count(&self) -> usize {
        self.header.profile_count
    }

    pub(crate) fn root(&self) -> &NodeRef {
        &self.root
    }

    /// The leaf lists [`NodeRef::Leaf`] indexes.
    pub(crate) fn leaves(&self) -> &Arc<LeafPool> {
        &self.leaves
    }

    fn walk_indexed(
        &self,
        node: &NodeRef,
        event: &IndexedEvent,
        level: usize,
        out: &mut MatchScratch,
    ) {
        let node = match node {
            NodeRef::Leaf(l) => {
                out.profiles.extend_from_slice(self.leaves.get(*l));
                return;
            }
            NodeRef::Empty => return,
            NodeRef::Inner(n) => n,
        };

        // A missing attribute satisfies only don't-care predicates: the
        // event descends the star edge (if any) without scanning.
        let Some(idx) = event.get(node.attr) else {
            match &node.star {
                Star::None => return,
                Star::All(child) | Star::Else(child) => {
                    out.ops += 1;
                    out.per_level[level] += 1;
                    return self.walk_indexed(child, event, level + 1, out);
                }
            }
        };

        if node.edges.is_empty() {
            // `*` edge: all values pass at one operation. So they do on
            // an `Else` star without edges — a node whose specific
            // profiles all admit no value — where the don't-care
            // profiles must still be reached.
            if let Star::All(child) | Star::Else(child) = &node.star {
                out.ops += 1;
                out.per_level[level] += 1;
                return self.walk_indexed(child, event, level + 1, out);
            }
            return;
        }

        // Locate the edge containing `idx` — the lookup table of
        // Example 5, which maps a value to its natural slot without
        // counting as filter operations.
        let g = node.edges.partition_point(|e| e.interval.hi() <= idx);
        let hit = node.edges.get(g).is_some_and(|e| e.interval.contains(idx));

        let budget = u64::from(if hit {
            node.ordering.hit_cost[g]
        } else {
            node.ordering.miss_cost[g]
        });
        let (cost, found) = if matches!(self.config().search, SearchStrategy::Linear(_)) {
            // Execute the configured scan for real: visit the edges in
            // the defined order, one containment test per visited edge,
            // stopping on the hit or at the lookup-table bound on a
            // miss. The measured wall-clock therefore tracks the
            // counted operations — the property the distribution-based
            // orderings (and the self-tuning loop on top of them)
            // optimise.
            let mut executed = 0u64;
            let mut found = None;
            for &e in &node.ordering.visit[..budget as usize] {
                executed += 1;
                let edge = &node.edges[e as usize];
                if edge.interval.contains(idx) {
                    found = Some(&edge.child);
                    break;
                }
            }
            debug_assert_eq!(executed, budget, "scan agrees with the cost table");
            (executed, found)
        } else {
            // Binary / interpolation / hash search: the
            // `partition_point` above is the executed probe sequence;
            // operations are charged from the precomputed ordering.
            (budget, None)
        };

        out.ops += cost;
        out.per_level[level] += cost;
        if hit {
            let child = found.unwrap_or(&node.edges[g].child);
            return self.walk_indexed(child, event, level + 1, out);
        }

        // Miss: the (bounded) scan concluded absence; fall to `(*)`.
        if let Star::Else(child) = &node.star {
            out.ops += 1;
            out.per_level[level] += 1;
            self.walk_indexed(child, event, level + 1, out);
        }
    }

    /// Renders the tree in the style of the paper's Fig. 1: one line per
    /// edge, labelled with the attribute name and the inclusive value
    /// range (`*` for all-values edges, `(*)` for the else edge), leaves
    /// listing the matched profiles.
    ///
    /// ```text
    /// a1 [30, 34] -> a2 [90, 100] -> (leaf) {p2, p5}
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        fn label(schema: &Schema, attr: AttrId, interval: &IndexInterval) -> String {
            let domain = schema.attribute(attr).domain();
            let name = schema.attribute(attr).name();
            if interval.len() == 1 {
                format!("{name} = {}", domain.value_at(interval.lo()))
            } else {
                format!(
                    "{name} in [{}, {}]",
                    domain.value_at(interval.lo()),
                    domain.value_at(interval.hi() - 1)
                )
            }
        }
        fn leaf_text(ids: &[ProfileId]) -> String {
            let names: Vec<String> = ids.iter().map(ToString::to_string).collect();
            format!("{{{}}}", names.join(", "))
        }
        fn walk(tree: &ProfileTree, node: &NodeRef, indent: usize, out: &mut String) {
            let (schema, pad) = (tree.schema(), "  ".repeat(indent));
            match node {
                NodeRef::Leaf(l) => {
                    out.push_str(&format!("{pad}=> {}\n", leaf_text(tree.leaves.get(*l))));
                }
                NodeRef::Empty => out.push_str(&format!("{pad}=> {}\n", leaf_text(&[]))),
                NodeRef::Inner(n) => {
                    let name = schema.attribute(n.attr).name();
                    for e in &n.edges {
                        out.push_str(&format!("{pad}{}\n", label(schema, n.attr, &e.interval)));
                        walk(tree, &e.child, indent + 1, out);
                    }
                    match &n.star {
                        Star::None => {}
                        Star::All(child) => {
                            out.push_str(&format!("{pad}{name} = *\n"));
                            walk(tree, child, indent + 1, out);
                        }
                        Star::Else(child) => {
                            out.push_str(&format!("{pad}{name} = (*)\n"));
                            walk(tree, child, indent + 1, out);
                        }
                    }
                }
            }
        }
        let mut out = String::new();
        walk(self, &self.root, 0, &mut out);
        out
    }

    /// Number of inner nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.root
            .sum(&|n| usize::from(matches!(n, NodeRef::Inner(_))))
    }

    /// Number of edges (including `*`/`(*)` edges).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.root.sum(&|n| match n {
            NodeRef::Inner(node) => node.children().count(),
            NodeRef::Leaf(_) | NodeRef::Empty => 0,
        })
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.root
            .sum(&|n| usize::from(!matches!(n, NodeRef::Inner(_))))
    }
}

impl Matcher for ProfileTree {
    /// One tree walk with operation counting (total and per level,
    /// level = position in [`ProfileTree::attribute_order`]), writing
    /// into caller-owned buffers.
    fn match_into(&self, event: &IndexedEvent, scratch: &mut MatchScratch) {
        scratch.reset(self.attribute_order().len());
        self.walk_indexed(&self.root, event, 0, scratch);
        scratch.profiles.sort_unstable();
        scratch.profiles.dedup();
    }
}

struct TreeBuilder<'a> {
    profiles: &'a ProfileSet,
    schema: &'a Schema,
    order: &'a [AttrId],
    marginals: Option<&'a [DistOverDomain]>,
    strategy: SearchStrategy,
    early_termination: bool,
    /// `Some` when cell merging is ablated: per-attribute global cut
    /// points forced into every node's decomposition.
    global_cuts: Option<Vec<Vec<u64>>>,
    /// Per-profile priority weights (id-indexed), defaulting to 1.
    weights: Option<Vec<f64>>,
    leaves: LeafInterner,
    /// The leaf being made, sorted here before it is interned.
    leaf: Vec<ProfileId>,
}

impl TreeBuilder<'_> {
    /// Total priority mass of a set of profiles (1 per profile when no
    /// weights are configured).
    fn profile_mass(&self, ids: &[ProfileId]) -> f64 {
        match &self.weights {
            None => ids.len() as f64,
            Some(w) => ids.iter().map(|id| w[id.index()]).sum(),
        }
    }

    fn build_node(&mut self, alive: &[ProfileId], level: usize) -> Result<NodeRef, FilterError> {
        if alive.is_empty() {
            return Ok(NodeRef::Empty);
        }
        if level == self.order.len() {
            self.leaf.clear();
            self.leaf.extend_from_slice(alive);
            self.leaf.sort_unstable();
            return Ok(self.leaves.intern(&self.leaf));
        }
        let attr = self.order[level];
        let domain = self.schema.attribute(attr).domain();

        // Alive ids are the set's own.
        let (dont_care, specific): (Vec<ProfileId>, Vec<ProfileId>) =
            alive.iter().partition(|id| {
                let profile = self.profiles.get(**id);
                profile.is_some_and(|p| p.predicate(attr).is_dont_care())
            });

        if specific.is_empty() {
            // All alive profiles ignore this attribute: a single `*`
            // edge.
            let child = self.build_node(alive, level + 1)?;
            return Ok(NodeRef::Inner(Box::new(Node {
                attr,
                edges: Vec::new(),
                ordering: star_ordering(),
                star: Star::All(Box::new(child)),
            })));
        }

        // The star subtree is built first, so leaves enter the pool in
        // the order the node codec writes them.
        let star = if dont_care.is_empty() {
            Star::None
        } else {
            Star::Else(Box::new(self.build_node(&dont_care, level + 1)?))
        };

        // Per-branch elementary decomposition over the *specific*
        // profiles alive here (merging makes the Fig. 2 edges like
        // `[30, 100)` appear when profiles collapse).
        let spec_profiles = specific.iter().filter_map(|id| self.profiles.get(*id));
        let part = match &self.global_cuts {
            None => AttributePartition::build(spec_profiles, attr, domain)?,
            Some(cuts) => AttributePartition::build_with_cuts(
                spec_profiles,
                attr,
                domain,
                false,
                &cuts[attr.index()],
            )?,
        };

        let mut edges: Vec<Edge> = Vec::new();
        let mut edge_pe: Vec<f64> = Vec::new();
        let mut edge_pp: Vec<f64> = Vec::new();
        let mut gap_pe: Vec<f64> = vec![0.0];
        let marginal = self.marginals.map(|m| &m[attr.index()]);
        let mut child_ids: Vec<ProfileId> = Vec::new();
        for cell in part.cells() {
            if cell.is_zero() {
                let pe = marginal.map_or(0.0, |m| m.mass_of(cell.interval()));
                gap_pe[edges.len()] += pe;
                continue;
            }
            child_ids.clear();
            child_ids.extend_from_slice(cell.profiles());
            child_ids.extend_from_slice(&dont_care);
            let child = self.build_node(&child_ids, level + 1)?;
            edge_pe.push(marginal.map_or(0.0, |m| m.mass_of(cell.interval())));
            edge_pp.push(self.profile_mass(cell.profiles()) / self.profile_mass(&specific));
            edges.push(Edge {
                interval: *cell.interval(),
                child,
            });
            gap_pe.push(0.0);
        }

        let edge_intervals: Vec<IndexInterval> = edges.iter().map(|e| e.interval).collect();
        let mut ordering = NodeOrdering::compute_with_geometry(
            self.strategy,
            &edge_pe,
            &edge_pp,
            &gap_pe,
            &edge_intervals,
            domain.size(),
        );
        if !self.early_termination && matches!(self.strategy, SearchStrategy::Linear(_)) {
            // Ablation: without the lookup table every miss scans the
            // whole node.
            let full = edges.len().max(1) as u32;
            for mc in &mut ordering.miss_cost {
                *mc = full;
            }
        }
        Ok(NodeRef::Inner(Box::new(Node {
            attr,
            edges,
            ordering,
            star,
        })))
    }
}

/// Depth limit for decoded tree nodes. A well-formed tree is at most
/// one level per schema attribute; anything deeper is corrupt input.
const MAX_TREE_DEPTH: usize = 4096;

/// Appends the tree section of a checkpoint for the tree `dfsa` was
/// lowered from, read off the automaton: the header, the leaf pool,
/// then the nodes, depth-first with the star child before the edges. A
/// node's ordering is written only where the decoder cannot derive it,
/// and the automaton keeps exactly those.
pub(crate) fn encode_section(header: &TreeHeader, dfsa: &Dfsa, w: &mut ByteWriter) {
    header.encode(w);
    // Don't-care profiles are replicated into every leaf below the node
    // that splits them off, and the pool holds the lists in the order
    // the depth-first walk meets them: a list is stored as its
    // symmetric difference against the one before it.
    let leaves = dfsa.leaves();
    w.seq_len(leaves.len());
    let mut prev: Vec<ProfileId> = Vec::new();
    for l in 0..leaves.len() as u32 {
        persist::write_id_diff(w, &mut prev, leaves.get(l));
    }
    encode_node(dfsa, dfsa.root(), w);
}

/// Encodes the node `next` leads to; a leaf is its index into the pool.
fn encode_node(dfsa: &Dfsa, next: Next, w: &mut ByteWriter) {
    let s = match next {
        Next::Leaf(l) => {
            w.u8(0);
            w.vu32(l);
            return;
        }
        Next::Reject => return w.u8(2),
        Next::State(s) => s,
    };
    w.u8(1);
    w.vu32(dfsa.attr(s).index() as u32);
    let edges = dfsa.edges(s);
    w.seq_len(edges.len());
    for (interval, _) in &edges {
        // Edge intervals are cell indices with `hi >= lo`, so both land
        // in a byte or two as varints.
        w.vu64(interval.lo());
        w.vu64(interval.hi() - interval.lo());
    }
    match dfsa.ordering(s) {
        None => w.u8(0),
        Some(ordering) => {
            w.u8(1);
            w.packed_u32(&ordering.visit);
            w.packed_u32(&ordering.hit_cost);
            w.packed_u32(&ordering.miss_cost);
        }
    }
    match dfsa.star(s) {
        None => w.u8(0),
        Some((all, child)) => {
            w.u8(if all { 1 } else { 2 });
            encode_node(dfsa, child, w);
        }
    }
    for (_, child) in edges {
        encode_node(dfsa, child, w);
    }
}

/// The node `next` leads to, raised from the automaton.
fn raise_node(dfsa: &Dfsa, next: Next, ctx: &OrderCtx<'_>) -> NodeRef {
    let s = match next {
        Next::Leaf(l) => return NodeRef::Leaf(l),
        Next::Reject => return NodeRef::Empty,
        Next::State(s) => s,
    };
    let attr = dfsa.attr(s);
    let edges: Vec<Edge> = dfsa
        .edges(s)
        .into_iter()
        .map(|(interval, child)| Edge {
            interval,
            child: raise_node(dfsa, child, ctx),
        })
        .collect();
    let ordering = match dfsa.ordering(s) {
        Some(ordering) => ordering.clone(),
        None => {
            let intervals: Vec<IndexInterval> = edges.iter().map(|e| e.interval).collect();
            ctx.derive(attr, &intervals)
        }
    };
    let star = match dfsa.star(s) {
        None => Star::None,
        Some((true, child)) => Star::All(Box::new(raise_node(dfsa, child, ctx))),
        Some((false, child)) => Star::Else(Box::new(raise_node(dfsa, child, ctx))),
    };
    NodeRef::Inner(Box::new(Node {
        attr,
        edges,
        ordering,
        star,
    }))
}

impl ProfileTree {
    /// Decodes a tree written by [`encode_section`] or, when
    /// `inline_leaves`, by the format before it, which repeated the
    /// event model in a marginals section and wrote each leaf's list in
    /// place (interned here as it is read). An older image's attribute
    /// partitions and an event model its shape does not read are
    /// decoded, and so checked, then dropped.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        inline_leaves: bool,
    ) -> Result<Self, PersistError> {
        let schema: Schema = r.serde()?;
        let mut config: TreeConfig = r.serde()?;
        let attribute_order: Vec<AttrId> = r.serde()?;
        for _ in 0..r.seq_len(12)? {
            AttributePartition::decode(r)?;
        }
        if inline_leaves {
            // The repeated tables are checked, not kept.
            let marginals = if r.bool()? {
                Some(r.serde::<Vec<DistOverDomain>>()?)
            } else {
                None
            };
            if marginals.as_deref() != config.event_model.as_ref().map(JointDist::marginals) {
                return Err(PersistError::new(
                    "marginals section disagrees with the configured event model",
                ));
            }
        }
        let profile_count = r.u64()? as usize;
        let mut leaves = if inline_leaves {
            Leaves::Inline(Vec::new(), LeafInterner::default())
        } else {
            Leaves::Pooled(decode_pool(r, profile_count)?)
        };
        if !config.uses_event_model() {
            config.event_model = None;
        }
        let header = TreeHeader {
            schema: Arc::new(schema),
            config,
            attribute_order,
            profile_count,
        };
        let root = decode_node(r, 0, &OrderCtx::new(&header), &mut leaves, profile_count)?;
        let pool = match leaves {
            Leaves::Inline(_, interner) => interner.pool,
            Leaves::Pooled(pool) => pool,
        };
        Ok(ProfileTree {
            header,
            root,
            leaves: pool.shrunk(),
        })
    }
}

/// Where a decoded tree's leaves come from: lists written in place,
/// each against the one before (formats 3 and 4), interned as they are
/// read; or references into the pool read before the nodes.
enum Leaves {
    Inline(Vec<ProfileId>, LeafInterner),
    Pooled(LeafPool),
}

/// Both matchers hand a leaf's ids out as they are: they must be the
/// tree's profile ids, strictly ascending.
fn check_leaf(ids: &[ProfileId], profiles: usize) -> Result<(), PersistError> {
    if ids.windows(2).any(|w| w[0] >= w[1]) || ids.last().is_some_and(|p| p.index() >= profiles) {
        return Err(PersistError::new("leaf ids out of order or out of range"));
    }
    Ok(())
}

/// Reads the leaf pool [`encode_section`] writes: non-empty lists
/// of the tree's profile ids, each strictly ascending.
fn decode_pool(r: &mut ByteReader<'_>, profiles: usize) -> Result<LeafPool, PersistError> {
    // Two packed lengths a list at least.
    let n = r.seq_len(8)?;
    let mut pool = LeafPool::default();
    pool.off.reserve(n);
    let mut prev: Vec<ProfileId> = Vec::new();
    for _ in 0..n {
        let ids = persist::read_id_diff(r, &mut prev)?;
        check_leaf(&ids, profiles)?;
        if ids.is_empty() {
            return Err(PersistError::new("empty list in the leaf pool"));
        }
        pool.push(&ids);
    }
    Ok(pool)
}

/// The ordering of a node without edges: its star edge always passes.
fn star_ordering() -> NodeOrdering {
    NodeOrdering {
        visit: Vec::new(),
        hit_cost: Vec::new(),
        miss_cost: vec![0],
    }
}

/// Context the node codec needs to re-derive scan orderings: the
/// probability-free strategies (natural-order linear, binary,
/// interpolation, hash) compute `visit`/`hit_cost`/`miss_cost` from the
/// edge intervals alone, so checkpoints omit the arrays — the bulk of
/// the serialized tree — whenever the stored ordering equals that
/// derivation, and an automaton keeps only the others.
pub(crate) struct OrderCtx<'a> {
    schema: &'a Schema,
    strategy: SearchStrategy,
    early_termination: bool,
}

impl<'a> OrderCtx<'a> {
    pub(crate) fn new(header: &'a TreeHeader) -> Self {
        OrderCtx {
            schema: &header.schema,
            strategy: header.config.search,
            early_termination: !header.config.disable_early_termination,
        }
    }

    /// The ordering the decoder can reconstruct without persisted
    /// probabilities (both marginals set to zero). Matches the build
    /// exactly for every strategy whose keys ignore probability mass.
    fn derive(&self, attr: AttrId, intervals: &[IndexInterval]) -> NodeOrdering {
        let m = intervals.len();
        if m == 0 {
            // Edge-less `*` nodes are hand-built with a zero miss cost
            // (the star edge always passes), bypassing the ordering
            // computation and the early-termination ablation.
            return star_ordering();
        }
        let zeros = vec![0.0; m];
        let gap_zeros = vec![0.0; m + 1];
        let domain_size = self.schema.attribute(attr).domain().size();
        let mut ordering = NodeOrdering::compute_with_geometry(
            self.strategy,
            &zeros,
            &zeros,
            &gap_zeros,
            intervals,
            domain_size,
        );
        if !self.early_termination && matches!(self.strategy, SearchStrategy::Linear(_)) {
            let full = m.max(1) as u32;
            for mc in &mut ordering.miss_cost {
                *mc = full;
            }
        }
        ordering
    }

    /// Whether every node with edges has the derived ordering: the
    /// strategy's keys ignore probability mass (the builder derives it
    /// the same way, and the decoder refuses another).
    fn always_derived(&self) -> bool {
        match self.strategy {
            SearchStrategy::Linear(order) => matches!(order, ValueOrder::Natural(_)),
            SearchStrategy::Binary | SearchStrategy::Interpolation | SearchStrategy::Hash => true,
        }
    }

    /// Whether `node`'s ordering is not the one the decoder derives, so
    /// that the codec writes it out and an automaton keeps it.
    pub(crate) fn written(&self, node: &Node) -> bool {
        if node.edges.is_empty() {
            let NodeOrdering {
                visit,
                hit_cost,
                miss_cost,
            } = &node.ordering;
            return !(visit.is_empty() && hit_cost.is_empty() && miss_cost[..] == [0]);
        }
        if self.always_derived() {
            return false;
        }
        let intervals: Vec<IndexInterval> = node.edges.iter().map(|e| e.interval).collect();
        node.ordering != self.derive(node.attr, &intervals)
    }
}

fn decode_node(
    r: &mut ByteReader<'_>,
    depth: usize,
    ctx: &OrderCtx<'_>,
    leaves: &mut Leaves,
    profiles: usize,
) -> Result<NodeRef, PersistError> {
    if depth > MAX_TREE_DEPTH {
        return Err(PersistError::new("profile tree nested too deeply"));
    }
    match (r.u8()?, &mut *leaves) {
        (0, Leaves::Pooled(pool)) => {
            let l = r.vu32()?;
            if l as usize >= pool.len() {
                return Err(PersistError::new(format!("leaf {l} outside the pool")));
            }
            Ok(NodeRef::Leaf(l))
        }
        (0, Leaves::Inline(prev, interner)) => {
            let ids = persist::read_id_diff(r, prev)?;
            check_leaf(&ids, profiles)?;
            Ok(interner.intern(&ids))
        }
        (2, Leaves::Pooled(_)) => Ok(NodeRef::Empty),
        (1, _) => {
            let attr = AttrId::new(r.vu32()?);
            if attr.index() >= ctx.schema.len() {
                return Err(PersistError::new(format!(
                    "node attribute {} out of schema range",
                    attr.index()
                )));
            }
            let n_edges = r.seq_len(2)?;
            let mut intervals: Vec<IndexInterval> = Vec::with_capacity(n_edges);
            for _ in 0..n_edges {
                let lo = r.vu64()?;
                let hi = lo
                    .checked_add(r.vu64()?)
                    .ok_or_else(|| PersistError::new("edge interval overflows u64"))?;
                // Both matchers locate a value by these being ascending,
                // disjoint and non-empty.
                if hi == lo || intervals.last().is_some_and(|prev| prev.hi() > lo) {
                    return Err(PersistError::new("edge intervals out of order"));
                }
                intervals.push(IndexInterval::new(lo, hi));
            }
            let ordering = match r.u8()? {
                0 => ctx.derive(attr, &intervals),
                1 => {
                    let ordering = NodeOrdering {
                        visit: r.vec_u32_packed()?,
                        hit_cost: r.vec_u32_packed()?,
                        miss_cost: r.vec_u32_packed()?,
                    };
                    // A strategy that ignores probability mass has one
                    // ordering per node: the automaton keeps no other.
                    if n_edges > 0
                        && ctx.always_derived()
                        && ordering != ctx.derive(attr, &intervals)
                    {
                        return Err(PersistError::new(
                            "ordering disagrees with the search strategy",
                        ));
                    }
                    ordering
                }
                tag => {
                    return Err(PersistError::new(format!("unknown ordering tag {tag}")));
                }
            };
            if n_edges > 0
                && (ordering.hit_cost.len() != n_edges || ordering.miss_cost.len() != n_edges + 1)
            {
                return Err(PersistError::new("ordering does not fit the node's edges"));
            }
            let mut child =
                |r: &mut ByteReader<'_>| decode_node(r, depth + 1, ctx, leaves, profiles);
            let star = match r.u8()? {
                0 => Star::None,
                1 => Star::All(Box::new(child(r)?)),
                2 => Star::Else(Box::new(child(r)?)),
                tag => {
                    return Err(PersistError::new(format!("unknown star tag {tag}")));
                }
            };
            let mut edges = Vec::with_capacity(n_edges);
            for interval in intervals {
                edges.push(Edge {
                    interval,
                    child: child(r)?,
                });
            }
            Ok(NodeRef::Inner(Box::new(Node {
                attr,
                edges,
                ordering,
                star,
            })))
        }
        (tag, _) => Err(PersistError::new(format!("unknown node tag {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::ValueOrder;
    use ens_types::{Domain, Event, Predicate};

    /// Example 1 of the paper.
    pub(crate) fn example1() -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("a1", Domain::int(-30, 50))
            .unwrap()
            .attribute("a2", Domain::int(0, 100))
            .unwrap()
            .attribute("a3", Domain::int(1, 100))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(35))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))?
                .predicate("a3", Predicate::between(35, 50))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::between(-30, -20))?
                .predicate("a2", Predicate::le(5))?
                .predicate("a3", Predicate::between(40, 100))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(80))
        })
        .unwrap();
        (schema, ps)
    }

    fn event(schema: &Schema, a1: i64, a2: i64, a3: i64) -> Event {
        Event::builder(schema)
            .value("a1", a1)
            .unwrap()
            .value("a2", a2)
            .unwrap()
            .value("a3", a3)
            .unwrap()
            .build()
    }

    #[test]
    fn paper_event_matches_p2_p5() {
        let (schema, ps) = example1();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let out = tree
            .match_event(&schema, &event(&schema, 30, 90, 2))
            .unwrap();
        assert_eq!(
            out.profiles(),
            &[ProfileId::new(1), ProfileId::new(4)],
            "paper: the filtering path finds P2 and P5"
        );
        assert!(out.ops() > 0);
    }

    #[test]
    fn tree_agrees_with_oracle_on_grid() {
        let (schema, ps) = example1();
        for config in [
            TreeConfig::default(),
            TreeConfig {
                search: SearchStrategy::Binary,
                ..TreeConfig::default()
            },
            TreeConfig {
                attribute_order: AttributeOrder::Explicit(vec![
                    AttrId::new(2),
                    AttrId::new(0),
                    AttrId::new(1),
                ]),
                ..TreeConfig::default()
            },
            TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::Natural(Direction::Descending)),
                ..TreeConfig::default()
            },
        ] {
            let tree = ProfileTree::build(&ps, &config).unwrap();
            for a1 in (-30..=50).step_by(5) {
                for a2 in (0..=100).step_by(10) {
                    for a3 in [1, 35, 40, 50, 70, 100] {
                        let e = event(&schema, a1, a2, a3);
                        let expect = ps.matches(&e).unwrap();
                        let got = tree.match_event(&schema, &e).unwrap();
                        assert_eq!(
                            got.profiles(),
                            expect.as_slice(),
                            "{config:?} at ({a1},{a2},{a3})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn missing_attribute_reaches_only_dont_care() {
        let (schema, ps) = example1();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        // a3 missing: P3/P4 (which specify a3) must not match; P2/P5 do.
        let e = Event::builder(&schema)
            .value("a1", 30)
            .unwrap()
            .value("a2", 95)
            .unwrap()
            .build();
        let out = tree.match_event(&schema, &e).unwrap();
        assert_eq!(out.profiles(), &[ProfileId::new(1), ProfileId::new(4)]);
        // a1 missing: nothing specifies don't-care on a1, so no match.
        let e = Event::builder(&schema).value("a2", 95).unwrap().build();
        assert!(!tree.match_event(&schema, &e).unwrap().is_match());
    }

    #[test]
    fn unsatisfiable_profiles_do_not_hide_dont_care_ones() {
        // A node whose only specific profile admits no value has a
        // `(*)` star and not a single edge; the don't-care profile
        // under it must still be found, at the one operation of the
        // star, and the cost model must price it the same.
        let (schema, _) = example1();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("a3", Predicate::ge(10)))
            .unwrap();
        ps.insert_with(|b| {
            b.predicate("a2", Predicate::In(vec![]))?
                .predicate("a3", Predicate::ge(10))
        })
        .unwrap();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let out = tree
            .match_event(&schema, &event(&schema, 40, 95, 40))
            .unwrap();
        assert_eq!(out.profiles(), &[ProfileId::new(0)]);
        assert_eq!(
            crate::Dfsa::from_tree(&tree)
                .match_event(&schema, &event(&schema, 40, 95, 40))
                .unwrap()
                .profiles(),
            [ProfileId::new(0)]
        );
        let uniform = ens_dist::JointDist::independent(
            schema
                .iter()
                .map(|(_, a)| {
                    ens_dist::DistOverDomain::new(ens_dist::Density::Uniform, a.domain().size())
                })
                .collect(),
        )
        .unwrap();
        let predicted = crate::CostModel::new(&tree, &uniform)
            .unwrap()
            .evaluate()
            .unwrap();
        assert!(predicted.match_probability() > 0.0);
    }

    /// The tree section of `tree` as a checkpoint holds it, under
    /// `header`.
    fn section(header: &TreeHeader, tree: &ProfileTree) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_section(header, &Dfsa::from_tree(tree), &mut w);
        w.into_bytes()
    }

    fn profile_order() -> TreeConfig {
        TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
            ..TreeConfig::default()
        }
    }

    /// Both matchers charge from a node's tables by edge and gap index:
    /// a checkpoint whose tables do not fit the node's edges is refused.
    #[test]
    fn decoding_refuses_tables_that_do_not_fit_the_edges() {
        let (_, ps) = example1();
        let mut tree = ProfileTree::build(&ps, &profile_order()).unwrap();
        let NodeRef::Inner(root) = &mut tree.root else {
            panic!("a1 is tested at the root");
        };
        root.ordering.miss_cost.pop();
        let image = section(&tree.header, &tree);
        let refused = ProfileTree::decode(&mut ByteReader::new(&image), false).unwrap_err();
        assert!(refused.message().contains("does not fit"), "{refused}");
    }

    /// A strategy that ignores probability mass has one ordering per
    /// node, which the automaton does not keep: an image that writes
    /// another out is refused rather than served or raised unlike it.
    #[test]
    fn decoding_refuses_an_ordering_its_strategy_would_not_build() {
        let (_, ps) = example1();
        let tree = ProfileTree::build(&ps, &profile_order()).unwrap();
        let natural = TreeHeader {
            config: TreeConfig::default(),
            ..tree.header.clone()
        };
        let image = section(&natural, &tree);
        let refused = ProfileTree::decode(&mut ByteReader::new(&image), false).unwrap_err();
        assert!(refused.message().contains("disagrees"), "{refused}");
        let image = section(&tree.header, &tree);
        assert!(ProfileTree::decode(&mut ByteReader::new(&image), false).is_ok());
    }

    /// The tree section as it was written off the tree itself, before
    /// the automaton kept what the codec needs: the oracle the
    /// automaton's encoder is held to, byte for byte.
    fn section_off_the_tree(tree: &ProfileTree) -> Vec<u8> {
        fn node(n: &NodeRef, w: &mut ByteWriter, ctx: &OrderCtx<'_>) {
            match n {
                NodeRef::Leaf(l) => {
                    w.u8(0);
                    w.vu32(*l);
                }
                NodeRef::Empty => w.u8(2),
                NodeRef::Inner(n) => {
                    w.u8(1);
                    w.vu32(n.attr.index() as u32);
                    w.seq_len(n.edges.len());
                    for e in &n.edges {
                        w.vu64(e.interval.lo());
                        w.vu64(e.interval.hi() - e.interval.lo());
                    }
                    let intervals: Vec<IndexInterval> =
                        n.edges.iter().map(|e| e.interval).collect();
                    if ctx.derive(n.attr, &intervals) == n.ordering {
                        w.u8(0);
                    } else {
                        w.u8(1);
                        w.packed_u32(&n.ordering.visit);
                        w.packed_u32(&n.ordering.hit_cost);
                        w.packed_u32(&n.ordering.miss_cost);
                    }
                    match &n.star {
                        Star::None => w.u8(0),
                        Star::All(c) => {
                            w.u8(1);
                            node(c, w, ctx);
                        }
                        Star::Else(c) => {
                            w.u8(2);
                            node(c, w, ctx);
                        }
                    }
                    for e in &n.edges {
                        node(&e.child, w, ctx);
                    }
                }
            }
        }
        let mut w = ByteWriter::new();
        tree.header.encode(&mut w);
        w.seq_len(tree.leaves.len());
        let mut prev = Vec::new();
        for l in 0..tree.leaves.len() as u32 {
            persist::write_id_diff(&mut w, &mut prev, tree.leaves.get(l));
        }
        node(&tree.root, &mut w, &OrderCtx::new(&tree.header));
        w.into_bytes()
    }

    fn search_derived(search: SearchStrategy) -> bool {
        !matches!(search, SearchStrategy::Linear(o) if !matches!(o, ValueOrder::Natural(_)))
    }

    #[test]
    fn the_automaton_writes_the_section_the_tree_wrote_and_raises_the_tree() {
        use ens_dist::{Density, DistOverDomain, JointDist};
        let (schema, ps) = example1();
        // An unsatisfiable specific profile leaves an edge-less `(*)`
        // node, whose ordering the codec writes out.
        let mut ps2 = ps.clone();
        ps2.insert_with(|b| b.predicate("a3", Predicate::ge(10)))
            .unwrap();
        ps2.insert_with(|b| {
            b.predicate("a2", Predicate::In(vec![]))?
                .predicate("a3", Predicate::ge(10))
        })
        .unwrap();
        let model = JointDist::independent(
            schema
                .iter()
                .map(|(_, a)| DistOverDomain::new(Density::gaussian(0.7, 0.2), a.domain().size()))
                .collect(),
        )
        .unwrap();
        let mut searches = vec![
            SearchStrategy::Binary,
            SearchStrategy::Interpolation,
            SearchStrategy::Hash,
        ];
        searches.extend(ValueOrder::ALL.map(SearchStrategy::Linear));
        for search in searches {
            for ablate in [false, true] {
                for ps in [&ps, &ps2] {
                    let config = TreeConfig {
                        search,
                        event_model: Some(model.clone()),
                        disable_early_termination: ablate,
                        disable_cell_merging: ablate,
                        ..TreeConfig::default()
                    };
                    let tree = ProfileTree::build(ps, &config).unwrap();
                    let image = section(&tree.header, &tree);
                    assert_eq!(image, section_off_the_tree(&tree), "{search:?}");
                    let dfsa = Dfsa::from_tree(&tree);
                    let kept = (0..dfsa.state_count() as u32).any(|s| dfsa.ordering(s).is_some());
                    if search_derived(search) {
                        // Only the edge-less `(*)` node's is kept.
                        assert_eq!(kept, std::ptr::eq(ps, &ps2), "{search:?}");
                    }
                    let raised = ProfileTree::raise(&dfsa, tree.header.clone());
                    assert_eq!(raised, tree, "{search:?}");
                }
            }
        }
    }

    #[test]
    fn per_level_ops_sum_to_total() {
        let (schema, ps) = example1();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let out = tree
            .match_event(&schema, &event(&schema, 40, 95, 40))
            .unwrap();
        assert_eq!(out.per_level().iter().sum::<u64>(), out.ops());
        assert_eq!(out.per_level().len(), 3);
    }

    #[test]
    fn natural_linear_costs_match_hand_count() {
        let (schema, ps) = example1();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        // Event (30, 90, 2): level a1 edges are [-30,-20], [30,35), [35,50];
        // 30 sits in the second edge -> 2 ops. Level a2 edges (branch of
        // P2,P3,P5): [80,90), [90,100]; 90 in the second -> 2 ops. Level
        // a3: edges [35,50] (P3 + dc); 2 misses at cost 1, then (*) at 1
        // -> 2 ops. Total 6.
        let out = tree
            .match_event(&schema, &event(&schema, 30, 90, 2))
            .unwrap();
        assert_eq!(out.per_level(), &[2, 2, 2]);
        assert_eq!(out.ops(), 6);
    }

    #[test]
    fn rejected_event_pays_early_termination_only() {
        let (schema, ps) = example1();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        // a1 = 0 falls in the gap between [-30,-20] and [30,35): the
        // natural ascending scan stops at the second edge (2 ops) and
        // there is no (*) at the root.
        let out = tree
            .match_event(&schema, &event(&schema, 0, 90, 2))
            .unwrap();
        assert!(!out.is_match());
        assert_eq!(out.ops(), 2);
        assert_eq!(out.per_level(), &[2, 0, 0]);
    }

    #[test]
    fn structure_counts() {
        let (_, ps) = example1();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        assert!(tree.node_count() > 3);
        assert!(tree.leaf_count() >= 5);
        assert!(tree.edge_count() >= tree.leaf_count());
        assert_eq!(tree.profile_count(), 5);
        assert_eq!(tree.attribute_order().len(), 3);
    }

    #[test]
    fn render_reproduces_fig1_structure() {
        let (_, ps) = example1();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let text = tree.render();
        // Root edges of Fig. 1 (inclusive integer-grid rendering).
        assert!(text.contains("a1 in [-30, -20]"), "{text}");
        assert!(text.contains("a1 in [30, 34]"), "{text}");
        assert!(text.contains("a1 in [35, 50]"), "{text}");
        // The (*) else-edge below a3 (P2/P5 are don't-care there).
        assert!(text.contains("a3 = (*)"), "{text}");
        // The P1/P2/P3/P5 leaf below [35,50] -> [90,100] -> [35,50]
        // (ids are zero-based: paper's P1 is p0).
        assert!(text.contains("=> {p0, p1, p2, p4}"), "{text}");
        // The paper's filtering-example leaf {P2, P5}.
        assert!(text.contains("=> {p1, p4}"), "{text}");
    }

    #[test]
    fn interpolation_and_hash_strategies_agree_with_oracle() {
        let (schema, ps) = example1();
        for search in [SearchStrategy::Interpolation, SearchStrategy::Hash] {
            let tree = ProfileTree::build(
                &ps,
                &TreeConfig {
                    search,
                    ..TreeConfig::default()
                },
            )
            .unwrap();
            for a1 in (-30..=50).step_by(10) {
                for a2 in (0..=100).step_by(20) {
                    for a3 in [1, 37, 45, 90] {
                        let e = event(&schema, a1, a2, a3);
                        assert_eq!(
                            tree.match_event(&schema, &e).unwrap().profiles(),
                            ps.matches(&e).unwrap().as_slice(),
                            "{search:?} at ({a1},{a2},{a3})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hash_strategy_costs_one_op_on_equality_nodes() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        for v in [3, 17, 42, 81] {
            ps.insert_with(|b| b.predicate("x", Predicate::eq(v)))
                .unwrap();
        }
        let tree = ProfileTree::build(
            &ps,
            &TreeConfig {
                search: SearchStrategy::Hash,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        let hit = Event::builder(&schema).value("x", 42).unwrap().build();
        assert_eq!(tree.match_event(&schema, &hit).unwrap().ops(), 1);
        let miss = Event::builder(&schema).value("x", 50).unwrap().build();
        assert_eq!(tree.match_event(&schema, &miss).unwrap().ops(), 1);
    }

    #[test]
    fn profile_weights_steer_v2_ordering() {
        use crate::order::ValueOrder;
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))
            .unwrap(); // p0, low values
        ps.insert_with(|b| b.predicate("x", Predicate::between(80, 89)))
            .unwrap(); // p1, high values
        let v2 = SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending));
        // Equal weights: natural tie-break scans p0's range first.
        let equal = ProfileTree::build(
            &ps,
            &TreeConfig {
                search: v2,
                ..TreeConfig::default()
            },
        )
        .unwrap();
        let hi = Event::builder(&schema).value("x", 85).unwrap().build();
        assert_eq!(equal.match_event(&schema, &hi).unwrap().ops(), 2);
        // Prioritising p1 moves its range to the front of the node.
        let weighted = ProfileTree::build(
            &ps,
            &TreeConfig {
                search: v2,
                profile_weights: Some(vec![1.0, 10.0]),
                ..TreeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(weighted.match_event(&schema, &hi).unwrap().ops(), 1);
        // Semantics unchanged.
        let lo = Event::builder(&schema).value("x", 15).unwrap().build();
        assert_eq!(
            weighted.match_event(&schema, &lo).unwrap().profiles(),
            ps.matches(&lo).unwrap().as_slice()
        );
    }

    #[test]
    fn profile_weights_are_validated() {
        let (_, ps) = example1();
        for bad in [
            vec![1.0; 3],
            vec![1.0, -1.0, 1.0, 1.0, 1.0],
            vec![f64::NAN; 5],
        ] {
            let config = TreeConfig {
                profile_weights: Some(bad),
                ..TreeConfig::default()
            };
            assert!(
                matches!(
                    ProfileTree::build(&ps, &config),
                    Err(FilterError::ModelMismatch { .. })
                ),
                "invalid weights must be rejected"
            );
        }
    }

    #[test]
    fn empty_profile_set_matches_nothing() {
        let (schema, _) = example1();
        let ps = ProfileSet::new(&schema);
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let out = tree.match_event(&schema, &event(&schema, 0, 0, 1)).unwrap();
        assert!(!out.is_match());
    }

    #[test]
    fn explicit_order_validation() {
        let (_, ps) = example1();
        let bad = TreeConfig {
            attribute_order: AttributeOrder::Explicit(vec![
                AttrId::new(0),
                AttrId::new(0),
                AttrId::new(1),
            ]),
            ..TreeConfig::default()
        };
        assert!(matches!(
            ProfileTree::build(&ps, &bad),
            Err(FilterError::ModelMismatch { .. })
        ));
        let short = TreeConfig {
            attribute_order: AttributeOrder::Explicit(vec![AttrId::new(0)]),
            ..TreeConfig::default()
        };
        assert!(ProfileTree::build(&ps, &short).is_err());
    }

    #[test]
    fn event_order_requires_model() {
        let (_, ps) = example1();
        let config = TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ..TreeConfig::default()
        };
        assert!(matches!(
            ProfileTree::build(&ps, &config),
            Err(FilterError::MissingDistribution { .. })
        ));
    }

    #[test]
    fn model_arity_validated() {
        use ens_dist::{Density, DistOverDomain, JointDist};
        let (_, ps) = example1();
        let wrong_arity =
            JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 81)]).unwrap();
        let config = TreeConfig {
            event_model: Some(wrong_arity),
            ..TreeConfig::default()
        };
        assert!(matches!(
            ProfileTree::build(&ps, &config),
            Err(FilterError::ModelMismatch { .. })
        ));
        let wrong_size = JointDist::independent(vec![
            DistOverDomain::new(Density::Uniform, 81),
            DistOverDomain::new(Density::Uniform, 5),
            DistOverDomain::new(Density::Uniform, 100),
        ])
        .unwrap();
        let config = TreeConfig {
            event_model: Some(wrong_size),
            ..TreeConfig::default()
        };
        assert!(ProfileTree::build(&ps, &config).is_err());
    }
}
