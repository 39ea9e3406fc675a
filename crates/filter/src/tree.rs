//! The profile tree: construction, and its checkpoint codec, both
//! straight into the automaton.
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
//! No tree of pointers is made: [`Dfsa::build`] and the checkpoint
//! decoder freeze each node into a [`Dfsa`] state as soon as its
//! children have theirs, and the encoder writes the tree section off
//! the automaton. Matching an event follows a single path; the number
//! of comparison operations per node is governed by the configured
//! [`SearchStrategy`].

use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use ens_dist::{DistOverDomain, JointDist};
use ens_types::{AttrId, IndexInterval, LoweredTable, ProfileId, ProfileSet, Schema};
use serde::{Deserialize, Serialize};

use crate::dfsa::{Arenas, Dfsa, Next, NodeSpec, PTarget};
use crate::order::{NodeOrdering, SearchStrategy, ValueOrder};
use crate::persist::{self, ByteReader, ByteWriter, PersistError};
use crate::selectivity::AttributeMeasure;
use crate::subrange::{AttributePartition, Cells};
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

/// Configuration of a profile tree ([`Dfsa::build`]).
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
    /// but an automaton keeps it only if [`TreeConfig::uses_event_model`]:
    /// the [`Dfsa::config`] of any other shape holds `None`.
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

    /// What an automaton keeps of this configuration: all of it, less
    /// an event model its shape does not read.
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

/// The distinct non-empty leaf lists of an automaton, each strictly
/// ascending, in one CSR arena: list `l` is `ids[off[l]..off[l + 1]]`.
#[derive(Debug, Clone)]
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
    fn intern(&mut self, ids: &[ProfileId]) -> PTarget {
        if ids.is_empty() {
            return PTarget::REJECT;
        }
        let hash = self.last.hasher().hash_one(ids);
        let head = self.last.get(&hash).copied().unwrap_or(u32::MAX);
        let mut l = head;
        while l != u32::MAX {
            if self.pool.get(l) == ids {
                return PTarget::leaf(l);
            }
            l = self.earlier[l as usize];
        }
        let l = self.pool.push(ids);
        self.earlier.push(head);
        self.last.insert(hash, l);
        PTarget::leaf(l)
    }
}

/// What a tree is besides its nodes and leaves: what it was built for
/// and how. Its automaton carries it.
#[derive(Debug, Clone)]
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

/// Whether `order` lists each of `n` attributes exactly once.
fn is_permutation(order: &[AttrId], n: usize) -> bool {
    let mut seen = vec![false; n];
    order.len() == n
        && order.iter().all(|id| {
            seen.get_mut(id.index())
                .is_some_and(|s| !std::mem::replace(s, true))
        })
}

impl Dfsa {
    /// Builds the profile tree for `profiles` under `config`, node by
    /// node into the automaton.
    ///
    /// The automaton keeps `config` less an event model its shape does
    /// not read ([`TreeConfig::uses_event_model`]); the model is checked
    /// against the schema all the same. What only the build reads — the
    /// global attribute partitions of a selectivity order or of the
    /// merging ablation — is dropped with it.
    ///
    /// # Example
    ///
    /// ```
    /// use ens_filter::{Dfsa, Matcher, TreeConfig};
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
    /// let dfsa = Dfsa::build(&ps, &TreeConfig::default())?;
    /// let hot = Event::builder(&schema)
    ///     .value("temperature", 40)?
    ///     .value("humidity", 95)?
    ///     .build();
    /// assert!(dfsa.match_event(&schema, &hot)?.is_match());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`FilterError::MissingDistribution`] if a distribution-dependent
    ///   order is configured without an event model;
    /// * [`FilterError::ModelMismatch`] if the event model's arity or
    ///   domain sizes disagree with the schema;
    /// * predicate lowering errors from the data model.
    pub fn build(profiles: &ProfileSet, config: &TreeConfig) -> Result<Self, FilterError> {
        let table = LoweredTable::lower(profiles.schema(), profiles.iter())?;
        Self::build_lowered(profiles.schema(), &table, config)
    }

    /// [`Dfsa::build`] for a population lowered already: profile `r` is
    /// row `r` of `table`, a table over `schema`'s attributes.
    ///
    /// # Errors
    ///
    /// As [`Dfsa::build`], and [`FilterError::ModelMismatch`] if
    /// `table`'s rows are not as wide as the schema.
    pub fn build_lowered(
        schema: &Schema,
        table: &LoweredTable,
        config: &TreeConfig,
    ) -> Result<Self, FilterError> {
        let schema = Arc::new(schema.clone());
        if table.width() != schema.len() {
            return Err(FilterError::ModelMismatch {
                message: format!(
                    "a lowered table of {} attributes for a schema of {}",
                    table.width(),
                    schema.len()
                ),
            });
        }

        // Validate the event model; its per-point tables are borrowed
        // for the build and, if the shape reads them, held once in the
        // automaton's copy of `config`.
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
            if w.len() != table.rows() {
                return Err(FilterError::ModelMismatch {
                    message: format!("{} profile weights for {} profiles", w.len(), table.rows()),
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
                let rows = (0..table.rows() as u32).map(ProfileId::new);
                let entries = rows.map(|p| (p, table.get(p.index(), id.index())));
                AttributePartition::from_lowered(entries, a.domain().size())
            };
            schema.iter().map(build).collect()
        } else {
            Vec::new()
        };

        // Resolve the attribute order.
        let attribute_order = match &config.attribute_order {
            AttributeOrder::Natural => schema.ids().collect(),
            AttributeOrder::Explicit(order) => {
                if !is_permutation(order, schema.len()) {
                    return Err(FilterError::ModelMismatch {
                        message: "an explicit order must list every attribute once".into(),
                    });
                }
                order.clone()
            }
            AttributeOrder::Selectivity { measure, direction } => {
                crate::selectivity::order_attributes(
                    *measure,
                    *direction,
                    &schema,
                    table,
                    &partitions,
                    marginals,
                    config.search,
                )?
            }
        };

        let alive: Vec<ProfileId> = (0..table.rows() as u32).map(ProfileId::new).collect();
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
        let header = TreeHeader {
            schema,
            config: config.kept(),
            attribute_order,
            profile_count: table.rows(),
        };
        let mut builder = TreeBuilder {
            table,
            schema: &header.schema,
            order: &header.attribute_order,
            marginals,
            strategy: config.search,
            early_termination: !config.disable_early_termination,
            global_cuts,
            weights: config.profile_weights.as_deref(),
            ctx: OrderCtx::new(&header),
            arenas: Arenas::default(),
            leaves: LeafInterner::default(),
            leaf: Vec::new(),
            levels: Vec::new(),
            star: star_ordering(),
        };
        let root = builder.build_node(&alive, 0);
        let TreeBuilder { arenas, leaves, .. } = builder;
        Ok(arenas.finish(header, leaves.pool, root))
    }
}

struct TreeBuilder<'a> {
    table: &'a LoweredTable,
    schema: &'a Schema,
    order: &'a [AttrId],
    marginals: Option<&'a [DistOverDomain]>,
    strategy: SearchStrategy,
    early_termination: bool,
    /// `Some` when cell merging is ablated: per-attribute global cut
    /// points forced into every node's decomposition.
    global_cuts: Option<Vec<Vec<u64>>>,
    /// Per-profile priority weights (id-indexed), defaulting to 1.
    weights: Option<&'a [f64]>,
    ctx: OrderCtx<'a>,
    arenas: Arenas,
    leaves: LeafInterner,
    /// The leaf being made, sorted here before it is interned.
    leaf: Vec<ProfileId>,
    /// Per depth, the buffers its nodes reuse.
    levels: Vec<Level>,
    /// The ordering of a node without edges.
    star: NodeOrdering,
}

/// The buffers the nodes at one depth reuse one after another: a node
/// is done with its own before the next node at its depth starts.
#[derive(Default)]
struct Level {
    /// The alive profiles don't-care on the level's attribute, and the
    /// others, in alive order.
    dont_care: Vec<ProfileId>,
    specific: Vec<ProfileId>,
    /// The decomposition of the level's attribute at this node.
    cells: Cells,
    /// The profiles alive in the child being built.
    child: Vec<ProfileId>,
    /// The edges and their event and profile masses, natural order,
    /// and the event mass of the gaps between them.
    intervals: Vec<IndexInterval>,
    edge_pe: Vec<f64>,
    edge_pp: Vec<f64>,
    gap_pe: Vec<f64>,
    ordering: NodeOrdering,
}

impl TreeBuilder<'_> {
    /// Total priority mass of a set of profiles (1 per profile when no
    /// weights are configured).
    fn profile_mass(&self, ids: &[ProfileId]) -> f64 {
        match self.weights {
            None => ids.len() as f64,
            Some(w) => ids.iter().map(|id| w[id.index()]).sum(),
        }
    }

    /// Builds the subtree of the profiles `alive` at `level` into the
    /// automaton, and returns where it starts.
    fn build_node(&mut self, alive: &[ProfileId], level: usize) -> PTarget {
        if alive.is_empty() {
            return PTarget::REJECT;
        }
        if level == self.order.len() {
            self.leaf.clear();
            self.leaf.extend_from_slice(alive);
            self.leaf.sort_unstable();
            return self.leaves.intern(&self.leaf);
        }
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, Level::default);
        }
        let mut scratch = std::mem::take(&mut self.levels[level]);
        let node = self.inner_node(alive, level, &mut scratch);
        self.levels[level] = scratch;
        node
    }

    /// [`TreeBuilder::build_node`] below the leaves, in `s`'s buffers.
    fn inner_node(&mut self, alive: &[ProfileId], level: usize, s: &mut Level) -> PTarget {
        let attr = self.order[level];
        let a = attr.index();
        let table = self.table;
        s.dont_care.clear();
        s.specific.clear();
        for &id in alive {
            if table.get(id.index(), a).is_none() {
                s.dont_care.push(id);
            } else {
                s.specific.push(id);
            }
        }

        if s.specific.is_empty() {
            // All alive profiles ignore this attribute: a single `*`
            // edge.
            let child = self.build_node(alive, level + 1);
            let node = NodeSpec {
                attr,
                intervals: &[],
                first: self.arenas.targets.len(),
                ordering: &self.star,
                star: Some((true, child)),
            };
            return self.arenas.freeze(node, &self.ctx);
        }

        // The star subtree is built first, so leaves enter the pool in
        // the order the node codec writes them.
        let star =
            (!s.dont_care.is_empty()).then(|| (false, self.build_node(&s.dont_care, level + 1)));

        // Per-branch elementary decomposition over the *specific*
        // profiles alive here (merging makes the Fig. 2 edges like
        // `[30, 100)` appear when profiles collapse).
        let d = self.schema.attribute(attr).domain().size();
        let global = self.global_cuts.as_ref().map_or(&[][..], |c| &c[a]);
        let specified = s.specific.iter().map(|&id| (id, table.get(id.index(), a)));
        let specified = specified.map(|(id, ivs)| (id, ivs.unwrap_or_default()));
        s.cells.decompose(specified, d, global);

        let first = self.arenas.targets.len();
        s.intervals.clear();
        s.edge_pe.clear();
        s.edge_pp.clear();
        s.gap_pe.clear();
        s.gap_pe.push(0.0);
        let marginal = self.marginals.map(|m| &m[a]);
        let specific_mass = self.profile_mass(&s.specific);
        for c in 0..s.cells.len() {
            let (interval, members) = s.cells.cell(c);
            let pe = marginal.map_or(0.0, |m| m.mass_of(&interval));
            if members.is_empty() {
                if let Some(gap) = s.gap_pe.last_mut() {
                    *gap += pe;
                }
                continue;
            }
            s.child.clear();
            s.child.extend_from_slice(members);
            s.child.extend_from_slice(&s.dont_care);
            let child = self.build_node(&s.child, level + 1);
            self.arenas.targets.push(child);
            s.edge_pe.push(pe);
            s.edge_pp.push(self.profile_mass(members) / specific_mass);
            s.intervals.push(interval);
            s.gap_pe.push(0.0);
        }

        let strategy = self.strategy;
        s.ordering
            .recompute(strategy, &s.edge_pe, &s.edge_pp, &s.gap_pe, &s.intervals, d);
        if !self.early_termination && matches!(strategy, SearchStrategy::Linear(_)) {
            // Ablation: without the lookup table every miss scans the
            // whole node.
            s.ordering.miss_cost.fill(s.intervals.len().max(1) as u32);
        }
        let node = NodeSpec {
            attr,
            intervals: &s.intervals,
            first,
            ordering: &s.ordering,
            star,
        };
        self.arenas.freeze(node, &self.ctx)
    }
}

/// The most levels a checkpoint's tree may have: its schema's attribute
/// count, which a node's depth cannot pass. Anything longer is corrupt
/// input, and would nest the decoder's walk without bound.
const MAX_TREE_DEPTH: usize = 4096;

/// Appends the tree section of a checkpoint for the tree `dfsa` was
/// built from, read off the automaton: the header, the leaf pool, then
/// the nodes, depth-first with the star child before the edges. A
/// node's ordering is written only where the decoder cannot derive it,
/// and the automaton keeps exactly those.
pub(crate) fn encode_section(dfsa: &Dfsa, w: &mut ByteWriter) {
    dfsa.header().encode(w);
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

impl Dfsa {
    /// Decodes a tree section written by [`encode_section`] or, when
    /// `inline_leaves`, by the format before it, which repeated the
    /// event model in a marginals section and wrote each leaf's list in
    /// place (interned here as it is read), into the automaton. An
    /// older image's attribute partitions and an event model its shape
    /// does not read are decoded, and so checked, then dropped. The
    /// builder's two invariants are refused broken: the attribute order
    /// is a permutation of the schema, and the node at depth `k` tests
    /// `attribute_order[k]`.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        inline_leaves: bool,
    ) -> Result<Self, PersistError> {
        let schema: Schema = r.serde()?;
        let mut config: TreeConfig = r.serde()?;
        let attribute_order: Vec<AttrId> = r.serde()?;
        if attribute_order.len() > MAX_TREE_DEPTH || !is_permutation(&attribute_order, schema.len())
        {
            return Err(PersistError::new(
                "attribute order is not a permutation of the schema",
            ));
        }
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
        let profiles = r.u64()? as usize;
        let leaves = if inline_leaves {
            Leaves::Inline(Vec::new(), LeafInterner::default())
        } else {
            Leaves::Pooled(decode_pool(r, profiles)?)
        };
        if !config.uses_event_model() {
            config.event_model = None;
        }
        let header = TreeHeader {
            schema: Arc::new(schema),
            config,
            attribute_order,
            profile_count: profiles,
        };
        let mut decoder = Decoder {
            ctx: OrderCtx::new(&header),
            leaves,
            arenas: Arenas::default(),
            profiles,
        };
        let root = decoder.node(r, 0)?;
        let Decoder { leaves, arenas, .. } = decoder;
        let pool = match leaves {
            Leaves::Inline(_, interner) => interner.pool,
            Leaves::Pooled(pool) => pool,
        };
        Ok(arenas.finish(header, pool, root))
    }
}

/// Where a decoded tree's leaves come from: lists written in place,
/// each against the one before (formats 3 and 4), interned as they are
/// read; or references into the pool read before the nodes.
enum Leaves {
    Inline(Vec<ProfileId>, LeafInterner),
    Pooled(LeafPool),
}

/// The matcher hands a leaf's ids out as they are: they must be the
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
    /// The attribute tested at each level.
    order: &'a [AttrId],
    strategy: SearchStrategy,
    early_termination: bool,
}

impl<'a> OrderCtx<'a> {
    pub(crate) fn new(header: &'a TreeHeader) -> Self {
        OrderCtx {
            schema: &header.schema,
            order: &header.attribute_order,
            strategy: header.config.search,
            early_termination: !header.config.disable_early_termination,
        }
    }

    /// The ordering the decoder can reconstruct without persisted
    /// probabilities (both marginals set to zero). Matches the build
    /// exactly for every strategy whose keys ignore probability mass.
    fn derive(&self, attr: AttrId, intervals: &[IndexInterval]) -> NodeOrdering {
        if intervals.is_empty() {
            // Edge-less `*` nodes are hand-built with a zero miss cost
            // (the star edge always passes), bypassing the ordering
            // computation and the early-termination ablation.
            return star_ordering();
        }
        let mut derived = Derived::default();
        self.derive_into(attr, intervals, &mut derived);
        derived.ordering
    }

    /// [`OrderCtx::derive`] for a node with edges, in `d`'s buffers.
    fn derive_into(&self, attr: AttrId, intervals: &[IndexInterval], d: &mut Derived) {
        let m = intervals.len();
        d.zeros.clear();
        d.zeros.resize(m + 1, 0.0);
        let domain_size = self.schema.attribute(attr).domain().size();
        let zeros = &d.zeros[..m];
        let strategy = self.strategy;
        d.ordering
            .recompute(strategy, zeros, zeros, &d.zeros, intervals, domain_size);
        if !self.early_termination && matches!(strategy, SearchStrategy::Linear(_)) {
            d.ordering.miss_cost.fill(m.max(1) as u32);
        }
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

    /// Whether a node testing `attr` with edges `intervals` and
    /// `ordering` does not have the ordering the decoder derives, so
    /// that the codec writes it out and an automaton keeps it. The
    /// derivation is made in `d`'s buffers.
    pub(crate) fn written(
        &self,
        attr: AttrId,
        intervals: &[IndexInterval],
        ordering: &NodeOrdering,
        d: &mut Derived,
    ) -> bool {
        if intervals.is_empty() {
            let star = ordering.visit.is_empty() && ordering.hit_cost.is_empty();
            return !(star && ordering.miss_cost == [0]);
        }
        if self.always_derived() {
            return false;
        }
        self.derive_into(attr, intervals, d);
        *ordering != d.ordering
    }
}

/// The buffers [`OrderCtx::written`] derives an ordering in.
#[derive(Default)]
pub(crate) struct Derived {
    ordering: NodeOrdering,
    zeros: Vec<f64>,
}

/// The checkpoint decoder's walk: each node read is frozen into
/// `arenas` once its children are.
struct Decoder<'a> {
    ctx: OrderCtx<'a>,
    leaves: Leaves,
    arenas: Arenas,
    /// The tree's profile count.
    profiles: usize,
}

impl Decoder<'_> {
    /// Reads the node at `depth` and returns where it starts.
    fn node(&mut self, r: &mut ByteReader<'_>, depth: usize) -> Result<PTarget, PersistError> {
        match (r.u8()?, &mut self.leaves) {
            (0, Leaves::Pooled(pool)) => {
                let l = r.vu32()?;
                if l as usize >= pool.len() {
                    return Err(PersistError::new(format!("leaf {l} outside the pool")));
                }
                Ok(PTarget::leaf(l))
            }
            (0, Leaves::Inline(prev, interner)) => {
                let ids = persist::read_id_diff(r, prev)?;
                check_leaf(&ids, self.profiles)?;
                Ok(interner.intern(&ids))
            }
            (2, Leaves::Pooled(_)) => Ok(PTarget::REJECT),
            (1, _) => {
                // The builder tests `attribute_order[k]` at depth `k`:
                // an attribute is tested once per path, and the tree is
                // no deeper than the schema.
                let attr = AttrId::new(r.vu32()?);
                if self.ctx.order.get(depth) != Some(&attr) {
                    return Err(PersistError::new(format!(
                        "node at depth {depth} tests attribute {}, not its level's",
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
                    // The matcher locates a value by these being
                    // ascending, disjoint and non-empty.
                    if hi == lo || intervals.last().is_some_and(|prev| prev.hi() > lo) {
                        return Err(PersistError::new("edge intervals out of order"));
                    }
                    intervals.push(IndexInterval::new(lo, hi));
                }
                let ordering = match r.u8()? {
                    0 => self.ctx.derive(attr, &intervals),
                    1 => {
                        let ordering = NodeOrdering {
                            visit: r.vec_u32_packed()?,
                            hit_cost: r.vec_u32_packed()?,
                            miss_cost: r.vec_u32_packed()?,
                        };
                        // A strategy that ignores probability mass has
                        // one ordering per node: the automaton keeps no
                        // other.
                        if n_edges > 0
                            && self.ctx.always_derived()
                            && ordering != self.ctx.derive(attr, &intervals)
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
                    && (ordering.hit_cost.len() != n_edges
                        || ordering.miss_cost.len() != n_edges + 1)
                {
                    return Err(PersistError::new("ordering does not fit the node's edges"));
                }
                let star = match r.u8()? {
                    0 => None,
                    1 => Some((true, self.node(r, depth + 1)?)),
                    2 => Some((false, self.node(r, depth + 1)?)),
                    tag => {
                        return Err(PersistError::new(format!("unknown star tag {tag}")));
                    }
                };
                let first = self.arenas.targets.len();
                for _ in 0..n_edges {
                    let child = self.node(r, depth + 1)?;
                    self.arenas.targets.push(child);
                }
                let node = NodeSpec {
                    attr,
                    intervals: &intervals,
                    first,
                    ordering: &ordering,
                    star,
                };
                Ok(self.arenas.freeze(node, &self.ctx))
            }
            (tag, _) => Err(PersistError::new(format!("unknown node tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::Matcher;
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
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
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
            let tree = Dfsa::build(&ps, &config).unwrap();
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
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
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
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        let out = tree
            .match_event(&schema, &event(&schema, 40, 95, 40))
            .unwrap();
        assert_eq!(out.profiles(), &[ProfileId::new(0)]);
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

    fn profile_order() -> TreeConfig {
        TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
            ..TreeConfig::default()
        }
    }

    /// A tree section written by hand: `x` and `y` in 0..=9 tested in
    /// `order` under `config`, one profile, a pool of one list `{p0}`,
    /// then the nodes `nodes` writes.
    fn section(config: TreeConfig, order: &[u32], nodes: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 9))
            .unwrap()
            .attribute("y", Domain::int(0, 9))
            .unwrap()
            .build();
        let header = TreeHeader {
            schema: Arc::new(schema),
            config,
            attribute_order: order.iter().map(|&a| AttrId::new(a)).collect(),
            profile_count: 1,
        };
        let mut w = ByteWriter::new();
        header.encode(&mut w);
        w.seq_len(1);
        persist::write_id_diff(&mut w, &mut Vec::new(), &[ProfileId::new(0)]);
        nodes(&mut w);
        w.into_bytes()
    }

    /// A node testing `attr` with one edge, `[2, 4)`, and `ordering`
    /// written out if given; then its star tag, and no children.
    fn node_head(w: &mut ByteWriter, attr: u32, ordering: Option<&NodeOrdering>, star: u8) {
        w.u8(1);
        w.vu32(attr);
        w.seq_len(1);
        w.vu64(2);
        w.vu64(2);
        match ordering {
            None => w.u8(0),
            Some(o) => {
                w.u8(1);
                w.packed_u32(&o.visit);
                w.packed_u32(&o.hit_cost);
                w.packed_u32(&o.miss_cost);
            }
        }
        w.u8(star);
    }

    /// `y` below the edge of `x`: a `*` node, then the leaf.
    fn star_to_leaf(w: &mut ByteWriter, attr: u32) {
        w.u8(1);
        w.vu32(attr);
        w.seq_len(0);
        w.u8(0);
        w.u8(1);
        w.u8(0);
        w.vu32(0);
    }

    fn decode(image: &[u8]) -> Result<Dfsa, PersistError> {
        Dfsa::decode(&mut ByteReader::new(image), false)
    }

    /// What the builder writes for `x in [2, 3]` decodes, and
    /// re-encodes to the same bytes.
    #[test]
    fn decoding_reads_what_the_builder_writes() {
        let image = section(TreeConfig::default(), &[0, 1], |w| {
            node_head(w, 0, None, 0);
            star_to_leaf(w, 1);
        });
        let dfsa = decode(&image).unwrap();
        let mut w = ByteWriter::new();
        encode_section(&dfsa, &mut w);
        assert_eq!(w.into_bytes(), image);
    }

    /// The matcher charges from a node's tables by edge and gap index:
    /// a checkpoint whose tables do not fit the node's edges is refused.
    #[test]
    fn decoding_refuses_tables_that_do_not_fit_the_edges() {
        let short = NodeOrdering {
            visit: vec![0],
            hit_cost: vec![1],
            miss_cost: vec![1],
        };
        let image = section(profile_order(), &[0, 1], |w| {
            node_head(w, 0, Some(&short), 0);
            star_to_leaf(w, 1);
        });
        let refused = decode(&image).unwrap_err();
        assert!(refused.message().contains("does not fit"), "{refused}");
    }

    /// A strategy that ignores probability mass has one ordering per
    /// node, which the automaton does not keep: an image that writes
    /// another out is refused rather than served unlike it.
    #[test]
    fn decoding_refuses_an_ordering_its_strategy_would_not_build() {
        let other = NodeOrdering {
            visit: vec![0],
            hit_cost: vec![3],
            miss_cost: vec![1, 1],
        };
        let image = |config| {
            section(config, &[0, 1], |w| {
                node_head(w, 0, Some(&other), 0);
                star_to_leaf(w, 1);
            })
        };
        let refused = decode(&image(TreeConfig::default())).unwrap_err();
        assert!(refused.message().contains("disagrees"), "{refused}");
        assert!(decode(&image(profile_order())).is_ok());
    }

    /// The builder tests every attribute once, at the level the
    /// attribute order gives it: an order that is not a permutation of
    /// the schema is refused.
    #[test]
    fn decoding_refuses_an_attribute_order_that_is_not_a_permutation() {
        for order in [&[0, 0][..], &[0], &[0, 1, 1], &[0, 2]] {
            let image = section(TreeConfig::default(), order, |w| {
                node_head(w, 0, None, 0);
                star_to_leaf(w, 1);
            });
            let refused = decode(&image).unwrap_err();
            assert!(
                refused.message().contains("permutation"),
                "{order:?}: {refused}"
            );
        }
    }

    /// ... and a node that does not test its level's attribute is
    /// refused, at the root, below it, and below the last level.
    #[test]
    fn decoding_refuses_a_node_off_its_level() {
        let swapped = section(TreeConfig::default(), &[0, 1], |w| {
            node_head(w, 1, None, 0);
            star_to_leaf(w, 0);
        });
        let repeated = section(TreeConfig::default(), &[0, 1], |w| {
            node_head(w, 0, None, 0);
            star_to_leaf(w, 0);
        });
        let too_deep = section(TreeConfig::default(), &[0, 1], |w| {
            node_head(w, 0, None, 0);
            w.u8(1);
            w.vu32(1);
            w.seq_len(0);
            w.u8(0);
            w.u8(1);
            star_to_leaf(w, 0);
        });
        for image in [swapped, repeated, too_deep] {
            let refused = decode(&image).unwrap_err();
            assert!(refused.message().contains("level"), "{refused}");
        }
        let reordered = section(TreeConfig::default(), &[1, 0], |w| {
            node_head(w, 1, None, 0);
            star_to_leaf(w, 0);
        });
        assert!(decode(&reordered).is_ok());
    }

    /// A point mass at `event`: under it Eq. 2 is the event's own count,
    /// level by level.
    fn point_mass(schema: &Schema, event: &Event) -> ens_dist::JointDist {
        let indexed = ens_types::IndexedEvent::resolve(schema, event).unwrap();
        let marginals = schema.iter().zip(indexed.raw()).map(|((_, a), &i)| {
            let cell = (IndexInterval::new(i, i + 1), 1.0);
            ens_dist::DistOverDomain::from_cells(a.domain().size(), &[cell]).unwrap()
        });
        ens_dist::JointDist::independent(marginals.collect()).unwrap()
    }

    /// Eq. 2's operations at each level, under a point mass at `event`.
    fn per_level(tree: &Dfsa, schema: &Schema, event: &Event) -> Vec<u64> {
        let model = point_mass(schema, event);
        let cost = crate::CostModel::new(tree, &model)
            .unwrap()
            .evaluate()
            .unwrap();
        let levels = cost.per_level().iter();
        levels
            .map(|l| (l.match_ops + l.reject_ops).round() as u64)
            .collect()
    }

    #[test]
    fn per_level_ops_sum_to_total() {
        let (schema, ps) = example1();
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        let e = event(&schema, 40, 95, 40);
        let levels = per_level(&tree, &schema, &e);
        assert_eq!(levels.len(), 3);
        assert_eq!(
            levels.iter().sum::<u64>(),
            tree.match_event(&schema, &e).unwrap().ops()
        );
    }

    #[test]
    fn natural_linear_costs_match_hand_count() {
        let (schema, ps) = example1();
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        // Event (30, 90, 2): level a1 edges are [-30,-20], [30,35), [35,50];
        // 30 sits in the second edge -> 2 ops. Level a2 edges (branch of
        // P2,P3,P5): [80,90), [90,100]; 90 in the second -> 2 ops. Level
        // a3: edges [35,50] (P3 + dc); 2 misses at cost 1, then (*) at 1
        // -> 2 ops. Total 6.
        let out = tree
            .match_event(&schema, &event(&schema, 30, 90, 2))
            .unwrap();
        assert_eq!(
            per_level(&tree, &schema, &event(&schema, 30, 90, 2)),
            [2, 2, 2]
        );
        assert_eq!(out.ops(), 6);
    }

    #[test]
    fn rejected_event_pays_early_termination_only() {
        let (schema, ps) = example1();
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        // a1 = 0 falls in the gap between [-30,-20] and [30,35): the
        // natural ascending scan stops at the second edge (2 ops) and
        // there is no (*) at the root.
        let out = tree
            .match_event(&schema, &event(&schema, 0, 90, 2))
            .unwrap();
        assert!(!out.is_match());
        assert_eq!(out.ops(), 2);
        assert_eq!(
            per_level(&tree, &schema, &event(&schema, 0, 90, 2)),
            [2, 0, 0]
        );
    }

    #[test]
    fn structure_counts() {
        let (_, ps) = example1();
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
        assert!(tree.state_count() > 3);
        assert!(tree.leaf_count() >= 4);
        assert!(tree.edge_count() >= tree.leaf_count());
        assert_eq!(tree.profile_count(), 5);
        assert_eq!(tree.attribute_order().len(), 3);
    }

    #[test]
    fn render_reproduces_fig1_structure() {
        let (_, ps) = example1();
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
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
            let tree = Dfsa::build(
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
        let tree = Dfsa::build(
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
        let equal = Dfsa::build(
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
        let weighted = Dfsa::build(
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
                    Dfsa::build(&ps, &config),
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
        let tree = Dfsa::build(&ps, &TreeConfig::default()).unwrap();
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
            Dfsa::build(&ps, &bad),
            Err(FilterError::ModelMismatch { .. })
        ));
        let short = TreeConfig {
            attribute_order: AttributeOrder::Explicit(vec![AttrId::new(0)]),
            ..TreeConfig::default()
        };
        assert!(Dfsa::build(&ps, &short).is_err());
    }

    #[test]
    fn event_order_requires_model() {
        let (_, ps) = example1();
        let config = TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ..TreeConfig::default()
        };
        assert!(matches!(
            Dfsa::build(&ps, &config),
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
            Dfsa::build(&ps, &config),
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
        assert!(Dfsa::build(&ps, &config).is_err());
    }
}
