//! One shard of the broker's subscriptions: the writer side, and the
//! only code that changes a shard.
//!
//! `broker` (the parent module) keeps the read path — the published
//! [`ShardSnapshot`] and everything that matches against it. What
//! changes a shard is here: **add** ([`ShardGuard::add`], one entry
//! after a containment probe, or a bulk staged by
//! [`ShardGuard::stage_bulk`]), **remove** ([`ShardGuard::remove`]),
//! **pack** (the overlay rebuilt without its tombstones, when a removal
//! makes them reach its live entries, and before a checkpoint:
//! [`ShardGuard::pack`]), **recompile** (the churn compaction an add or
//! a remove runs into, a bulk load, a replayed [`ShardGuard::retune`],
//! or a drift rebuild the broker priced between [`ShardGuard::stage`]
//! and [`ShardGuard::rebuild`]) and **restore** from a checkpoint shard
//! ([`Shard::restore`]).
//!
//! Each fact has one holder. The writer holds what a recompile, a pack
//! and a checkpoint need that nothing else holds — each subscription's
//! profile and weight, base and overlay alike, one list of [`SubEntry`]
//! indexed by the global profile id the filter reports. The published
//! snapshot holds the rest: its dispatch slot holds the subscription's
//! id and channel, its filter's tombstone bit whether it is live, and
//! the filter what the entries were compiled into, down to where the
//! base ends, which overlay positions its counting index matches and
//! which it expands through a compiled representative; and whether the
//! publish paths sample the shard's drift statistics, which follows the
//! shape installed with the filter. A joining
//! entry's slot and probe answer travel in the pending [`Change`] until
//! the commit hands them to the snapshot.
//!
//! Each operation is staged, then committed: *stage*
//! ([`ShardGuard::stage_commit`]) derives the next snapshot from the
//! writer's entries plus the pending [`Change`] in
//! [`ShardWriter::snapshot_after`], the one place a [`ShardSnapshot`] is
//! made, with the writer untouched; *commit* and *swap*
//! ([`ShardGuard::install`]) cannot fail. An operation that fails has
//! changed nothing, so nothing is ever rolled back — a bulk load over
//! several shards included, which stages every shard before it commits
//! any.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ens_dist::JointDist;
use ens_filter::{
    tuning, AttributeOrder, Dfsa, DriftTracker, FilterSnapshot, RebinnedHistory, SearchStrategy,
    TreeConfig,
};
use ens_types::{CoverOutcome, CoverSet, LoweredTable, Profile, ProfileSet, Residual, Schema};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::channel::{self, Sender};
use crate::journal::{Decision, Journal};
use crate::metrics::Metrics;
use crate::notify::{Queued, Subscriber};
use crate::persist::{CheckpointEntry, CheckpointShard};
use crate::subscription::SubscriptionId;
use crate::ServiceError;

use super::{BrokerConfig, DispatchEntry, ShardSnapshot};

/// What the writer side keeps of a subscription: what a recompile, a
/// pack and a checkpoint read that nothing else holds. Its position in
/// [`ShardWriter::entries`] is its global profile id; its id and channel
/// are its published dispatch slot's, and whether it is live is its
/// published filter's tombstone bit. A cancelled compiled entry stays,
/// as a tombstone, until the next recompile.
pub(super) struct SubEntry {
    pub(super) profile: Profile,
    pub(super) weight: f64,
}

/// Subscription `id`'s dispatch slot once cancelled, and with id 0 what
/// pads a table's last chunk: its sender's receiver is gone, so every
/// send fails at once, and the channel it had is released as soon as
/// older snapshots retire. Every one clones one channel.
pub(super) fn severed(id: SubscriptionId) -> DispatchEntry {
    static SEVERED: OnceLock<Sender<Queued>> = OnceLock::new();
    let sender = SEVERED.get_or_init(|| channel::channel(0).0).clone();
    DispatchEntry { id, sender }
}

/// A padding slot.
fn padding() -> DispatchEntry {
    severed(SubscriptionId::new(0))
}

/// A fresh subscriber channel under `config`'s capacity.
pub(super) fn notify_channel(config: &BrokerConfig) -> (Sender<Queued>, channel::Receiver<Queued>) {
    channel::channel(config.notify_capacity)
}

/// Slots per dispatch chunk.
const DISPATCH_CHUNK: usize = 16;

/// Dispatch slots in chunks of [`DISPATCH_CHUNK`] (the last padded
/// with [`padding`] slots), behind one shared handle. The next
/// snapshot's table copies the chunk handles and the one chunk a change
/// touches, and shares every other chunk, so setting or appending a
/// slot costs n/16 handles and one chunk. A lookup has one bounds
/// check, as a flat table's, and one dependent load more: the chunk's
/// handle.
#[derive(Clone)]
struct Chunks(Arc<[Arc<[DispatchEntry; DISPATCH_CHUNK]>]>);

impl Chunks {
    fn get(&self, k: usize) -> &DispatchEntry {
        &self.0[k / DISPATCH_CHUNK][k % DISPATCH_CHUNK]
    }

    fn new(slots: impl IntoIterator<Item = DispatchEntry>) -> Self {
        let mut slots = slots.into_iter().peekable();
        let mut chunks = Vec::new();
        while slots.peek().is_some() {
            let chunk = std::array::from_fn(|_| slots.next().unwrap_or_else(padding));
            chunks.push(Arc::new(chunk));
        }
        Chunks(chunks.into())
    }

    /// Puts `slot` at `k` — a slot of the table, or the first past its
    /// end — in a copy of its chunk.
    fn set(&mut self, k: usize, slot: DispatchEntry) {
        if k / DISPATCH_CHUNK == self.0.len() {
            let next = Arc::new(std::array::from_fn(|_| padding()));
            self.0 = self.0.iter().cloned().chain([next]).collect();
        }
        let chunk = &mut Arc::make_mut(&mut self.0)[k / DISPATCH_CHUNK];
        Arc::make_mut(chunk)[k % DISPATCH_CHUNK] = slot;
    }
}

/// A shard's dispatch slots by global profile id, aligned with its
/// filter's ids, tombstones included: the compiled base's, then the
/// overlay's, each in its own [`Chunks`], so a change to the overlay
/// shares the base whole.
#[derive(Clone)]
pub(super) struct Dispatch {
    base: Chunks,
    overlay: Chunks,
}

impl Dispatch {
    /// The table of `slots`, the first `base` of them compiled.
    fn new(slots: impl IntoIterator<Item = DispatchEntry>, base: usize) -> Self {
        let mut slots = slots.into_iter();
        Dispatch {
            base: Chunks::new(slots.by_ref().take(base)),
            overlay: Chunks::new(slots),
        }
    }

    /// Id `g`'s slot, under a base of `base` slots.
    #[inline]
    pub(super) fn get(&self, g: usize, base: usize) -> &DispatchEntry {
        match g.checked_sub(base) {
            None => self.base.get(g),
            Some(k) => self.overlay_slot(k),
        }
    }

    /// Overlay position `k`'s slot, out of line and cold so a compiled
    /// id's lookup branches on the region: a select costs a load more.
    #[cold]
    #[inline(never)]
    fn overlay_slot(&self, k: usize) -> &DispatchEntry {
        self.overlay.get(k)
    }

    /// Puts id `g`'s slot — of the table, or the first past its end —
    /// under a base of `base` slots.
    fn set(&mut self, g: usize, base: usize, slot: DispatchEntry) {
        match g.checked_sub(base) {
            None => self.base.set(g, slot),
            Some(k) => self.overlay.set(k, slot),
        }
    }

    /// The global id among the first `len`, under a base of `base` slots,
    /// whose slot holds `id` (no two do; padding, id 0, comes last).
    fn find(&self, base: usize, len: usize, id: SubscriptionId) -> Option<usize> {
        let find = |chunks: &Chunks, n| {
            let at = |(c, chunk): (usize, &Arc<[DispatchEntry; DISPATCH_CHUNK]>)| {
                Some(c * DISPATCH_CHUNK + chunk.iter().position(|e| e.id == id)?)
            };
            chunks.0.iter().enumerate().find_map(at).filter(|&k| k < n)
        };
        let overlay = find(&self.overlay, len - base).map(|k| base + k);
        overlay.or_else(|| find(&self.base, base))
    }
}

/// A covered entry's compiled representative and residual.
type Cover = (u32, Vec<Residual>);

/// What an operation is about to do to a shard's entries (positions
/// ascending).
#[derive(Default)]
struct Change {
    /// Entries joining, behind the overlay's, each with its dispatch
    /// slot and what the containment probe found: the compiled
    /// representative covering it and the residual, or `None` for one
    /// the counting index is to match. The commit hands slot and answer
    /// to the snapshot, their only holder; the writer keeps the entry.
    add: Vec<(SubEntry, DispatchEntry, Option<Cover>)>,
    /// Global ids of the live entries being cancelled.
    drop: Vec<usize>,
    /// Whether the overlay is packed: rebuilt at dense positions from
    /// its live entries once `drop` is tombstoned (never beside `add`).
    pack: bool,
}

impl Change {
    /// Whether global id `g`, served by `filter`, is live once this
    /// commits: the live ones, ascending, are the compaction order.
    fn keeps(&self, filter: &FilterSnapshot, g: usize) -> bool {
        filter.is_live(g) && self.drop.binary_search(&g).is_err()
    }
}

/// The fallible first half of a recompile ([`ShardWriter::stage`]): the
/// population about to be compiled and the configuration to compile it
/// under. Nothing of the shard has changed yet, so a staged recompile
/// can be priced and dropped.
pub(super) struct Staged {
    /// Size of the live population.
    population: usize,
    /// Its covering analysis, with [`BrokerConfig::covering`] on.
    cover: Option<CoverSet>,
    /// The shard's schema.
    pub(super) schema: Arc<Schema>,
    /// The profiles that enter the tree, lowered: the representatives
    /// of `cover`, or the whole population in compaction order.
    pub(super) compiled: LoweredTable,
    /// The shape to compile and the weights of the compiled profiles.
    /// Its event model is the one to compile under for a shape that
    /// reads one, else the configured prior, passed along unread.
    pub(super) config: TreeConfig,
    /// The event history on the cells of `compiled`, the drift
    /// tracker's once the recompile commits.
    history: RebinnedHistory,
    /// Time spent on this recompile so far (pricing it excluded), and
    /// the parts of it that went into the containment pass, the event
    /// model (zero for a shape that reads none) and the build of the
    /// automaton and its expansion plan.
    pub(super) spent: Duration,
    cover_time: Duration,
    model_time: Duration,
    tree_time: Duration,
}

impl Staged {
    /// The event model a rebuild is priced under: the one the tree is
    /// compiled under or, for a shape that reads none, the one it would
    /// be compiled under, built here.
    pub(super) fn model(&self) -> Result<JointDist, ServiceError> {
        match &self.config.event_model {
            Some(model) if self.config.uses_event_model() => Ok(model.clone()),
            prior => Ok(self.history.model(prior.as_ref())?),
        }
    }

    /// Compiles the filter a commit serves from for the staged
    /// population and configuration: its automaton, or `built` where a
    /// drift trigger's pricing has built that automaton already, and
    /// the expansion plan.
    pub(super) fn compile(&mut self, built: Option<Dfsa>) -> Result<FilterSnapshot, ServiceError> {
        let t0 = Instant::now();
        let dfsa = match built {
            Some(dfsa) => dfsa,
            None => Dfsa::build_lowered(&self.schema, &self.compiled, &self.config)?,
        };
        let filter = FilterSnapshot::from_dfsa(dfsa, self.population, self.cover.as_ref())?;
        self.tree_time = t0.elapsed();
        self.spent += self.tree_time;
        Ok(filter)
    }
}

/// A recompile ready to commit: `filter` was compiled from `staged`.
struct Recompile {
    staged: Staged,
    filter: FilterSnapshot,
    /// Passed on to [`DriftTracker::rebuilt`].
    migrated: bool,
    /// What the swap counts it as, if anything.
    counter: Option<fn(&Metrics) -> &AtomicU64>,
}

/// A change staged on one shard ([`ShardGuard::stage_commit`]): the
/// snapshot it publishes and, for a recompile, what the writer takes
/// over with it. Built with the writer untouched; committing it
/// ([`ShardGuard::install`]) cannot fail, so a bulk load stages every
/// shard it touches before it commits any.
pub(super) struct Pending {
    change: Change,
    snapshot: ShardSnapshot,
    folded: Option<Folded>,
}

/// What a recompile hands the writer: the containment index of the
/// population it compiled, the drift tracker over the new cells, the
/// counter it moves and its journal record.
struct Folded {
    cover: Option<CoverSet>,
    tracker: DriftTracker,
    counter: Option<fn(&Metrics) -> &AtomicU64>,
    compacted: Decision,
}

/// Writer-side state of one shard, guarded by [`Shard::writer`].
pub(super) struct ShardWriter {
    /// Each subscription's profile and weight, by global profile id:
    /// the compiled base — tombstoned entries stay until the next
    /// recompile — then the overlay, those that arrived since, where a
    /// cancelled entry keeps its position until the next pack. Where
    /// the base ends, which entries are live, and how each overlay
    /// entry is matched — by the counting index, or through a compiled
    /// representative — the published snapshot alone holds.
    entries: Vec<SubEntry>,
    /// Containment index over the compiled base — its representatives
    /// alone, the expansion map being the snapshot's plan — rebuilt by
    /// every recompile when `covering` is on. Slot `s` is the index into
    /// `entries`: a recompile rebuilds both in the same order and the
    /// base is append-free in between, so the alignment holds until the
    /// next.
    cover: Option<CoverSet>,
    pub(super) tracker: DriftTracker,
    /// The shard's *active* tree configuration. Starts as
    /// [`BrokerConfig::tree`]; an accepted retune replaces its attribute
    /// order and search strategy, so every later recompile (churn or
    /// drift) keeps compiling the tuned shape.
    tree: TreeConfig,
    schema: Arc<Schema>,
    /// [`BrokerConfig::covering`].
    covering: bool,
    /// [`BrokerConfig::tuning`].
    tuning: bool,
    metrics: Arc<Metrics>,
    /// The broker's decision journal, and the index this shard signs
    /// its records with.
    journal: Arc<Journal>,
    index: usize,
}

impl ShardWriter {
    /// The one place a [`ShardSnapshot`] is made: the shard as it will
    /// be once `change` is committed over `prev`, through `compiled`
    /// where the change recompiles (overlay folded in, tombstones gone).
    /// Owns the dispatch table (aligned with the filter's profile ids,
    /// tombstones included), built from `prev`'s slots and the joining
    /// ones.
    ///
    /// From the published snapshot a change touches only its own entry,
    /// and never copies the shard: a covered subscribe appends one child
    /// to a copy of the expansion map and one slot to a copy of the
    /// overlay's dispatch chunks; an uncovered one also rebuilds the
    /// counting index over the entries the published snapshot says it
    /// matches; an unsubscribe, compiled or overlay alike, sets one bit
    /// in a copy of its region's tombstone bitmap and severs its slot
    /// in a copy of its dispatch chunk. A pack rebuilds the overlay from
    /// its live entries, each matched as the published snapshot matched
    /// it, O(overlay). Whether the snapshot samples follows the shape:
    /// `compiled`'s configuration's for a recompile, `prev`'s otherwise.
    fn snapshot_after(
        &self,
        prev: &ShardSnapshot,
        change: &Change,
        compiled: Option<(FilterSnapshot, &TreeConfig)>,
    ) -> Result<ShardSnapshot, ServiceError> {
        let base = prev.filter.base_len();
        let kept_slot = |g| prev.dispatch.get(g, base).clone();
        if let Some((filter, tree)) = compiled {
            let kept = (0..self.entries.len()).filter(|&g| change.keeps(&prev.filter, g));
            let joining = change.add.iter().map(|(_, slot, _)| slot.clone());
            let dispatch = Dispatch::new(kept.map(kept_slot).chain(joining), filter.base_len());
            let samples = self.samples(tree);
            return Ok(ShardSnapshot {
                filter,
                dispatch,
                samples,
            });
        }
        let (mut filter, mut dispatch) = (prev.filter.clone(), prev.dispatch.clone());
        for &g in &change.drop {
            filter = filter.with_removed(g);
            dispatch.set(g, base, severed(dispatch.get(g, base).id));
        }
        let overlay = &self.entries[base..];
        if change.pack {
            filter = filter.with_overlay_packed(overlay.iter().map(|e| &e.profile))?;
            let kept = (base..self.entries.len()).filter(|&g| change.keeps(&prev.filter, g));
            dispatch.overlay = Chunks::new(kept.map(kept_slot));
        }
        for (n, (e, slot, cover)) in change.add.iter().enumerate() {
            dispatch.set(self.entries.len() + n, base, slot.clone());
            filter = match cover {
                Some((rep, residual)) => filter.with_covered_entry(*rep, residual)?,
                None => {
                    let joined = change.add[..n].iter().map(|(e, _, _)| e);
                    let overlay = overlay.iter().chain(joined);
                    filter.with_indexed_entry(&e.profile, overlay.map(|e| &e.profile))?
                }
            };
        }
        let samples = prev.samples;
        Ok(ShardSnapshot {
            filter,
            dispatch,
            samples,
        })
    }

    /// Whether a shard compiled under `tree` samples its drift
    /// statistics: iff a drift trigger on it would have a candidate to
    /// price ([`tuning::candidates`]).
    fn samples(&self, tree: &TreeConfig) -> bool {
        !tuning::candidates(tree, self.tuning).is_empty()
    }

    /// First half of a recompile of the shard as `change` leaves it over
    /// `prev`, under the configuration `tree`: everything up to the tree
    /// build. Folds the overlay in, drops the tombstones and re-binds the
    /// drift history onto the new cells. A shape that reads an event model
    /// gets the one the history stands for — the empirical estimate,
    /// whose history survives the change of cell geometry, or `tree`'s
    /// while that is still the better-founded prior; no other shape has
    /// one built.
    fn stage(
        &self,
        prev: &FilterSnapshot,
        change: &Change,
        tree: TreeConfig,
    ) -> Result<Staged, ServiceError> {
        let t0 = Instant::now();
        // One lowering per compile: the containment pass, the drift
        // statistics and the automaton build all read this table.
        let mut lowered = LoweredTable::new(&self.schema);
        let mut weights = Vec::with_capacity(self.entries.len() + change.add.len());
        let kept = (0..self.entries.len()).filter(|&g| change.keeps(prev, g));
        let joining = change.add.iter().map(|(e, _, _)| e);
        for e in kept.map(|g| &self.entries[g]).chain(joining) {
            lowered.push(&self.schema, &e.profile)?;
            weights.push(e.weight);
        }
        let uniform = weights.iter().all(|w| (*w - 1.0).abs() < f64::EPSILON);

        // One bulk containment pass over the whole live population
        // (general-first sweep, not per-profile probes): only the
        // representative antichain is compiled, everything else joins
        // the expansion map.
        let t_cover = Instant::now();
        let cover = self
            .covering
            .then(|| CoverSet::build_lowered(&self.schema, &lowered));
        // Statistics geometry and profile weights follow the set that
        // is actually compiled — the representatives under covering.
        // A representative keeps its own weight: its covered
        // subscriptions ride the same compiled states for free, so
        // boosting it further would distort the V2/V3 orderings.
        let population = lowered.rows();
        let compiled = match &cover {
            Some(cs) => lowered.select(cs.rep_slots()),
            None => lowered,
        };
        let cover_time = t_cover.elapsed();
        let weights = if uniform {
            None
        } else {
            Some(match &cover {
                Some(cs) => cs
                    .rep_slots()
                    .iter()
                    .map(|&s| weights[s as usize])
                    .collect(),
                None => weights,
            })
        };

        let history = self.tracker.rebin(&compiled, tree.event_model.as_ref())?;
        let (event_model, model_time) = if tree.uses_event_model() {
            let t_model = Instant::now();
            let model = history.model(tree.event_model.as_ref())?;
            (Some(model), t_model.elapsed())
        } else {
            (tree.event_model, Duration::ZERO)
        };
        Ok(Staged {
            schema: Arc::clone(&self.schema),
            population,
            cover,
            compiled,
            config: TreeConfig {
                profile_weights: weights,
                event_model,
                ..tree
            },
            history,
            spent: t0.elapsed(),
            cover_time,
            model_time,
            tree_time: Duration::ZERO,
        })
    }

    /// The shard's active tree configuration.
    pub(super) fn active_config(&self) -> &TreeConfig {
        &self.tree
    }
}

/// One shard: the snapshot the publish paths read, and the writer state
/// it is derived from.
pub(super) struct Shard {
    /// Replaced by [`ShardGuard::install`] and by nothing else.
    pub(super) snapshot: RwLock<Arc<ShardSnapshot>>,
    writer: Mutex<ShardWriter>,
}

impl Shard {
    /// An empty shard.
    pub(super) fn new(
        index: usize,
        schema: &Arc<Schema>,
        config: &BrokerConfig,
        metrics: &Arc<Metrics>,
        journal: &Arc<Journal>,
    ) -> Result<Self, ServiceError> {
        let nothing = ProfileSet::new(schema);
        let tracker = DriftTracker::new(&nothing, config.rebuild)?;
        // Distribution-dependent strategies need a model before any
        // event arrived: seed the first tree with the (uniform)
        // empirical model of an empty history.
        let mut tree = config.tree.clone();
        if tree.event_model.is_none() && tree.uses_event_model() {
            tree.event_model = Some(tracker.statistics().empirical_model()?);
        }
        let filter = FilterSnapshot::compile(&nothing, &tree)?;
        let writer = ShardWriter {
            entries: Vec::new(),
            cover: None,
            tracker,
            tree: config.tree.clone(),
            schema: Arc::clone(schema),
            covering: config.covering,
            tuning: config.tuning,
            metrics: Arc::clone(metrics),
            journal: Arc::clone(journal),
            index,
        };
        Ok(Shard::over(writer, filter, Dispatch::new([], 0)))
    }

    /// Restores a shard from its checkpoint form: no recompilation — the
    /// serialized profile tree is taken as it is and lowered. Every live entry
    /// is attached to a fresh channel, whose consumer end goes into
    /// `subscribers` under the subscription's id; a tombstoned one gets
    /// its [`severed`] slot.
    pub(super) fn restore(
        index: usize,
        schema: &Arc<Schema>,
        config: &BrokerConfig,
        metrics: &Arc<Metrics>,
        journal: &Arc<Journal>,
        cs: CheckpointShard,
        subscribers: &mut BTreeMap<u64, Subscriber>,
    ) -> Result<Self, ServiceError> {
        let filter = FilterSnapshot::from_bytes(&cs.filter)?;
        let tombstones = cs.base.iter().filter(|e| e.tombstoned).count();
        let misplaced = |(g, e): (usize, &CheckpointEntry)| e.tombstoned == filter.is_live(g);
        if filter.base_len() != cs.base.len()
            || filter.overlay_len() != cs.overlay.len()
            || cs.base.iter().enumerate().any(misplaced)
            || cs.overlay.iter().any(|e| e.tombstoned)
        {
            return Err(ServiceError::Persist(format!(
                "checkpoint entries ({} base, {tombstones} tombstoned, {} overlay) do not \
                 line up with the shard's filter snapshot ({}, {}, {})",
                cs.base.len(),
                cs.overlay.len(),
                filter.base_len(),
                filter.removed_len(),
                filter.overlay_len()
            )));
        }
        let mut slots = Vec::with_capacity(cs.base.len() + cs.overlay.len());
        let attach = |e: CheckpointEntry| {
            let id = SubscriptionId::new(e.id);
            slots.push(if e.tombstoned {
                severed(id)
            } else {
                let (sender, rx) = notify_channel(config);
                subscribers.insert(e.id, Subscriber::new(id, rx));
                DispatchEntry { id, sender }
            });
            let (profile, weight) = (e.profile, e.weight);
            SubEntry { profile, weight }
        };
        let entries: Vec<SubEntry> = cs.base.into_iter().chain(cs.overlay).map(attach).collect();
        let dispatch = Dispatch::new(slots, filter.base_len());
        let base = &entries[..filter.base_len()];
        // The containment index is rebuilt from the plan's
        // representatives alone — re-hashed, no containment re-derived;
        // the expansion map stays in the restored plan.
        let cover = match (config.covering, filter.cover_plan()) {
            (true, Some(plan)) => {
                let reps = plan.rep_slots().iter();
                let reps = reps.map(|&s| (s, &base[s as usize].profile));
                Some(CoverSet::from_parts(schema, reps, [])?)
            }
            // A checkpoint written with covering off (or vice versa):
            // the next recompile switches the shard over.
            _ => None,
        };
        // Drift statistics are not persisted: the tracker starts with no
        // history, over the cells of the profiles the restored
        // automaton was compiled from — the representatives under
        // covering, else every base entry — and warms up as a fresh
        // compile's would.
        let reps = filter.cover_plan().map(|plan| plan.rep_slots());
        let mut compiled = ProfileSet::new(schema);
        for (slot, e) in base.iter().enumerate() {
            if reps.is_none_or(|reps| reps.binary_search(&(slot as u32)).is_ok()) {
                compiled.insert(e.profile.clone());
            }
        }
        let tracker = DriftTracker::new(&compiled, config.rebuild)?;
        let writer = ShardWriter {
            entries,
            cover,
            tracker,
            tree: cs.tree,
            schema: Arc::clone(schema),
            covering: config.covering,
            tuning: config.tuning,
            metrics: Arc::clone(metrics),
            journal: Arc::clone(journal),
            index,
        };
        Ok(Shard::over(writer, filter, dispatch))
    }

    /// The shard `writer` serves through `filter` and `dispatch`, under
    /// its active shape.
    fn over(writer: ShardWriter, filter: FilterSnapshot, dispatch: Dispatch) -> Self {
        let samples = writer.samples(&writer.tree);
        let snapshot = ShardSnapshot {
            filter,
            dispatch,
            samples,
        };
        let (snapshot, writer) = (RwLock::new(Arc::new(snapshot)), Mutex::new(writer));
        Shard { snapshot, writer }
    }

    /// Takes the writer lock.
    pub(super) fn lock(&self) -> ShardGuard<'_> {
        let w = self.writer.lock();
        ShardGuard { shard: self, w }
    }

    /// Takes the writer lock if nobody holds it.
    pub(super) fn try_lock(&self) -> Option<ShardGuard<'_>> {
        let w = self.writer.try_lock()?;
        Some(ShardGuard { shard: self, w })
    }
}

/// A shard with its writer lock held.
pub(super) struct ShardGuard<'a> {
    shard: &'a Shard,
    w: MutexGuard<'a, ShardWriter>,
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = ShardWriter;

    fn deref(&self) -> &ShardWriter {
        &self.w
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut ShardWriter {
        &mut self.w
    }
}

impl ShardGuard<'_> {
    /// Adds one subscription. It is appended to the overlay — a covered
    /// one costs a containment probe and a copy of the covered entries'
    /// expansion map and of the overlay dispatch table, an uncovered one
    /// a rebuild of the counting index over the entries it matches;
    /// neither depends on the compiled subscription count — unless that
    /// fills the overlay, or the shard has compiled nothing yet.
    pub(super) fn add(&mut self, sub: SubEntry, slot: DispatchEntry) -> Result<(), ServiceError> {
        // Probe the containment index first: a covered subscribe rides
        // its representative's compiled states through the expansion
        // map (zero added matching cost); an uncovered one joins the
        // counting index.
        let cover = match &self.cover {
            Some(cs) => match cs.probe(&sub.profile)? {
                CoverOutcome::Covered { rep, residual } => {
                    let Some(compiled) = cs.compiled_index_of(rep) else {
                        return Err(ServiceError::Persist(format!(
                            "the containment probe named slot {rep}, not a representative"
                        )));
                    };
                    Some((compiled, residual))
                }
                CoverOutcome::Rep => None,
            },
            None => None,
        };
        let filter = &self.published().filter;
        let overlay = filter.overlay_len() - filter.overlay_removed_len() + 1;
        let full = filter.base_len() == 0 || self.tracker.policy().compaction_due(overlay);
        let change = Change {
            add: vec![(sub, slot, cover)],
            ..Change::default()
        };
        self.apply(change, full)
    }

    /// Stages a bulk load of `subs` and their dispatch slots, compiled
    /// in at once with no per-profile probes: the recompile runs the
    /// bulk containment pass over the whole population. Nothing changes
    /// before [`ShardGuard::install`].
    pub(super) fn stage_bulk(
        &self,
        subs: Vec<(SubEntry, DispatchEntry)>,
    ) -> Result<Pending, ServiceError> {
        let add = subs.into_iter().map(|(sub, slot)| (sub, slot, None));
        let change = Change {
            add: add.collect(),
            ..Change::default()
        };
        self.stage_recompile(change, self.tree.clone(), Some(|m| &m.overlay_compactions))
    }

    /// Cancels the live subscription `id`: it is tombstoned — matching
    /// skips it from the next snapshot on — or, past the thresholds,
    /// packed out of the overlay or compiled out. Finding it is a scan
    /// of the published dispatch slots, overlay first, and a slot the
    /// published filter says is dead is refused; the rest touches only
    /// its own entry.
    ///
    /// The overlay is packed once its tombstones reach its live
    /// entries, so emptying an overlay of `n` one entry at a time packs
    /// ⌈log₂ n⌉ + 1 times, and a tombstone never outweighs a live entry.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSubscription`] if `id` is not live.
    pub(super) fn remove(&mut self, id: SubscriptionId) -> Result<(), ServiceError> {
        let published = self.published();
        let (filter, policy) = (&published.filter, self.tracker.policy());
        let base = filter.base_len();
        let found = published.dispatch.find(base, self.entries.len(), id);
        let live = found.filter(|&g| filter.is_live(g));
        let g = live.ok_or(ServiceError::UnknownSubscription(id))?;
        let (full, pack) = match g.checked_sub(base) {
            None => (policy.compaction_due(filter.removed_len() + 1), false),
            Some(_) => {
                let dead = filter.overlay_removed_len() + 1;
                (false, dead >= filter.overlay_len() - dead)
            }
        };
        let change = Change {
            drop: vec![g],
            pack,
            ..Change::default()
        };
        self.apply(change, full)
    }

    /// Packs the overlay if it holds tombstones: what a checkpoint does
    /// first, its image having none.
    pub(super) fn pack(&mut self) -> Result<(), ServiceError> {
        if self.published().filter.overlay_removed_len() == 0 {
            return Ok(());
        }
        let change = Change {
            pack: true,
            ..Change::default()
        };
        self.apply(change, false)
    }

    /// Replays an accepted retune: switches the shard's active shape and
    /// prior and recompiles, exactly like the drift rebuild that was
    /// logged did (and counted).
    pub(super) fn retune(
        &mut self,
        attribute_order: AttributeOrder,
        search: SearchStrategy,
        event_model: JointDist,
    ) -> Result<(), ServiceError> {
        let tree = TreeConfig {
            attribute_order,
            search,
            event_model: Some(event_model),
            ..self.tree.clone()
        };
        let pending = self.stage_recompile(Change::default(), tree.clone(), None)?;
        self.install(pending);
        self.tree = tree;
        Ok(())
    }

    /// Stages a recompile of the shard as it is, for the broker to
    /// price; [`ShardGuard::rebuild`] commits it, dropping it abandons
    /// it.
    pub(super) fn stage(&self) -> Result<Staged, ServiceError> {
        let prev = &self.published().filter;
        self.w.stage(prev, &Change::default(), self.tree.clone())
    }

    /// Commits a drift rebuild: `filter`, compiled from `staged` (whose
    /// shape becomes the shard's), is what the shard serves from here
    /// on. `migrated`: see [`DriftTracker::rebuilt`].
    pub(super) fn rebuild(
        &mut self,
        staged: Staged,
        filter: FilterSnapshot,
        migrated: bool,
    ) -> Result<(), ServiceError> {
        let shape = (staged.config.attribute_order.clone(), staged.config.search);
        let recompile = Recompile {
            staged,
            filter,
            migrated,
            counter: Some(|m| &m.tree_rebuilds),
        };
        let pending = self.stage_commit(Change::default(), Some(recompile))?;
        self.install(pending);
        (self.tree.attribute_order, self.tree.search) = shape;
        Ok(())
    }

    /// The snapshot the shard serves: what the last commit published.
    fn published(&self) -> Arc<ShardSnapshot> {
        self.shard.snapshot.read().clone()
    }

    /// Commits `change`, through a churn compaction if `full`.
    fn apply(&mut self, change: Change, full: bool) -> Result<(), ServiceError> {
        let pending = if full {
            let tree = self.tree.clone();
            self.stage_recompile(change, tree, Some(|m| &m.overlay_compactions))?
        } else {
            self.stage_commit(change, None)?
        };
        self.install(pending);
        Ok(())
    }

    /// Stages `change` by compiling what it leaves under `tree`.
    fn stage_recompile(
        &self,
        change: Change,
        tree: TreeConfig,
        counter: Option<fn(&Metrics) -> &AtomicU64>,
    ) -> Result<Pending, ServiceError> {
        let mut staged = self.w.stage(&self.published().filter, &change, tree)?;
        let recompile = Recompile {
            filter: staged.compile(None)?,
            staged,
            migrated: false,
            counter,
        };
        self.stage_commit(change, Some(recompile))
    }

    /// Stage: the next snapshot, from the writer as it is plus `change`
    /// — compiled, or derived from the published one — and, for a
    /// recompile, the state the writer takes over with it. Everything
    /// that can fail happens here, and nothing of the shard changes.
    fn stage_commit(
        &self,
        change: Change,
        recompile: Option<Recompile>,
    ) -> Result<Pending, ServiceError> {
        let (w, prev) = (&*self.w, self.published());
        let (snapshot, folded) = match recompile {
            Some(r) => {
                let folded = Folded {
                    compacted: Decision::Compacted {
                        shard: w.index,
                        population: r.staged.population,
                        compiled: r.staged.compiled.rows(),
                        model_ns: r.staged.model_time.as_nanos() as u64,
                        cover_ns: r.staged.cover_time.as_nanos() as u64,
                        tree_ns: r.staged.tree_time.as_nanos() as u64,
                    },
                    tracker: w.tracker.rebuilt(r.staged.history, r.migrated)?,
                    cover: r.staged.cover,
                    counter: r.counter,
                };
                let compiled = Some((r.filter, &r.staged.config));
                let snapshot = w.snapshot_after(&prev, &change, compiled)?;
                (snapshot, Some(folded))
            }
            None => (w.snapshot_after(&prev, &change, None)?, None),
        };
        Ok(Pending {
            change,
            snapshot,
            folded,
        })
    }

    /// Commit and swap, which cannot fail: the entries, in the order the
    /// staged snapshot's tables are in — a cancelled one stays, the
    /// staged filter alone tombstoning it, until a pack or a recompile
    /// rebuilds the tables it is in; new ones are appended — then the
    /// snapshot is published.
    pub(super) fn install(&mut self, pending: Pending) {
        let prev = self.published();
        let (w, change) = (&mut *self.w, pending.change);
        let base = pending.snapshot.filter.base_len();
        // A pack drops the overlay's dead entries, a recompile all of them.
        let from = if change.pack { base } else { 0 };
        if change.pack || pending.folded.is_some() {
            let rebuilt = w.entries.split_off(from).into_iter().zip(from..);
            let kept = rebuilt.filter(|&(_, g)| change.keeps(&prev.filter, g));
            w.entries.extend(kept.map(|(e, _)| e));
        }
        match pending.folded {
            None if change.pack => {
                w.metrics.overlay_packs.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
            Some(f) => {
                w.entries.shrink_to_fit();
                // The plan owns the expansion map now.
                w.cover = f.cover.map(CoverSet::into_index);
                w.tracker = f.tracker;
                if let Some(counter) = f.counter {
                    counter(&w.metrics).fetch_add(1, Ordering::Relaxed);
                }
                w.journal.record(f.compacted, &w.metrics);
            }
        }
        // The overlay grows by doubling itself, not the whole list.
        let overlay = w.entries.len().saturating_sub(base);
        w.entries.reserve_exact(change.add.len().max(overlay));
        w.entries
            .extend(change.add.into_iter().map(|(sub, _, _)| sub));
        *self.shard.snapshot.write() = Arc::new(pending.snapshot);
    }

    /// Hands `f` every live subscription's id and profile.
    pub(super) fn for_each_live(&self, mut f: impl FnMut(SubscriptionId, &Profile)) {
        let published = self.published();
        let live = self.entries.iter().enumerate();
        let live = live.filter(|&(g, _)| published.filter.is_live(g));
        live.for_each(|(g, e)| f(published.entry(g as u32).id, &e.profile));
    }

    /// The shard in its checkpoint form ([`ShardGuard::pack`] first: the
    /// form has no overlay tombstones). A tombstoned compiled entry is
    /// written under the id its severed slot keeps.
    pub(super) fn checkpoint(&self) -> CheckpointShard {
        let published = self.published();
        let (filter, base) = (&published.filter, published.filter.base_len());
        let entry = |(g, e): (usize, &SubEntry)| CheckpointEntry {
            id: published.dispatch.get(g, base).id.get(),
            weight: e.weight,
            tombstoned: !filter.is_live(g),
            profile: e.profile.clone(),
        };
        let mut entries = self.entries.iter().enumerate().map(entry);
        CheckpointShard {
            tree: self.tree.clone(),
            filter: filter.to_bytes(),
            base: entries.by_ref().take(base).collect(),
            overlay: entries.collect(),
        }
    }
}
