//! One shard of the broker's subscriptions: the writer side, and the
//! only code that changes a shard.
//!
//! `broker` (the parent module) keeps the read path — the published
//! [`ShardSnapshot`] and everything that matches against it. What
//! changes a shard is here: **add** ([`ShardGuard::add`], one entry or
//! a bulk), **remove** ([`ShardGuard::remove`]), **pack** (the overlay
//! rebuilt without its tombstones, when a removal makes them reach its
//! live entries, and before a checkpoint: [`ShardGuard::pack`]),
//! **recompile** (the
//! churn compaction an add or a remove runs into, a replayed
//! [`ShardGuard::retune`], or a drift rebuild the broker priced between
//! [`ShardGuard::stage`] and [`ShardGuard::rebuild`]) and **restore**
//! from a checkpoint shard ([`Shard::restore`]).
//!
//! Each goes through [`ShardGuard::commit`]: *stage* — the next snapshot
//! is derived from the writer's entries plus the pending [`Change`] by
//! [`ShardWriter::snapshot_after`], the one place a [`ShardSnapshot`] is
//! made, with the writer untouched — then *commit* and *swap*, which
//! cannot fail. An operation that fails has changed nothing, so nothing
//! is ever rolled back.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ens_dist::JointDist;
use ens_filter::{
    AttributeOrder, Dfsa, DriftTracker, FilterSnapshot, RebinnedHistory, SearchStrategy, TreeConfig,
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

/// A subscription as the writer side keeps it. Compiled, its position
/// in [`ShardWriter::base`] is its base profile id.
pub(super) struct SubEntry {
    pub(super) id: SubscriptionId,
    pub(super) profile: Profile,
    pub(super) weight: f64,
    /// `None` once cancelled: a compiled entry keeps its slot, as a
    /// tombstone, until the next recompile, but lets go of the channel
    /// at once — it is released as soon as older snapshots retire.
    pub(super) sender: Option<Sender<Queued>>,
}

impl SubEntry {
    fn is_live(&self) -> bool {
        self.sender.is_some()
    }

    /// The entry's dispatch slot (`cancelled`: about to be tombstoned).
    fn dispatch(&self, cancelled: bool) -> DispatchEntry {
        let sender = self.sender.clone().filter(|_| !cancelled);
        DispatchEntry {
            id: self.id,
            sender: sender.unwrap_or_else(disconnected_sender),
        }
    }
}

/// A subscription that arrived since the last recompile; its position
/// in [`ShardWriter::overlay`] is its overlay profile id. A cancelled
/// entry keeps its position, as a tombstone, until the next pack.
struct OverlayEntry {
    sub: SubEntry,
    /// What the containment probe found when the entry arrived: the
    /// compiled representative covering it and the residual, or `None`
    /// for an entry the overlay index matches.
    cover: Option<(u32, Vec<Residual>)>,
    /// Compiled representatives this (uncovered) entry itself covers.
    /// Folding it in would shrink the compiled tree, so each counts
    /// toward the overlay-full threshold on top of the entry.
    dominated: usize,
}

impl OverlayEntry {
    /// The representative and residual the entry is delivered through.
    fn cover(&self) -> Option<(u32, &[Residual])> {
        let cover = self.cover.as_ref();
        cover.map(|(rep, residual)| (*rep, residual.as_slice()))
    }
}

/// A sender whose receiver is already gone: placeholder for tombstoned
/// dispatch slots (every send fails immediately; never matched anyway).
/// Every tombstone in the process clones one severed channel.
pub(super) fn disconnected_sender() -> Sender<Queued> {
    static SEVERED: OnceLock<Sender<Queued>> = OnceLock::new();
    SEVERED.get_or_init(|| channel::channel(0).0).clone()
}

/// A fresh subscriber channel under `config`'s capacity.
pub(super) fn notify_channel(config: &BrokerConfig) -> (Sender<Queued>, channel::Receiver<Queued>) {
    channel::channel(config.notify_capacity)
}

/// Overlay positions per chunk of an [`OverlayDispatch`].
const DISPATCH_CHUNK: usize = 16;

/// The dispatch slots of the overlay positions, in chunks of
/// [`DISPATCH_CHUNK`]. The next snapshot's table copies the one chunk a
/// change touches and shares the others, so appending a slot or
/// severing one costs about the same at any overlay depth.
#[derive(Clone, Default)]
pub(super) struct OverlayDispatch(Vec<Arc<Vec<DispatchEntry>>>);

impl OverlayDispatch {
    fn new(slots: impl IntoIterator<Item = DispatchEntry>) -> Self {
        let mut slots = slots.into_iter().peekable();
        let mut chunks = Vec::new();
        while slots.peek().is_some() {
            chunks.push(Arc::new(slots.by_ref().take(DISPATCH_CHUNK).collect()));
        }
        OverlayDispatch(chunks)
    }

    /// Position `k`'s slot.
    pub(super) fn get(&self, k: usize) -> &DispatchEntry {
        &self.0[k / DISPATCH_CHUNK][k % DISPATCH_CHUNK]
    }

    /// Appends a slot, in a copy of the last chunk.
    fn push(&mut self, slot: DispatchEntry) {
        match self.0.last_mut() {
            Some(last) if last.len() < DISPATCH_CHUNK => {
                let mut chunk = Vec::with_capacity(DISPATCH_CHUNK);
                chunk.extend(last.iter().cloned());
                chunk.push(slot);
                *last = Arc::new(chunk);
            }
            _ => {
                let mut chunk = Vec::with_capacity(DISPATCH_CHUNK);
                chunk.push(slot);
                self.0.push(Arc::new(chunk));
            }
        }
    }

    /// Replaces position `k`'s slot, in a copy of its chunk.
    fn set(&mut self, k: usize, slot: DispatchEntry) {
        Arc::make_mut(&mut self.0[k / DISPATCH_CHUNK])[k % DISPATCH_CHUNK] = slot;
    }
}

/// What an operation is about to do to a shard's entries (positions
/// ascending).
#[derive(Default)]
struct Change {
    /// Entries joining, behind the overlay's.
    add: Vec<OverlayEntry>,
    /// Live overlay positions being cancelled.
    drop_overlay: Vec<usize>,
    /// Live base positions being cancelled.
    drop_base: Vec<usize>,
    /// Whether the overlay is packed: rebuilt at dense positions from
    /// its live entries, instead of `drop_overlay` being tombstoned.
    pack: bool,
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
    /// population and configuration: its automaton, or `built` where
    /// the tuner has built and priced that automaton already, and the
    /// expansion plan.
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
    /// Passed on to [`DriftTracker::finish_rebuild`].
    migrated: bool,
    /// What the swap counts it as, if anything.
    counter: Option<fn(&Metrics) -> &AtomicU64>,
}

/// Where [`ShardWriter::snapshot_after`] takes the filter from.
enum Source<'a> {
    /// Compiled from [`ShardWriter::live_after`]: overlay folded in,
    /// tombstones gone.
    Compiled(FilterSnapshot),
    /// Serialized beside exactly the writer's entries, tombstones and
    /// overlay included.
    Restored(FilterSnapshot),
    /// The published snapshot's, sharing whichever half of it — compiled
    /// base, overlay — the change leaves alone.
    Published(&'a ShardSnapshot),
}

/// Writer-side state of one shard, guarded by [`Shard::writer`].
pub(super) struct ShardWriter {
    /// Compiled subscriptions (tombstoned entries stay until the next
    /// recompile).
    base: Vec<SubEntry>,
    /// How many of `base` are tombstoned.
    removed_count: usize,
    overlay: Vec<OverlayEntry>,
    /// How many of `overlay` are tombstoned.
    overlay_removed: usize,
    /// Containment index over the compiled base — its representatives
    /// alone, the expansion map being the snapshot's plan — rebuilt by
    /// every recompile when `covering` is on. Slot `s` is the index into
    /// `base`: a recompile rebuilds both in the same order and `base` is
    /// append-free in between, so the alignment holds until the next.
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
    metrics: Arc<Metrics>,
    /// The broker's decision journal, and the index this shard signs
    /// its records with.
    journal: Arc<Journal>,
    index: usize,
}

impl ShardWriter {
    /// Number of live subscriptions.
    pub(super) fn live_count(&self) -> usize {
        self.base.len() - self.removed_count + self.overlay.len() - self.overlay_removed
    }

    /// The live overlay entries as `change` leaves them.
    fn overlay_after<'a>(&'a self, change: &'a Change) -> impl Iterator<Item = &'a OverlayEntry> {
        let stays = |(k, e): (usize, &'a OverlayEntry)| {
            (e.sub.is_live() && change.drop_overlay.binary_search(&k).is_err()).then_some(e)
        };
        self.overlay
            .iter()
            .enumerate()
            .filter_map(stays)
            .chain(&change.add)
    }

    /// The overlay positions the counting index matches once the first
    /// `n` entries of `change.add` have joined: the live uncovered ones.
    fn indexed_after<'a>(
        &'a self,
        change: &'a Change,
        n: usize,
    ) -> impl Iterator<Item = (u32, &'a Profile)> {
        let entries = self.overlay.iter().chain(&change.add[..n]).enumerate();
        let indexed = move |(k, e): &(usize, &OverlayEntry)| {
            e.cover.is_none() && e.sub.is_live() && change.drop_overlay.binary_search(k).is_err()
        };
        entries
            .filter(indexed)
            .map(|(k, e)| (k as u32, &e.sub.profile))
    }

    /// The live entries as `change` leaves them (non-tombstoned base,
    /// then overlay): compaction order.
    fn live_after<'a>(&'a self, change: &'a Change) -> impl Iterator<Item = &'a SubEntry> {
        let live = |(k, e): (usize, &'a SubEntry)| {
            (e.is_live() && change.drop_base.binary_search(&k).is_err()).then_some(e)
        };
        let base = self.base.iter().enumerate().filter_map(live);
        base.chain(self.overlay_after(change).map(|e| &e.sub))
    }

    /// The one place a [`ShardSnapshot`] is made: the shard as it will
    /// be once `change` is committed. Owns the dispatch tables (aligned
    /// with the filter's profile ids, tombstones included).
    ///
    /// From the published snapshot a change to the overlay touches only
    /// its own entry, and never depends on the compiled subscription
    /// count: a covered subscribe appends one child to a copy of the
    /// expansion map and one slot to a copy of the overlay dispatch
    /// table; an uncovered one also rebuilds the counting index over the
    /// uncovered entries; an unsubscribe sets one tombstone bit and
    /// severs its slot. A pack rebuilds the overlay from its live
    /// entries, O(overlay). A compiled entry's tombstone is one pass over
    /// the base.
    fn snapshot_after(
        &self,
        change: &Change,
        source: Source<'_>,
    ) -> Result<ShardSnapshot, ServiceError> {
        let cancelled = |k: usize| change.drop_base.binary_search(&k).is_ok();
        let base_table = || {
            let slots = self.base.iter().enumerate();
            Arc::new(
                slots
                    .map(|(k, e)| e.dispatch(cancelled(k)))
                    .collect::<Vec<_>>(),
            )
        };
        let overlay_table =
            || OverlayDispatch::new(self.overlay_after(change).map(|e| e.sub.dispatch(false)));
        let (filter, base_dispatch, overlay_dispatch) = match source {
            Source::Compiled(filter) => {
                let slots = self.live_after(change).map(|e| e.dispatch(false));
                let slots = Arc::new(slots.collect::<Vec<_>>());
                (filter, slots, OverlayDispatch::default())
            }
            Source::Restored(filter) => (filter, base_table(), overlay_table()),
            Source::Published(prev) => {
                let mut filter = prev.filter.clone();
                let mut base_dispatch = Arc::clone(&prev.base_dispatch);
                let mut overlay_dispatch = prev.overlay_dispatch.clone();
                if change.pack {
                    let entries = self.overlay_after(change);
                    filter = filter
                        .with_overlay_entries(entries.map(|e| (&e.sub.profile, e.cover())))?;
                    overlay_dispatch = overlay_table();
                } else {
                    for &k in &change.drop_overlay {
                        filter = filter.with_overlay_removed(k);
                        overlay_dispatch.set(k, self.overlay[k].sub.dispatch(true));
                    }
                    for (n, e) in change.add.iter().enumerate() {
                        filter = match e.cover() {
                            Some((rep, residual)) => filter.with_covered_entry(rep, residual)?,
                            None => {
                                let indexed = self.indexed_after(change, n);
                                filter.with_indexed_entry(&e.sub.profile, indexed)?
                            }
                        };
                        overlay_dispatch.push(e.sub.dispatch(false));
                    }
                }
                if !change.drop_base.is_empty() {
                    let tombstones = self.base.iter().enumerate();
                    let tombstones = tombstones.map(|(k, e)| !e.is_live() || cancelled(k));
                    filter = filter.with_removed(tombstones.collect());
                    base_dispatch = base_table();
                }
                (filter, base_dispatch, overlay_dispatch)
            }
        };
        Ok(ShardSnapshot {
            filter,
            base_dispatch,
            overlay_dispatch,
        })
    }

    /// First half of a recompile of the shard as `change` leaves it,
    /// under the configuration `tree`: everything up to the tree build.
    /// Folds the overlay in, drops the tombstones and re-binds the drift
    /// history onto the new cells. A shape that reads an event model
    /// gets the one the history stands for — the empirical estimate,
    /// whose history survives the change of cell geometry, or `tree`'s
    /// while that is still the better-founded prior; no other shape has
    /// one built.
    fn stage(&self, change: &Change, tree: TreeConfig) -> Result<Staged, ServiceError> {
        let t0 = Instant::now();
        // One lowering per compile: the containment pass, the drift
        // statistics and the automaton build all read this table.
        let mut lowered = LoweredTable::new(&self.schema);
        let mut weights = Vec::with_capacity(self.live_count() + change.add.len());
        for e in self.live_after(change) {
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

    /// The live subscriptions: id and profile.
    pub(super) fn live_entries(&self) -> impl Iterator<Item = (SubscriptionId, &Profile)> {
        let overlay = self.overlay.iter().map(|e| &e.sub);
        let entries = self.base.iter().chain(overlay).filter(|e| e.is_live());
        entries.map(|e| (e.id, &e.profile))
    }

    /// Live overlay entries the overlay index matches: covered ones cost
    /// nothing at match time.
    pub(super) fn overlay_uncovered(&self) -> usize {
        let uncovered = |e: &&OverlayEntry| e.cover.is_none() && e.sub.is_live();
        self.overlay.iter().filter(uncovered).count()
    }

    /// The shard's active tree configuration.
    pub(super) fn active_config(&self) -> &TreeConfig {
        &self.tree
    }
}

/// One shard: the snapshot the publish paths read, and the writer state
/// it is derived from.
pub(super) struct Shard {
    /// Replaced by [`ShardGuard::commit`] and by nothing else.
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
            base: Vec::new(),
            removed_count: 0,
            overlay: Vec::new(),
            overlay_removed: 0,
            cover: None,
            tracker,
            tree: config.tree.clone(),
            schema: Arc::clone(schema),
            covering: config.covering,
            metrics: Arc::clone(metrics),
            journal: Arc::clone(journal),
            index,
        };
        Self::serving(writer, filter)
    }

    /// Restores a shard from its checkpoint form: no recompilation — the
    /// serialized profile tree is taken as it is and lowered. Every live entry
    /// is attached to a fresh channel, whose consumer end goes into
    /// `subscribers` under the subscription's id.
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
        if filter.base_len() != cs.base.len()
            || filter.overlay_len() != cs.overlay.len()
            || filter.removed_len() != tombstones
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
        let mut attach = |e: CheckpointEntry| {
            let id = SubscriptionId::new(e.id);
            let sender = (!e.tombstoned).then(|| {
                let (tx, rx) = notify_channel(config);
                subscribers.insert(e.id, Subscriber::new(id, rx));
                tx
            });
            SubEntry {
                id,
                profile: e.profile,
                weight: e.weight,
                sender,
            }
        };
        let base: Vec<SubEntry> = cs.base.into_iter().map(&mut attach).collect();
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
        let covers = match cover {
            Some(_) => filter.overlay_cover_entries(),
            None => vec![None; cs.overlay.len()],
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
        let overlay = cs.overlay.into_iter().zip(covers);
        let overlay = overlay.map(|(e, cover)| OverlayEntry {
            sub: attach(e),
            cover,
            dominated: 0,
        });
        let writer = ShardWriter {
            base,
            removed_count: tombstones,
            overlay: overlay.collect(),
            overlay_removed: 0,
            cover,
            tracker,
            tree: cs.tree,
            schema: Arc::clone(schema),
            covering: config.covering,
            metrics: Arc::clone(metrics),
            journal: Arc::clone(journal),
            index,
        };
        Self::serving(writer, filter)
    }

    /// A shard serving `writer`'s entries as they are, through `filter`.
    fn serving(writer: ShardWriter, filter: FilterSnapshot) -> Result<Self, ServiceError> {
        let snapshot = writer.snapshot_after(&Change::default(), Source::Restored(filter))?;
        Ok(Shard {
            snapshot: RwLock::new(Arc::new(snapshot)),
            writer: Mutex::new(writer),
        })
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
    /// Adds subscriptions. One at a time, an entry is appended to the
    /// overlay — a covered one costs a containment probe and a copy of
    /// the covered entries' expansion map and of the overlay dispatch
    /// table, an uncovered one a rebuild of the counting index over the
    /// uncovered entries; neither depends on the compiled subscription
    /// count — unless that fills the overlay, or the shard has compiled
    /// nothing yet. A `bulk` is compiled in at once, with no per-profile
    /// probes: the recompile runs the bulk containment pass over the
    /// whole population.
    pub(super) fn add(
        &mut self,
        subs: impl IntoIterator<Item = SubEntry>,
        bulk: bool,
    ) -> Result<(), ServiceError> {
        let subs = subs.into_iter();
        let mut change = Change::default();
        change.add.reserve(subs.size_hint().0);
        for sub in subs {
            // Probe the containment index first: a covered subscribe
            // rides its representative's compiled states through the
            // expansion map (zero added matching cost); an uncovered one
            // that dominates compiled representatives inverts the
            // antichain and adds compaction pressure instead.
            let (cover, dominated) = match &self.cover {
                Some(cs) if !bulk => match cs.probe(&sub.profile)? {
                    CoverOutcome::Covered { rep, residual } => {
                        let Some(compiled) = cs.compiled_index_of(rep) else {
                            return Err(ServiceError::Persist(format!(
                                "the containment probe named slot {rep}, not a representative"
                            )));
                        };
                        (Some((compiled, residual)), 0)
                    }
                    CoverOutcome::Rep => (None, cs.dominated_reps(&sub.profile)?.len()),
                },
                _ => (None, 0),
            };
            change.add.push(OverlayEntry {
                sub,
                cover,
                dominated,
            });
        }
        let pressure: usize = self.overlay_after(&change).map(|e| 1 + e.dominated).sum();
        let full = bulk || self.base.is_empty() || self.tracker.policy().compaction_due(pressure);
        self.apply(change, full)
    }

    /// Cancels the live subscriptions among `ids` (ascending, not
    /// empty): they are tombstoned — matching skips them from the next
    /// snapshot on — or, past the thresholds, packed out of the overlay
    /// or compiled out.
    ///
    /// The overlay is packed once its tombstones reach its live
    /// entries, so emptying an overlay of `n` one entry at a time packs
    /// ⌈log₂ n⌉ + 1 times, and a tombstone never outweighs a live entry.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSubscription`] if none of `ids` is live.
    pub(super) fn remove(&mut self, ids: &[SubscriptionId]) -> Result<(), ServiceError> {
        let named = |e: &SubEntry| e.is_live() && ids.binary_search(&e.id).is_ok();
        let mut change = Change::default();
        let overlay = self.overlay.iter().enumerate();
        change.drop_overlay = overlay
            .filter_map(|(k, e)| named(&e.sub).then_some(k))
            .collect();
        if change.drop_overlay.len() < ids.len() {
            let base = self.base.iter().enumerate();
            change.drop_base = base.filter_map(|(k, e)| named(e).then_some(k)).collect();
        }
        if change.drop_overlay.is_empty() && change.drop_base.is_empty() {
            return Err(ServiceError::UnknownSubscription(ids[0]));
        }
        let tombstones = self.removed_count + change.drop_base.len();
        let full = !change.drop_base.is_empty() && self.tracker.policy().compaction_due(tombstones);
        let dead = self.overlay_removed + change.drop_overlay.len();
        change.pack = !full && !change.drop_overlay.is_empty() && dead >= self.overlay.len() - dead;
        self.apply(change, full)
    }

    /// Packs the overlay if it holds tombstones: what a checkpoint does
    /// first, its image having none.
    pub(super) fn pack(&mut self) -> Result<(), ServiceError> {
        if self.overlay_removed == 0 {
            return Ok(());
        }
        let change = Change {
            pack: true,
            ..Change::default()
        };
        self.commit(change, None)
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
        self.recompile(Change::default(), tree.clone(), None)?;
        self.tree = tree;
        Ok(())
    }

    /// Stages a recompile of the shard as it is, for the broker to
    /// price; [`ShardGuard::rebuild`] commits it, dropping it abandons
    /// it.
    pub(super) fn stage(&self) -> Result<Staged, ServiceError> {
        self.w.stage(&Change::default(), self.tree.clone())
    }

    /// Commits a drift rebuild: `filter`, compiled from `staged` (whose
    /// shape becomes the shard's), is what the shard serves from here
    /// on. `migrated`: see [`DriftTracker::finish_rebuild`].
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
        self.commit(Change::default(), Some(recompile))?;
        (self.tree.attribute_order, self.tree.search) = shape;
        Ok(())
    }

    /// Commits `change`, through a churn compaction if `full`.
    fn apply(&mut self, change: Change, full: bool) -> Result<(), ServiceError> {
        if !full {
            return self.commit(change, None);
        }
        let tree = self.tree.clone();
        self.recompile(change, tree, Some(|m| &m.overlay_compactions))
    }

    /// Commits `change` by compiling what it leaves under `tree`.
    fn recompile(
        &mut self,
        change: Change,
        tree: TreeConfig,
        counter: Option<fn(&Metrics) -> &AtomicU64>,
    ) -> Result<(), ServiceError> {
        let mut staged = self.w.stage(&change, tree)?;
        let recompile = Recompile {
            filter: staged.compile(None)?,
            staged,
            migrated: false,
            counter,
        };
        self.commit(change, Some(recompile))
    }

    /// Stage → commit → swap, for every operation there is.
    fn commit(&mut self, change: Change, recompile: Option<Recompile>) -> Result<(), ServiceError> {
        let w = &mut *self.w;
        // Stage: the next snapshot, from the writer as it is plus
        // `change` — compiled, or derived from the published one.
        // Everything that can fail happens here.
        let (snapshot, folded) = match recompile {
            Some(r) => {
                let compacted = Decision::Compacted {
                    shard: w.index,
                    population: r.staged.population,
                    compiled: r.staged.compiled.rows(),
                    model_ns: r.staged.model_time.as_nanos() as u64,
                    cover_ns: r.staged.cover_time.as_nanos() as u64,
                    tree_ns: r.staged.tree_time.as_nanos() as u64,
                };
                w.tracker.finish_rebuild(r.staged.history, r.migrated)?;
                let snapshot = w.snapshot_after(&change, Source::Compiled(r.filter))?;
                (snapshot, Some((r.staged.cover, r.counter, compacted)))
            }
            None => {
                let prev = self.shard.snapshot.read().clone();
                (w.snapshot_after(&change, Source::Published(&prev))?, None)
            }
        };
        // Commit: the entries, in the order the snapshot's tables are
        // in — cancelled ones tombstoned in place, new ones appended,
        // and the tombstones dropped where the tables were rebuilt.
        for &k in &change.drop_base {
            w.base[k].sender = None;
        }
        w.removed_count += change.drop_base.len();
        for &k in &change.drop_overlay {
            w.overlay[k].sub.sender = None;
        }
        w.overlay_removed += change.drop_overlay.len();
        w.overlay.extend(change.add);
        if change.pack || folded.is_some() {
            w.overlay.retain(|e| e.sub.is_live());
            w.overlay_removed = 0;
        }
        match folded {
            None if change.pack => {
                w.metrics.overlay_packs.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
            Some((cover, counter, compacted)) => {
                let mut base = Vec::with_capacity(w.live_count());
                let compiled = std::mem::take(&mut w.base).into_iter();
                base.extend(compiled.filter(SubEntry::is_live));
                let overlay = std::mem::take(&mut w.overlay).into_iter();
                base.extend(overlay.map(|e| e.sub));
                w.base = base;
                w.removed_count = 0;
                // The plan owns the expansion map now.
                w.cover = cover.map(CoverSet::into_index);
                if let Some(counter) = counter {
                    counter(&w.metrics).fetch_add(1, Ordering::Relaxed);
                }
                w.journal.record(compacted, &w.metrics);
            }
        }
        // Swap.
        *self.shard.snapshot.write() = Arc::new(snapshot);
        Ok(())
    }

    /// The shard in its checkpoint form ([`ShardGuard::pack`] first: the
    /// form has no overlay tombstones).
    pub(super) fn checkpoint(&self) -> CheckpointShard {
        let entry = |e: &SubEntry| CheckpointEntry {
            id: e.id.get(),
            weight: e.weight,
            tombstoned: !e.is_live(),
            profile: e.profile.clone(),
        };
        CheckpointShard {
            tree: self.tree.clone(),
            filter: self.shard.snapshot.read().filter.to_bytes(),
            base: self.base.iter().map(entry).collect(),
            overlay: self.overlay.iter().map(|e| entry(&e.sub)).collect(),
        }
    }
}
