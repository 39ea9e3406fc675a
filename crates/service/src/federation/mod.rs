//! Fault-tolerant broker federation.
//!
//! Connects brokers into a full mesh in the style the paper sketches
//! for distributed event notification services (and SIENA/REBECA
//! realise at scale): *subscriptions travel to where events are
//! published; matching events travel back*. Each broker forwards its
//! local subscriptions' profiles to every peer; each peer keeps a
//! per-origin **interest filter** — compiled with the same filter
//! tree the local matching engine uses — and forwards an event to a
//! peer only when that peer's interest matches. Forwarded events are
//! published at the receiving broker as ordinary events, notifying
//! its local subscribers.
//!
//! ## One routing table
//!
//! A broker keeps one record per directly connected peer — the link,
//! the interest that peer sent us with the one automaton compiled from
//! it, the ledger of the interest we sent it (one record per distinct
//! signature) — and two routines work on those records. A local
//! subscription itself has one holder, the [`Broker`]: of those made
//! through this endpoint the federation keeps the ids and reads the
//! profiles off the broker's entries when a link is added.
//!
//! * `Federation::admit`: an interest contribution (a local
//!   subscription or, multi-hop, one learned from a peer) appears,
//!   changes or goes; every ledger but the one on the source's own
//!   link is updated and the wire delta queued. Subscribing,
//!   unsubscribing, a peer's `Subscribe`/`Unsubscribe`, retiring an
//!   older incarnation's interest, retracting a subscription whose
//!   consumer hung up (the broker collects it on the next event it
//!   would have notified it of; the pump that sees the broker's
//!   collection count move holds its ids against the broker's entries)
//!   and seeding a link added later are calls to it, and it is where
//!   interest off the wire is checked: a profile that does not lower
//!   against the schema is refused and counted
//!   ([`FederationMetrics::rejected_interest`]), never stored.
//! * `Federation::forward`: rows, their origin sequences, the origin,
//!   the hops left and the peers to skip go in; one `Batch` per
//!   interested peer is queued. Publishing and transit differ in those
//!   arguments only. A peer's filter is compiled when rows are next
//!   matched against it and its interest changed since, not per
//!   `Subscribe`; rows stay one [`IndexedBatch`] from the publisher's
//!   resolve through the `Batch` message to the receiver's publish.
//!
//! ## Routing efficiency
//!
//! Two mechanisms keep the network as selective as the matcher:
//!
//! * **Covering-based interest aggregation**: each peer record
//!   carries a [`ens_types::CoverSet`]-backed ledger of every
//!   interest contribution bound for that peer, and only the minimal
//!   covering antichain is actually forwarded — a subscription covered
//!   by an already-forwarded representative costs zero wire traffic,
//!   and retracting a representative promotes its covered children
//!   (subscribes are enqueued before unsubscribes so the transition
//!   can only over-forward, never lose). Forwarded entries are keyed
//!   by the profile's canonical lowered signature, so re-learning the
//!   same interest through another path converges instead of echoing.
//!
//! * **Multi-hop forwarding** ([`FederationConfig::max_hops`], 0 by
//!   default): with a hop budget, remote interest is re-forwarded to
//!   other peers and remote event rows are routed onward along the
//!   overlay. Loop freedom then comes from per-origin routing state
//!   instead of structure: every locally published row is stamped
//!   with its origin broker id and a per-origin sequence, receivers
//!   keep a highest-seen floor per origin (exact on acyclic
//!   topologies, because links are FIFO-exactly-once and transit
//!   forwarding preserves order), rows are never forwarded back to
//!   the link they arrived on or to their origin, and the TTL bounds
//!   any residual path. Line/star/tree overlays get exactly-once,
//!   per-origin-ordered delivery without a full mesh.
//!
//! With `max_hops == 0` loop freedom is structural, as before: a
//! broker only ever forwards events its *own* application published
//! ([`Federation::publish`] / [`Federation::publish_batch`]); events
//! that arrived from a peer are injected straight into the local
//! [`Broker`] and never re-forwarded. In a full mesh every broker
//! hears every matched event exactly once. Multi-hop mode requires
//! the origin sequence state to be as durable as the link floors —
//! see [`Federation::origin_floors`] / [`Federation::set_origin_floor`]
//! and [`Federation::set_last_origin_seq`].
//!
//! Everything rides on the private `link::PeerLink`'s reliability
//! machinery — sequence numbers, cumulative acks, Go-Back-N
//! retransmission, capped-exponential reconnect backoff,
//! heartbeats — over any
//! [`transport::Transport`]: real TCP ([`transport::TcpTransport`])
//! or the seeded fault-injection network ([`sim::SimNet`]) the
//! robustness suite uses to replay drop/delay/duplicate/reorder/
//! partition/torn-write schedules deterministically.
//!
//! The federation is *pump-driven*: nothing happens between calls to
//! [`Federation::pump`], which the embedding process calls on its own
//! cadence with its own clock. That keeps the whole subsystem free of
//! threads and wall-clock reads, which is what makes crash/partition
//! tests reproducible.
//!
//! ## Durability contract
//!
//! [`PumpReport::floors`] exposes, after every pump, the highest
//! contiguous sequence received from each peer. A process that
//! persists those floors (alongside whatever it did with the
//! delivered events) and passes them back through
//! [`Federation::add_peer`] on restart gets exactly-once delivery
//! across its own crashes: the link's lazy ack guarantees a peer
//! never forgets traffic before the floor covering it could be
//! persisted, and the restored floor deduplicates the overlap that
//! at-least-once retransmission then redelivers.

pub mod link;
pub mod sim;
pub mod transport;
mod wire;

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ens_filter::{BlockScratch, Dfsa, Matcher, TreeConfig};
use ens_types::{
    profile_signature, CoverOutcome, CoverSet, Event, IndexedBatch, IndexedEvent, Profile,
    ProfileSet, Schema,
};

use crate::broker::{Broker, PublishReceipt};
use crate::error::ServiceError;
use crate::notify::Subscriber;
use crate::subscription::SubscriptionId;

use link::{LinkConfig, LinkEvent, LinkStats, PeerLink};
use transport::{AdoptSlot, AdoptState, TcpTransport, Transport};
pub use wire::schema_hash;
use wire::Msg;

/// Federation identity and link tuning for one broker process.
#[derive(Debug, Clone, Copy)]
pub struct FederationConfig {
    /// This broker's node id — unique across the federation. TCP
    /// glare avoidance keys off it: the lower id dials, the higher
    /// one accepts.
    pub node: u64,
    /// Process incarnation, announced in greetings. Bump it on
    /// restart so surviving peers re-forward their interest state.
    pub epoch: u64,
    /// Hop budget for re-forwarding remote event rows and remote
    /// interest. 0 (the default) is classic single-hop full-mesh
    /// federation: remote rows are never re-forwarded. A positive
    /// budget enables multi-hop routing over acyclic overlays
    /// (line/star/tree); see the module docs for the durability
    /// contract it adds.
    pub max_hops: u8,
    /// Per-peer link tuning.
    pub link: LinkConfig,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            node: 0,
            epoch: 1,
            max_hops: 0,
            link: LinkConfig::default(),
        }
    }
}

/// One event delivered from a peer during a pump.
#[derive(Debug, Clone)]
pub struct RemoteDelivery {
    /// The directly connected peer the row arrived from (the last
    /// hop, not necessarily the publisher).
    pub peer: u64,
    /// The event's sequence on that peer's link (monotone per peer).
    pub seq: u64,
    /// The broker that originally published the event.
    pub origin: u64,
    /// The event's position in the origin's publish order (monotone
    /// per origin; gaps mean interest filtering along the path).
    pub origin_seq: u64,
    /// The reconstructed event, already published to the local
    /// broker.
    pub event: Arc<Event>,
}

/// What one [`Federation::pump`] call accomplished.
#[derive(Debug, Default)]
pub struct PumpReport {
    /// Events delivered from peers, in link order per peer.
    pub delivered: Vec<RemoteDelivery>,
    /// Per-peer receive floors (highest contiguous sequence seen) as
    /// of the end of this pump. Persist these before the next pump
    /// for exactly-once restarts.
    pub floors: Vec<(u64, u64)>,
    /// Peers whose link completed a greeting this pump, with whether
    /// the peer's epoch changed since the previous connection.
    pub established: Vec<(u64, bool)>,
    /// Peers refused because they run a different schema.
    pub schema_mismatch: Vec<u64>,
}

/// Aggregated federation counters (sums over all peer links).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationMetrics {
    /// Sequenced messages first-sent across all links.
    pub sent: u64,
    /// Go-Back-N retransmissions.
    pub retransmits: u64,
    /// Sequence numbers evicted from full pending buffers.
    pub overflow_dropped: u64,
    /// Inbound duplicates absorbed by receive floors.
    pub duplicates: u64,
    /// Inbound messages dropped for leaving a sequence gap.
    pub gap_drops: u64,
    /// Connection resets across all links.
    pub resets: u64,
    /// Messages abandoned as unencodable.
    pub unencodable: u64,
    /// Rows forwarded to peers (matched events, counted per peer).
    pub forwarded_rows: u64,
    /// Rows received from peers and published locally.
    pub delivered_rows: u64,
    /// Rows from peers that failed validation (corrupt indices or
    /// width) and were discarded.
    pub rejected_rows: u64,
    /// `Subscribe`s from peers refused because the profile does not
    /// lower against the schema (a value outside its domain, reversed
    /// bounds): a filter holding one could never be compiled.
    pub rejected_interest: u64,
    /// Rows from peers that decoded fine but whose local publish
    /// failed (e.g. a durable broker's checkpoint IO error). They are
    /// counted — never silently absorbed — because the link has
    /// already advanced past them, so they will not be redelivered.
    pub publish_failures: u64,
    /// Rows suppressed by per-origin routing state: redundant copies
    /// of an origin sequence already seen (or of this broker's own
    /// traffic echoed back), dropped before local publish.
    pub origin_duplicates: u64,
    /// Peer links currently up.
    pub peers_up: usize,
    /// Peer links permanently failed (schema mismatch).
    pub peers_failed: usize,
}

/// One forwarded subscription in a peer's interest set, tagged with
/// the peer incarnation that forwarded it. Weights deliberately do
/// not cross the wire: they parameterise the *subscribing* broker's
/// local cost model, and routing treats all interest alike.
struct InterestEntry {
    epoch: u64,
    profile: Profile,
}

/// A peer's forwarded subscriptions, compiled into the automaton the
/// forwarding hot path matches an [`IndexedBatch`] against.
///
/// Interest survives the peer's restarts *conservatively*: entries
/// from an older incarnation are kept — over-forwarding wastes
/// bandwidth but loses nothing — until the first subscription from
/// the new incarnation arrives, which prunes everything older in the
/// same state-lock critical section (so no publish can slip through
/// a half-replaced interest set).
#[derive(Default)]
struct PeerInterest {
    /// By wire id, ascending: the order profiles are compiled in, so
    /// compiled filters are reproducible run to run.
    subs: BTreeMap<u64, InterestEntry>,
    filter: Option<Dfsa>,
    /// `subs` changed since `filter` was compiled from it.
    stale: bool,
}

impl PeerInterest {
    /// The filter over the current subscriptions (`None`: the peer
    /// wants nothing), compiled here if they changed since the last
    /// call — once per burst of interest traffic, not once per message.
    fn filter(&mut self, schema: &Schema) -> Option<&Dfsa> {
        if std::mem::take(&mut self.stale) {
            let mut set = ProfileSet::new(schema);
            for entry in self.subs.values() {
                set.insert(entry.profile.clone());
            }
            // `admit` stored only profiles that lower, which is all a
            // default-configured build can refuse.
            self.filter = (!set.is_empty())
                .then(|| Dfsa::build(&set, &TreeConfig::default()).ok())
                .flatten();
        }
        self.filter.as_ref()
    }
}

/// Where an outbound interest contribution came from: a local
/// subscription, or (multi-hop mode) interest learned from another
/// peer that this link must carry onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SourceKey {
    Local(u64),
    Remote { peer: u64, id: u64 },
}

/// Wire traffic a ledger mutation requires. Subscribes are applied
/// before unsubscribes, so an antichain transition can only
/// transiently over-forward (harmless — the extra events match no
/// local subscriber) and never under-forward (loss).
#[derive(Debug, Default)]
struct InterestDelta {
    subscribe: Vec<(u64, Profile)>,
    unsubscribe: Vec<u64>,
}

impl InterestDelta {
    fn merge(&mut self, mut other: InterestDelta) {
        self.subscribe.append(&mut other.subscribe);
        self.unsubscribe.append(&mut other.unsubscribe);
    }

    fn apply(self, link: &mut PeerLink) {
        for (id, profile) in self.subscribe {
            link.enqueue(Msg::Subscribe {
                seq: 0,
                id,
                profile,
            });
        }
        for id in self.unsubscribe {
            link.enqueue(Msg::Unsubscribe { seq: 0, id });
        }
    }
}

/// One distinct interest signature bound for a peer.
struct SigEntry {
    /// How many sources currently contribute this signature.
    refs: u32,
    /// A representative profile carrying the signature.
    profile: Profile,
    /// Wire id of the `Subscribe` currently forwarded for it: `Some`
    /// exactly while the entry is a representative of the antichain.
    wire_id: Option<u64>,
}

/// The per-link outbound interest ledger: every contribution bound
/// for one peer, reduced to the set of `Subscribe`s actually on the
/// wire.
///
/// Contributions are keyed by their profile's canonical lowered
/// signature, so exact duplicates — including a broker's own interest
/// echoed back around a cycle — are absorbed with zero wire traffic.
/// A [`CoverSet`] additionally reduces the forwarded set to the
/// minimal covering antichain: a probe landing on `Covered` is the
/// O(1) fast path (record only), and only a new representative (or a
/// representative's departure) pays a full antichain recompute and
/// emits deltas.
struct OutboundInterest {
    /// Contribution source → the signature it currently carries.
    sources: HashMap<SourceKey, Vec<u8>>,
    /// Signature → its one record, in the (ascending) order wire ids
    /// are allotted in.
    by_sig: BTreeMap<Vec<u8>, SigEntry>,
    /// The representative index over the entries, rebuilt on antichain
    /// changes; an entry's slot in it is its position in `by_sig` at
    /// the time.
    cover: CoverSet,
}

impl OutboundInterest {
    fn new(schema: &Schema) -> Self {
        OutboundInterest {
            sources: HashMap::new(),
            by_sig: BTreeMap::new(),
            cover: CoverSet::new(schema),
        }
    }

    /// `sig` is `profile_signature(schema, profile)`, computed once by
    /// the caller for all ledgers.
    fn insert(
        &mut self,
        schema: &Schema,
        source: SourceKey,
        profile: &Profile,
        sig: &[u8],
        next_id: &mut u64,
    ) -> InterestDelta {
        let mut delta = InterestDelta::default();
        if let Some(old) = self.sources.get(&source) {
            if old == sig {
                return delta; // same interest re-announced
            }
            delta.merge(self.remove(schema, source, next_id));
        }
        self.sources.insert(source, sig.to_vec());
        if let Some(entry) = self.by_sig.get_mut(sig) {
            entry.refs += 1;
            return delta; // duplicate of a tracked signature
        }
        self.by_sig.insert(
            sig.to_vec(),
            SigEntry {
                refs: 1,
                profile: profile.clone(),
                wire_id: None,
            },
        );
        match self.cover.probe(profile) {
            // Covered by a representative already on the wire: the
            // O(1) duplicate-heavy fast path — no recompute, no
            // traffic.
            Ok(CoverOutcome::Covered { .. }) => delta,
            // A new representative (or a profile dominating existing
            // ones): rebuild the antichain and diff the wire set.
            _ => {
                delta.merge(self.recompute(schema, next_id));
                delta
            }
        }
    }

    fn remove(&mut self, schema: &Schema, source: SourceKey, next_id: &mut u64) -> InterestDelta {
        let mut delta = InterestDelta::default();
        let Some(sig) = self.sources.remove(&source) else {
            return delta;
        };
        let Entry::Occupied(mut entry) = self.by_sig.entry(sig) else {
            return delta;
        };
        entry.get_mut().refs -= 1;
        if entry.get().refs > 0 {
            return delta;
        }
        let Some(id) = entry.remove().wire_id else {
            // Covered contribution: nothing was on the wire for it.
            return delta;
        };
        // A representative left: rebuild so its covered children are
        // promoted onto the wire (no false negatives after
        // unsubscribing a representative).
        delta = self.recompute(schema, next_id);
        delta.unsubscribe.push(id);
        delta
    }

    /// Rebuilds the covering antichain over every entry and, in one
    /// walk of them, puts each new representative on the wire and
    /// takes each former one off it.
    fn recompute(&mut self, schema: &Schema, next_id: &mut u64) -> InterestDelta {
        let mut delta = InterestDelta::default();
        let entries = self.by_sig.values().map(|e| &e.profile);
        // Every entry's profile lowered when its signature was taken,
        // which is all a bulk build can refuse.
        let Ok(cover) = CoverSet::build_bulk(schema, (0..).zip(entries)) else {
            return delta;
        };
        // Probes read the representatives only.
        self.cover = cover.into_index();
        for (slot, e) in (0..).zip(self.by_sig.values_mut()) {
            let representative = self.cover.compiled_index_of(slot).is_some();
            match e.wire_id {
                None if representative => {
                    e.wire_id = Some(*next_id);
                    delta.subscribe.push((*next_id, e.profile.clone()));
                    *next_id += 1;
                }
                Some(id) if !representative => {
                    e.wire_id = None;
                    delta.unsubscribe.push(id);
                }
                _ => {}
            }
        }
        delta
    }

    /// The `Subscribe`s currently on the wire, ascending by id — what
    /// a reconnecting peer with a new epoch must be re-offered.
    fn forwarded_entries(&self) -> Vec<(u64, Profile)> {
        let entries = self.by_sig.values();
        let mut out: Vec<(u64, Profile)> = entries
            .filter_map(|e| Some((e.wire_id?, e.profile.clone())))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }
}

/// An accepted TCP connection whose first frame (the identifying
/// `Hello`) has not fully arrived yet.
struct PendingAccept {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Instant,
}

/// Everything this broker keeps about one directly connected peer.
struct Peer {
    link: PeerLink,
    /// What the peer asked us for, and the automaton compiled from it.
    interest: PeerInterest,
    /// What we asked the peer for.
    ledger: OutboundInterest,
    /// Where an accepted TCP connection is handed to a passive link.
    slot: Option<AdoptSlot>,
}

/// Mutable federation state, behind one mutex (the pump is the only
/// hot path and publishes only enqueue).
#[derive(Default)]
struct FedState {
    /// One record per peer, in the order peers were added — the order
    /// links are polled and rows forwarded in.
    peers: Vec<Peer>,
    /// Ids of the broker's subscriptions that were made through this
    /// endpoint, the ones peers hear about. The broker holds their
    /// profiles, and is the one to say whether they still exist.
    federated: BTreeSet<u64>,
    /// [`Broker::collected`] when `federated` was last held against
    /// the broker's entries.
    collected_seen: u64,
    epoch: u64,
    /// Allocator for forwarded-interest wire ids (unique across all
    /// links so covering representatives never collide).
    next_interest_id: u64,
    /// Per-origin sequence stamped on the next locally published row.
    next_origin_seq: u64,
    /// Highest origin sequence seen per origin broker (multi-hop
    /// duplicate suppression; exact on acyclic overlays).
    origin_floors: BTreeMap<u64, u64>,
    block_scratch: BlockScratch,
    ix_scratch: IndexedEvent,
    /// Reusable arena for batched egress resolution and ingress
    /// assembly.
    batch_scratch: IndexedBatch,
    listener: Option<TcpListener>,
    pending_accepts: Vec<PendingAccept>,
    /// The counters this layer keeps itself; [`Federation::metrics`]
    /// adds the links' on top.
    counters: FederationMetrics,
}

impl FedState {
    fn peer_mut(&mut self, id: u64) -> Option<&mut Peer> {
        self.peers.iter_mut().find(|p| p.link.peer() == id)
    }
}

/// A federated broker endpoint: wraps an [`Broker`] (shared, so the
/// application keeps using it directly for purely local work) and
/// manages the peer links.
pub struct Federation {
    broker: Arc<Broker>,
    schema: Arc<Schema>,
    config: FederationConfig,
    state: Mutex<FedState>,
}

impl Federation {
    /// Wraps `broker` as a federation endpoint. No I/O happens until
    /// peers are added and [`Federation::pump`] runs.
    #[must_use]
    pub fn new(broker: Arc<Broker>, config: FederationConfig) -> Self {
        let schema = broker.schema_shared();
        Federation {
            broker,
            schema,
            config,
            state: Mutex::new(FedState {
                epoch: config.epoch,
                next_interest_id: 1,
                next_origin_seq: 1,
                ..FedState::default()
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The wrapped broker.
    #[must_use]
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// This endpoint's node id.
    #[must_use]
    pub fn node(&self) -> u64 {
        self.config.node
    }

    /// Adds a peer over an explicit transport (tests use the
    /// fault-injection network here). `recv_floor` is the persisted
    /// receive floor from a previous incarnation, 0 for a fresh pairing.
    pub fn add_peer(&self, peer: u64, transport: Box<dyn Transport>, recv_floor: u64) {
        self.add_link(peer, transport, recv_floor, None);
    }

    fn add_link(
        &self,
        peer: u64,
        transport: Box<dyn Transport>,
        recv_floor: u64,
        slot: Option<AdoptSlot>,
    ) {
        let st = &mut *self.lock();
        let link = PeerLink::new(
            self.config.node,
            peer,
            Arc::clone(&self.schema),
            st.epoch,
            recv_floor,
            transport,
            self.config.link,
        );
        // A re-added peer gets a new link and ledger; what it asked us
        // for still stands.
        let interest = match st.peers.iter().position(|p| p.link.peer() == peer) {
            Some(old) => st.peers.remove(old).interest,
            None => PeerInterest::default(),
        };
        st.peers.push(Peer {
            link,
            interest,
            ledger: OutboundInterest::new(&self.schema),
            slot,
        });
        // Seed the new ledger with the interest that already exists —
        // the federated subscriptions the broker holds, in one pass
        // over its entries, plus (multi-hop) what other peers sent — so
        // the link's first traffic is its covering antichain. Every
        // older ledger already holds these contributions and ignores
        // them.
        let mut local: Vec<(u64, Profile)> = Vec::new();
        self.broker.for_each_live(|id, profile| {
            if st.federated.contains(&id.get()) {
                local.push((id.get(), profile.clone()));
            }
        });
        local.sort_unstable_by_key(|(id, _)| *id);
        let local = local.into_iter().map(|(id, p)| (SourceKey::Local(id), p));
        let relayed = st.peers.iter().filter(|_| self.config.max_hops > 0);
        let remote = relayed.flat_map(|p| {
            let peer = p.link.peer();
            let subs = p.interest.subs.iter();
            subs.map(move |(id, e)| (SourceKey::Remote { peer, id: *id }, e.profile.clone()))
        });
        let existing: Vec<(SourceKey, Profile)> = local.chain(remote).collect();
        for (source, profile) in existing {
            self.admit(st, source, Some(&profile));
        }
    }

    /// Adds a TCP peer. The side with the lower node id dials `addr`;
    /// the higher side waits for the peer to dial in through this
    /// endpoint's [`Federation::bind`] listener.
    pub fn add_tcp_peer(&self, peer: u64, addr: SocketAddr, recv_floor: u64) {
        if self.config.node < peer {
            self.add_link(peer, Box::new(TcpTransport::dial(addr)), recv_floor, None);
        } else {
            let slot: AdoptSlot = Arc::new(Mutex::new(AdoptState::default()));
            let transport = Box::new(TcpTransport::passive(Arc::clone(&slot)));
            self.add_link(peer, transport, recv_floor, Some(slot));
        }
    }

    /// Starts listening for inbound federation connections. Returns
    /// the bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(&self, addr: SocketAddr) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        self.lock().listener = Some(listener);
        Ok(bound)
    }

    /// The one place an interest contribution changes: `source` now
    /// asks for `profile` (`None`: for nothing). Every peer's ledger
    /// but the one on the source's own link is updated and the
    /// `Subscribe`/`Unsubscribe` delta that leaves queued on its link.
    ///
    /// Returns whether the contribution stands. Interest from a peer
    /// is checked here, where it enters: a profile that does not lower
    /// (the wire codec checks tags and attribute indices, not values
    /// against their domains) is refused and counted — stored, it
    /// would fail every later compile of that peer's filter.
    fn admit(&self, st: &mut FedState, source: SourceKey, profile: Option<&Profile>) -> bool {
        let signed = profile.map(|p| profile_signature(&self.schema, p).map(|sig| (p, sig)));
        let Ok(profile) = signed.transpose() else {
            st.counters.rejected_interest += 1;
            return false;
        };
        let from = match source {
            SourceKey::Local(_) => None,
            SourceKey::Remote { peer, .. } => {
                if self.config.max_hops == 0 {
                    // Single-hop: remote interest is never carried on.
                    return true;
                }
                Some(peer)
            }
        };
        for p in &mut st.peers {
            if Some(p.link.peer()) == from {
                continue;
            }
            let next_id = &mut st.next_interest_id;
            let delta = match &profile {
                Some((profile, sig)) => {
                    p.ledger.insert(&self.schema, source, profile, sig, next_id)
                }
                None => p.ledger.remove(&self.schema, source, next_id),
            };
            delta.apply(&mut p.link);
        }
        true
    }

    /// Registers a weighted subscription locally and offers its
    /// profile to every peer's outbound ledger, so remote events
    /// matching it reach this broker. The weight only shapes the
    /// *local* broker's cost model; it never crosses the wire. The
    /// profile is forwarded only when no already-forwarded profile
    /// covers it.
    ///
    /// # Errors
    ///
    /// Propagates local subscription errors; forwarding is
    /// best-effort (bounded by the links' pending buffers).
    pub fn subscribe_profile_weighted(
        &self,
        profile: Profile,
        weight: f64,
    ) -> Result<Subscriber, ServiceError> {
        let sub = self
            .broker
            .subscribe_profile_weighted(profile.clone(), weight)?;
        let id = sub.id().get();
        let st = &mut *self.lock();
        self.admit(st, SourceKey::Local(id), Some(&profile));
        st.federated.insert(id);
        Ok(sub)
    }

    /// [`Federation::subscribe_profile_weighted`] with weight 1.
    ///
    /// # Errors
    ///
    /// Propagates local subscription errors.
    pub fn subscribe_profile(&self, profile: Profile) -> Result<Subscriber, ServiceError> {
        self.subscribe_profile_weighted(profile, 1.0)
    }

    /// Parses a profile expression and subscribes (see
    /// [`Broker::subscribe_parsed`] for the syntax).
    ///
    /// # Errors
    ///
    /// Propagates parse and subscription errors.
    pub fn subscribe_parsed(&self, text: &str) -> Result<Subscriber, ServiceError> {
        let profile =
            ens_types::parse::parse_profile(&self.schema, text, ens_types::ProfileId::new(0))
                .map_err(ServiceError::Types)?;
        self.subscribe_profile(profile)
    }

    /// Cancels a subscription locally and retracts it from peers.
    ///
    /// # Errors
    ///
    /// Propagates [`Broker::unsubscribe`] errors. Where the broker no
    /// longer holds the subscription all the same — only the WAL
    /// append failed, behind the removal, or a publish had collected
    /// it already — it is retracted before the error is returned.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<(), ServiceError> {
        use ServiceError::{Persist, UnknownSubscription};
        let removed = self.broker.unsubscribe(id);
        if matches!(removed, Ok(()) | Err(Persist(_) | UnknownSubscription(_))) {
            let st = &mut *self.lock();
            st.federated.remove(&id.get());
            self.admit(st, SourceKey::Local(id.get()), None);
        }
        removed
    }

    /// Retracts from every peer the federated subscriptions the broker
    /// has garbage-collected — their consumer hung up — since the last
    /// look: one pass over the broker's entries, and only when its
    /// collection count moved.
    fn retire_collected(&self, st: &mut FedState) {
        let collected = self.broker.collected();
        if collected == st.collected_seen {
            return;
        }
        st.collected_seen = collected;
        let mut gone = st.federated.clone();
        self.broker.for_each_live(|id, _| {
            gone.remove(&id.get());
        });
        for id in gone {
            st.federated.remove(&id);
            self.admit(st, SourceKey::Local(id), None);
        }
    }

    /// Publishes a locally originated event: local subscribers are
    /// notified through the broker, and the event is forwarded to
    /// every peer whose interest filter matches it.
    ///
    /// # Errors
    ///
    /// Propagates local publish errors.
    pub fn publish(&self, event: &Event) -> Result<PublishReceipt, ServiceError> {
        let receipt = self.broker.publish(event)?;
        let st = &mut *self.lock();
        let mut batch = std::mem::take(&mut st.batch_scratch);
        let resolved = batch.resolve_into(&self.schema, std::iter::once(event));
        if resolved.is_ok() {
            self.forward_published(st, &batch);
        }
        st.batch_scratch = batch;
        resolved.map_err(ServiceError::Types)?;
        Ok(receipt)
    }

    /// Publishes a locally originated batch: the events are resolved
    /// to index rows once, block-matched locally through
    /// [`Broker::publish_batch_prepared`], and the *same* rows are
    /// forwarded as one `Batch` frame per interested peer.
    ///
    /// # Errors
    ///
    /// Propagates local publish errors.
    pub fn publish_batch(
        &self,
        events: &[Arc<Event>],
    ) -> Result<Vec<PublishReceipt>, ServiceError> {
        if events.is_empty() {
            return Ok(Vec::new());
        }
        let st = &mut *self.lock();
        let mut batch = std::mem::take(&mut st.batch_scratch);
        let receipts = batch
            .resolve_into(&self.schema, events.iter().map(Arc::as_ref))
            .map_err(ServiceError::Types)
            .and_then(|()| self.broker.publish_batch_prepared(events, &batch));
        if receipts.is_ok() {
            self.forward_published(st, &batch);
        }
        st.batch_scratch = batch;
        receipts
    }

    /// Stamps each row this broker's application just published with a
    /// fresh origin sequence and forwards them with a full hop budget.
    /// Origin sequences are consumed even when no link is up so that
    /// they stay unique per published event across link churn.
    fn forward_published(&self, st: &mut FedState, batch: &IndexedBatch) {
        let first = st.next_origin_seq;
        st.next_origin_seq += batch.len() as u64;
        let origin_seqs: Vec<u64> = (first..st.next_origin_seq).collect();
        let ttl = u32::from(self.config.max_hops);
        self.forward(st, batch, &origin_seqs, self.config.node, ttl, &[]);
    }

    /// The one way rows leave this broker: row `i` of `batch` (which
    /// `origin` published as its `origin_seqs[i]`-th) goes to every
    /// peer not in `skip` whose interest filter matches it, as one
    /// `Batch` per interested peer with `ttl` hops left to travel.
    fn forward(
        &self,
        st: &mut FedState,
        batch: &IndexedBatch,
        origin_seqs: &[u64],
        origin: u64,
        ttl: u32,
        skip: &[u64],
    ) {
        for p in &mut st.peers {
            if skip.contains(&p.link.peer()) {
                continue;
            }
            let Some(filter) = p.interest.filter(&self.schema) else {
                continue;
            };
            filter.match_block(batch, &mut st.block_scratch);
            let mut rows = IndexedBatch::new();
            rows.reset(batch.width());
            let mut seqs = Vec::new();
            for (i, &seq) in origin_seqs.iter().enumerate() {
                if !st.block_scratch.profiles_of(i).is_empty() {
                    rows.push_raw(batch.row(i));
                    seqs.push(seq);
                }
            }
            if !seqs.is_empty() {
                st.counters.forwarded_rows += seqs.len() as u64;
                p.link.enqueue(Msg::Batch {
                    first_seq: 0,
                    origin,
                    ttl,
                    origin_seqs: seqs,
                    rows,
                });
            }
        }
    }

    /// Accepts pending inbound TCP connections and routes each to its
    /// peer's adoption slot once the identifying `Hello` arrives.
    fn poll_accepts(&self, st: &mut FedState) {
        if let Some(listener) = st.listener.as_ref() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_ok() {
                            st.pending_accepts.push(PendingAccept {
                                stream,
                                buf: Vec::new(),
                                deadline: Instant::now() + Duration::from_secs(2),
                            });
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        for mut pa in std::mem::take(&mut st.pending_accepts) {
            let mut chunk = [0u8; 4096];
            let open = loop {
                match pa.stream.read(&mut chunk) {
                    Ok(0) => break false,
                    Ok(n) => pa.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break false,
                }
            };
            if !open {
                continue; // closed under us: dropped
            }
            match identify_hello(&pa.buf, &self.schema) {
                Ok(Some(node)) => {
                    if let Some(slot) = st.peer_mut(node).and_then(|p| p.slot.as_ref()) {
                        let mut s = slot.lock().unwrap_or_else(|e| e.into_inner());
                        // Hand over the stream plus everything read,
                        // *including* the Hello frame, so the link
                        // observes the greeting normally.
                        s.stream = Some(pa.stream);
                        s.preread = pa.buf;
                    }
                }
                // Still short of a frame: wait for the rest, for a while.
                Ok(None) if Instant::now() < pa.deadline => st.pending_accepts.push(pa),
                // Not a greeting, or too slow: dropped.
                _ => {}
            }
        }
    }

    /// Drives all peer links once: accepts inbound connections,
    /// reconnects, exchanges traffic, republishes remote events
    /// locally, and reports deliveries and receive floors.
    ///
    /// Call this in a loop with a monotone clock; the federation does
    /// nothing between pumps.
    ///
    /// # Errors
    ///
    /// None today. The link has already advanced its floor past every
    /// event handled here, so returning early would lose the rest of
    /// them for good: what cannot be applied is counted instead
    /// ([`FederationMetrics`]'s `rejected_interest`, `rejected_rows`,
    /// `publish_failures`) and the loop goes on.
    pub fn pump(&self, now_ms: u64) -> Result<PumpReport, ServiceError> {
        let mut report = PumpReport::default();
        let st = &mut *self.lock();
        self.poll_accepts(st);
        let mut events = Vec::new();
        for p in &mut st.peers {
            p.link.poll(now_ms, &mut events);
        }
        for ev in events {
            match ev {
                LinkEvent::Established {
                    peer,
                    epoch_changed,
                } => {
                    if epoch_changed {
                        // The peer restarted: our previously forwarded
                        // subscriptions died with it. Re-offer the
                        // ledger's covering set — exactly what the old
                        // incarnation knew (its receive floor dedupes
                        // any that survived in flight).
                        if let Some(p) = st.peer_mut(peer) {
                            for (id, profile) in p.ledger.forwarded_entries() {
                                p.link.enqueue(Msg::Subscribe {
                                    seq: 0,
                                    id,
                                    profile,
                                });
                            }
                        }
                        // The peer's forwarded interest is *kept*: the
                        // new incarnation's first Subscribe prunes it
                        // (see [`PeerInterest`]). Clearing it here
                        // would open an under-forwarding window — loss
                        // — between this greeting and that Subscribe.
                    }
                    report.established.push((peer, epoch_changed));
                }
                LinkEvent::SchemaMismatch { peer, .. } => {
                    report.schema_mismatch.push(peer);
                }
                LinkEvent::Subscribe {
                    peer,
                    id,
                    profile,
                    epoch,
                } => {
                    if !self.admit(st, SourceKey::Remote { peer, id }, Some(&profile)) {
                        continue;
                    }
                    let Some(p) = st.peer_mut(peer) else {
                        continue;
                    };
                    // First word from a newer incarnation retires
                    // everything inherited from older ones — after the
                    // new entry is in, so the peers we relay to can
                    // only be over-asked meanwhile.
                    p.interest.subs.insert(id, InterestEntry { epoch, profile });
                    let stale: Vec<u64> = (p.interest.subs.iter())
                        .filter(|(_, e)| e.epoch < epoch)
                        .map(|(sid, _)| *sid)
                        .collect();
                    p.interest.subs.retain(|_, e| e.epoch >= epoch);
                    p.interest.stale = true;
                    for sid in stale {
                        self.admit(st, SourceKey::Remote { peer, id: sid }, None);
                    }
                }
                LinkEvent::Unsubscribe { peer, id } => {
                    if let Some(p) = st.peer_mut(peer) {
                        p.interest.subs.remove(&id);
                        p.interest.stale = true;
                    }
                    self.admit(st, SourceKey::Remote { peer, id }, None);
                }
                LinkEvent::Rows {
                    peer,
                    first_seq,
                    origin,
                    ttl,
                    origin_seqs,
                    rows,
                    skip,
                } => {
                    // A batch has one width: if it is not this
                    // schema's (padded the way `IndexedBatch` pads),
                    // every row of it is refused.
                    if rows.width() != self.schema.len().max(1) {
                        st.counters.rejected_rows += (rows.len() - skip) as u64;
                        continue;
                    }
                    // Batched ingress: validate and dedupe each row,
                    // collect the survivors into one IndexedBatch, and
                    // resolve + block-match them through the broker in
                    // a single pass.
                    let mut batch = std::mem::take(&mut st.batch_scratch);
                    batch.reset(rows.width());
                    let cap = rows.len().saturating_sub(skip);
                    let mut events: Vec<Arc<Event>> = Vec::with_capacity(cap);
                    let (mut seqs, mut oseqs) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
                    // Every row of the message is `origin`'s: its floor
                    // is read once, by the first row to reach it, and
                    // written back once, after the last.
                    let mut floor = None;
                    for (offset, &oseq) in origin_seqs.iter().enumerate().skip(skip) {
                        if origin == self.config.node {
                            // Our own event echoed around a cycle.
                            st.counters.origin_duplicates += 1;
                            continue;
                        }
                        if self.config.max_hops > 0 {
                            // Per-origin floor: exact duplicate
                            // suppression on acyclic overlays, where
                            // each origin's rows arrive along a single
                            // FIFO path and thus in seq order.
                            let floors = &st.origin_floors;
                            let floor =
                                floor.get_or_insert_with(|| *floors.get(&origin).unwrap_or(&0));
                            if oseq <= *floor {
                                st.counters.origin_duplicates += 1;
                                continue;
                            }
                            *floor = oseq;
                        }
                        st.ix_scratch.copy_from_raw(rows.row(offset));
                        match st.ix_scratch.to_event(&self.schema) {
                            Ok(e) => events.push(Arc::new(e)),
                            Err(_) => {
                                st.counters.rejected_rows += 1;
                                continue;
                            }
                        }
                        batch.push_raw(rows.row(offset));
                        seqs.push(first_seq + offset as u64);
                        oseqs.push(oseq);
                    }
                    if let Some(floor) = floor {
                        st.origin_floors.insert(origin, floor);
                    }
                    if !events.is_empty() {
                        // A publish failure must NOT abort the pump:
                        // the link already advanced its floor past
                        // this whole batch, so the next lazy ack will
                        // tell the sender to forget these rows either
                        // way. Bailing out here would additionally
                        // drop every later link event on the floor.
                        // Count the failed rows and keep going.
                        if self.broker.ingest_batch_prepared(&events, &batch).is_ok() {
                            st.counters.delivered_rows += events.len() as u64;
                            report.delivered.reserve(events.len());
                            for (i, event) in events.iter().enumerate() {
                                report.delivered.push(RemoteDelivery {
                                    peer,
                                    seq: seqs[i],
                                    origin,
                                    origin_seq: oseqs[i],
                                    event: Arc::clone(event),
                                });
                            }
                        } else {
                            st.counters.publish_failures += events.len() as u64;
                        }
                        // Transit: re-forward the accepted rows along
                        // the overlay while the hop budget lasts —
                        // never back to the ingress link, never back
                        // to the origin itself. Forwarding happens
                        // even when local publish failed: routing is
                        // this broker's duty to the overlay, delivery
                        // only to its own subscribers.
                        if self.config.max_hops > 0 && ttl > 0 {
                            let ttl = (ttl - 1).min(u32::from(self.config.max_hops));
                            self.forward(st, &batch, &oseqs, origin, ttl, &[peer, origin]);
                        }
                    }
                    st.batch_scratch = batch;
                }
                LinkEvent::Down { .. } => {}
            }
        }
        // A row published above may have found a consumer gone.
        self.retire_collected(st);
        report.floors = (st.peers.iter())
            .map(|p| (p.link.peer(), p.link.recv_high()))
            .collect();
        Ok(report)
    }

    /// Number of peers with live interest here — i.e. peers that
    /// would receive matching events published here. Publishers that
    /// must not race the initial subscription exchange can gate on
    /// this.
    #[must_use]
    pub fn interested_peers(&self) -> usize {
        let st = self.lock();
        let live = st.peers.iter().filter(|p| !p.interest.subs.is_empty());
        live.count()
    }

    /// Per-peer receive floors (highest contiguous sequence received),
    /// the state to persist for exactly-once restarts.
    #[must_use]
    pub fn recv_floors(&self) -> Vec<(u64, u64)> {
        let st = self.lock();
        let floors = st.peers.iter().map(|p| (p.link.peer(), p.link.recv_high()));
        floors.collect()
    }

    /// Outbound messages queued or awaiting acknowledgement across
    /// all links — 0 means every forwarded event has been confirmed
    /// received (useful for draining before shutdown).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.lock().peers.iter().map(|p| p.link.backlog()).sum()
    }

    /// Number of interest rows currently forwarded to `peer` — the
    /// size of the minimal covering antichain, which is what the
    /// routing-efficiency benchmark measures.
    #[must_use]
    pub fn forwarded_interest(&self, peer: u64) -> usize {
        let st = self.lock();
        let peer = st.peers.iter().find(|p| p.link.peer() == peer);
        let on_wire = |e: &&SigEntry| e.wire_id.is_some();
        peer.map_or(0, |p| p.ledger.by_sig.values().filter(on_wire).count())
    }

    /// Snapshot of the per-origin duplicate-suppression floors
    /// (origin broker id, highest accepted origin sequence). Persist
    /// these alongside the broker checkpoint and restore them with
    /// [`Federation::set_origin_floor`] to keep multi-hop
    /// exactly-once across a restart.
    #[must_use]
    pub fn origin_floors(&self) -> Vec<(u64, u64)> {
        let st = self.lock();
        st.origin_floors.iter().map(|(o, f)| (*o, *f)).collect()
    }

    /// Restores a per-origin duplicate-suppression floor (see
    /// [`Federation::origin_floors`]). Only raises the floor — a
    /// stale snapshot can never re-open a window for duplicates.
    pub fn set_origin_floor(&self, origin: u64, floor: u64) {
        let mut st = self.lock();
        let f = st.origin_floors.entry(origin).or_insert(0);
        *f = (*f).max(floor);
    }

    /// Highest origin sequence this broker has stamped on its own
    /// published events (0 if none). Persist with the checkpoint and
    /// restore via [`Federation::set_last_origin_seq`] so a restarted
    /// broker never reuses a sequence its peers have already seen.
    #[must_use]
    pub fn last_origin_seq(&self) -> u64 {
        self.lock().next_origin_seq - 1
    }

    /// Restores the origin-sequence counter (see
    /// [`Federation::last_origin_seq`]). Only moves forward.
    pub fn set_last_origin_seq(&self, last: u64) {
        let mut st = self.lock();
        st.next_origin_seq = st.next_origin_seq.max(last + 1);
    }

    /// Updates the announced epoch (affects future greetings).
    pub fn set_epoch(&self, epoch: u64) {
        let mut st = self.lock();
        st.epoch = epoch;
        for p in &mut st.peers {
            p.link.set_epoch(epoch);
        }
    }

    /// Aggregated counters across all peer links.
    #[must_use]
    pub fn metrics(&self) -> FederationMetrics {
        let st = self.lock();
        let mut m = st.counters;
        for link in st.peers.iter().map(|p| &p.link) {
            let s: LinkStats = link.stats();
            m.sent += s.sent;
            m.retransmits += s.retransmits;
            m.overflow_dropped += s.overflow_dropped;
            m.duplicates += s.duplicates;
            m.gap_drops += s.gap_drops;
            m.resets += s.resets;
            m.unencodable += s.unencodable;
            m.peers_up += usize::from(link.is_up());
            m.peers_failed += usize::from(link.is_failed());
        }
        m
    }
}

/// Tries to parse the first complete frame of an accepted connection
/// as a `Hello`, returning the announcing node id. `Ok(None)` means
/// incomplete; `Err` means the stream is not a federation greeting.
fn identify_hello(buf: &[u8], schema: &Schema) -> Result<Option<u64>, ()> {
    let Some(payload) = wire::first_frame(buf).map_err(|_| ())? else {
        return Ok(None);
    };
    match Msg::decode(payload, schema) {
        Ok(Msg::Hello { node, .. }) => Ok(Some(node)),
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use ens_types::{Domain, Predicate};
    use sim::SimNet;

    fn schema() -> Schema {
        Schema::builder()
            .attribute("x", Domain::int(0, 999))
            .unwrap()
            .build()
    }

    fn fed(net: &SimNet, node: u64, peers: &[u64]) -> Federation {
        let broker = Arc::new(Broker::new(&schema(), BrokerConfig::default()).unwrap());
        let f = Federation::new(
            broker,
            FederationConfig {
                node,
                epoch: 1,
                max_hops: 0,
                link: link::LinkConfig {
                    heartbeat_ms: 50,
                    timeout_ms: 300,
                    backoff_base_ms: 20,
                    backoff_max_ms: 200,
                    rto_ms: 40,
                    send_window: 16,
                    pending_cap: 0,
                },
            },
        );
        for &p in peers {
            f.add_peer(p, Box::new(net.transport(node, p)), 0);
        }
        f
    }

    fn pump_all(net: &SimNet, feds: &[&Federation], steps: u32) -> Vec<RemoteDelivery> {
        let mut delivered = Vec::new();
        for _ in 0..steps {
            let now = net.now_ms();
            for f in feds {
                delivered.extend(f.pump(now).unwrap().delivered);
            }
            net.advance(10);
        }
        delivered
    }

    fn event(s: &Schema, x: i64) -> Event {
        Event::builder(s).value("x", x).unwrap().build()
    }

    #[test]
    fn subscriptions_route_events_across_the_mesh() {
        let net = SimNet::new(1);
        let a = fed(&net, 1, &[2]);
        let b = fed(&net, 2, &[1]);
        // b wants x >= 500; a publishes 400 (no) and 600 (yes).
        let sub = b
            .subscribe_profile(
                Profile::builder(b.broker().schema())
                    .predicate("x", Predicate::ge(500))
                    .unwrap()
                    .build(ens_types::ProfileId::new(0)),
            )
            .unwrap();
        pump_all(&net, &[&a, &b], 5);
        let s = schema();
        a.publish(&event(&s, 400)).unwrap();
        a.publish(&event(&s, 600)).unwrap();
        let delivered = pump_all(&net, &[&a, &b], 10);
        // Only b receives, and only the matching event.
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].peer, 1);
        // The remote event notified b's local subscriber.
        let n = sub.try_recv().expect("notification should be queued");
        assert_eq!(
            n.event.value(b.broker().schema().attr("x").unwrap()),
            Some(&ens_types::Value::Int(600))
        );
        // a forwarded exactly one row.
        assert_eq!(a.metrics().forwarded_rows, 1);
        assert_eq!(b.metrics().delivered_rows, 1);
    }

    #[test]
    fn hostile_peer_frames_are_refused_counted_and_survived() {
        // Node 2 is a raw transport, so it can say what no broker
        // would: CRC-valid frames the wire codec accepts and the
        // schema does not.
        let net = SimNet::new(4);
        let a = fed(&net, 1, &[2]);
        a.pump(net.now_ms()).unwrap();
        let s = schema();
        let mut raw = net.transport(2, 1);
        let mut say = |msg: Msg| raw.send(&msg.encode().unwrap()).unwrap();
        say(Msg::Hello {
            node: 2,
            schema_hash: schema_hash(&s),
            epoch: 1,
            recv_high: 0,
            your_epoch: None,
        });
        // A value outside the domain, reversed bounds, then a valid
        // profile behind them.
        let asks = [
            Predicate::Eq(5000.into()),
            Predicate::between(900, 100),
            Predicate::ge(500),
        ];
        for (id, p) in (1..).zip(asks) {
            let id0 = ens_types::ProfileId::new(0);
            let profile = Profile::from_predicates(&s, id0, vec![p]).unwrap();
            say(Msg::Subscribe {
                seq: id,
                id,
                profile,
            });
        }
        // A row of two cells under a one-attribute schema.
        let mut rows = IndexedBatch::new();
        rows.reset(2);
        rows.push_raw(&[7, 7]);
        say(Msg::Batch {
            first_seq: 4,
            origin: 2,
            ttl: 0,
            origin_seqs: vec![1],
            rows,
        });
        // A row of the right width whose cell lies outside `x`'s
        // 0..=999 domain, above the origin's floor so that it is not
        // taken for a duplicate first.
        let mut rows = IndexedBatch::new();
        rows.reset(1);
        rows.push_raw(&[1000]);
        say(Msg::Batch {
            first_seq: 5,
            origin: 2,
            ttl: 0,
            origin_seqs: vec![2],
            rows,
        });
        // Every pump succeeds, each refusal is counted, and the valid
        // Subscribe behind the bad ones is applied, not lost with the
        // rest of the event list.
        assert!(pump_all(&net, &[&a], 3).is_empty());
        let m = a.metrics();
        assert_eq!((m.rejected_interest, m.rejected_rows), (2, 2));
        assert_eq!(a.interested_peers(), 1);
        a.publish(&event(&s, 400)).unwrap();
        a.publish(&event(&s, 600)).unwrap();
        assert_eq!(a.metrics().forwarded_rows, 1);
        pump_all(&net, &[&a], 2);
        let mut forwarded: Vec<u64> = Vec::new();
        while let Some(payload) = raw.recv().unwrap() {
            if let Msg::Batch { rows, .. } = Msg::decode(&payload, &s).unwrap() {
                forwarded.extend(rows.raw());
            }
        }
        assert_eq!(forwarded, [600]);
    }

    #[test]
    fn unsubscribe_stops_forwarding() {
        let net = SimNet::new(2);
        let a = fed(&net, 1, &[2]);
        let b = fed(&net, 2, &[1]);
        let sub = b.subscribe_parsed("profile(x >= 0)").unwrap();
        pump_all(&net, &[&a, &b], 5);
        let s = schema();
        a.publish(&event(&s, 1)).unwrap();
        assert_eq!(pump_all(&net, &[&a, &b], 10).len(), 1);
        b.unsubscribe(sub.id()).unwrap();
        pump_all(&net, &[&a, &b], 10);
        a.publish(&event(&s, 2)).unwrap();
        assert_eq!(pump_all(&net, &[&a, &b], 10).len(), 0);
        assert_eq!(a.metrics().forwarded_rows, 1);
    }

    #[test]
    fn remote_events_are_not_reforwarded() {
        // Triangle mesh: c subscribes everywhere; a publishes. c must
        // see the event exactly once (from a), not re-forwarded via b.
        let net = SimNet::new(3);
        let a = fed(&net, 1, &[2, 3]);
        let b = fed(&net, 2, &[1, 3]);
        let c = fed(&net, 3, &[1, 2]);
        let _sub_b = b.subscribe_parsed("profile(x >= 0)").unwrap();
        let _sub_c = c.subscribe_parsed("profile(x >= 0)").unwrap();
        pump_all(&net, &[&a, &b, &c], 6);
        let s = schema();
        a.publish(&event(&s, 7)).unwrap();
        let delivered = pump_all(&net, &[&a, &b, &c], 12);
        // b and c each get it exactly once, both from node 1.
        assert_eq!(delivered.len(), 2);
        assert!(delivered.iter().all(|d| d.peer == 1));
    }
}
