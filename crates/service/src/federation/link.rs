//! Per-peer link state machine: reconnect, retransmit, dedup.
//!
//! A `PeerLink` owns one [`Transport`] and is *sans-I/O driven*:
//! all progress happens inside `PeerLink::poll`, which takes the
//! caller's clock in milliseconds. Nothing here sleeps, spawns, or
//! reads a wall clock — which is why the whole machine runs under the
//! deterministic fault-injection network in tests.
//!
//! ## Reliability model (Go-Back-N, at-least-once, receiver dedup)
//!
//! Outbound sequenced messages wait unsequenced in `pending` (the
//! bounded in-flight buffer, which drops its oldest message when
//! full), receive their sequence numbers only at send time — so an
//! overflow drop can
//! never tear a hole in the sequence space — and then sit in
//! `unacked` until the peer's cumulative ack covers them. A
//! retransmission timeout resends everything unacked, in order. The
//! receiver accepts a message only when it extends its contiguous
//! prefix (`recv_high`), delivering the non-overlapping tail of a
//! batch that straddles the boundary; anything older is a duplicate
//! (dropped, re-acked), anything beyond a gap (dropped, awaiting the
//! sender's retransmission).
//!
//! Acks are deliberately lazy: the ack for traffic received during
//! poll *k* is sent at the top of poll *k+1*. That gives the
//! application a full turn to record delivered events and receive
//! floors durably before the sender is allowed to forget them —
//! "log before ack" without the link knowing anything about logs.
//!
//! ## Liveness
//!
//! Heartbeats keep idle links measurably alive; silence beyond the
//! timeout resets the connection. Reconnects follow capped
//! exponential backoff with deterministic jitter, and the attempt
//! counter resets only when a connection reaches `Up` (a greeting
//! that dies half-way keeps escalating the delay).

use std::collections::VecDeque;
use std::sync::Arc;

use ens_types::{IndexedBatch, Profile, Schema};

use super::sim::splitmix64;
use super::transport::Transport;
use super::wire::Msg;

/// Tuning knobs for one peer link. The defaults suit LAN federation;
/// the tests shrink the timers to keep virtual runs short.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Send a heartbeat when nothing else was sent for this long.
    pub heartbeat_ms: u64,
    /// Declare the connection dead after this much inbound silence.
    pub timeout_ms: u64,
    /// First reconnect delay; doubles per failed attempt.
    pub backoff_base_ms: u64,
    /// Reconnect delay ceiling.
    pub backoff_max_ms: u64,
    /// Retransmit all unacked traffic after this long without an ack.
    pub rto_ms: u64,
    /// Maximum unacknowledged messages in flight (the Go-Back-N
    /// window, in messages).
    pub send_window: usize,
    /// Maximum messages queued awaiting a connection / window space;
    /// 0 means unbounded. A message queued past it evicts the oldest.
    pub pending_cap: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            heartbeat_ms: 500,
            timeout_ms: 2_000,
            backoff_base_ms: 100,
            backoff_max_ms: 5_000,
            rto_ms: 400,
            send_window: 64,
            pending_cap: 4_096,
        }
    }
}

/// Counters a link accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Sequenced messages sent for the first time.
    pub sent: u64,
    /// Messages resent by the retransmission timer.
    pub retransmits: u64,
    /// Sequence numbers evicted from the full pending buffer (rows
    /// count individually).
    pub overflow_dropped: u64,
    /// Inbound duplicates absorbed by the `recv_high` floor.
    pub duplicates: u64,
    /// Inbound messages dropped because they left a gap.
    pub gap_drops: u64,
    /// Connection resets (corruption, EOF, timeouts).
    pub resets: u64,
    /// Messages that could not be encoded for the wire and were
    /// abandoned (unencodable predicate variants; a control message
    /// that fails to encode also resets the link).
    pub unencodable: u64,
}

/// What happened on a link during a poll, reported upward to the
/// federation layer.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LinkEvent {
    /// The greeting completed; the link is `Up`. `epoch_changed` is
    /// true when the peer presented a different epoch than the last
    /// connection — it restarted, so forwarded state must be re-sent.
    Established { peer: u64, epoch_changed: bool },
    /// The peer runs a different schema; the link is permanently
    /// failed (no retries — this is an operator error).
    SchemaMismatch { peer: u64, theirs: u64 },
    /// The peer forwarded a subscription. `epoch` is the peer
    /// incarnation it arrived from, so the federation layer can prune
    /// interest inherited from earlier incarnations the moment the
    /// new one announces its own.
    Subscribe {
        peer: u64,
        id: u64,
        profile: Profile,
        epoch: u64,
    },
    /// The peer retracted a forwarded subscription.
    Unsubscribe { peer: u64, id: u64 },
    /// A batch of event rows arrived. The first `skip` rows were
    /// already delivered on a previous connection (overlap with the
    /// receive floor) and must not be re-delivered; row `i` carries
    /// link sequence `first_seq + i`. `origin`, `ttl` and the per-row
    /// `origin_seqs` carry the multi-hop routing metadata through
    /// unchanged.
    Rows {
        peer: u64,
        first_seq: u64,
        origin: u64,
        ttl: u32,
        origin_seqs: Vec<u64>,
        rows: IndexedBatch,
        skip: usize,
    },
    /// The connection dropped (reconnect is scheduled).
    Down { peer: u64 },
}

/// Connection phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Disconnected; retry at `next_attempt_ms`.
    Down { next_attempt_ms: u64, attempt: u32 },
    /// Transport connected, our `Hello` sent, waiting for theirs.
    Greeting,
    /// Greeting exchanged; traffic flows.
    Up,
    /// Permanently failed (schema mismatch).
    Failed,
}

/// A sequenced message awaiting acknowledgement.
#[derive(Debug)]
struct SentMsg {
    end_seq: u64,
    payload: Vec<u8>,
    sent_at_ms: u64,
}

/// One reliable, self-healing connection to a federation peer.
pub(crate) struct PeerLink {
    peer: u64,
    local: u64,
    schema: Arc<Schema>,
    schema_hash: u64,
    epoch: u64,
    config: LinkConfig,
    transport: Box<dyn Transport>,
    phase: Phase,
    /// Jitter RNG — deterministic per (local, peer) pair.
    jitter: u64,
    // Send side.
    next_seq: u64,
    pending: VecDeque<Msg>,
    unacked: VecDeque<SentMsg>,
    // Receive side.
    recv_high: u64,
    last_acked_sent: u64,
    ack_due: bool,
    remote_epoch: Option<u64>,
    // Liveness clocks.
    last_rx_ms: u64,
    last_tx_ms: u64,
    stats: LinkStats,
}

impl PeerLink {
    /// Creates a link that will start connecting on the first poll.
    /// `recv_floor` restores the receiver's dedup floor after a
    /// restart: rows at or below it are duplicates by definition.
    pub(crate) fn new(
        local: u64,
        peer: u64,
        schema: Arc<Schema>,
        epoch: u64,
        recv_floor: u64,
        transport: Box<dyn Transport>,
        config: LinkConfig,
    ) -> Self {
        let schema_hash = super::wire::schema_hash(&schema);
        PeerLink {
            peer,
            local,
            schema,
            schema_hash,
            epoch,
            config,
            transport,
            phase: Phase::Down {
                next_attempt_ms: 0,
                attempt: 0,
            },
            jitter: local.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(peer),
            next_seq: 1,
            pending: VecDeque::new(),
            unacked: VecDeque::new(),
            recv_high: recv_floor,
            last_acked_sent: recv_floor,
            ack_due: false,
            remote_epoch: None,
            last_rx_ms: 0,
            last_tx_ms: 0,
            stats: LinkStats::default(),
        }
    }

    pub(crate) fn peer(&self) -> u64 {
        self.peer
    }

    /// Highest contiguous sequence received from the peer — the
    /// receive floor the application persists.
    pub(crate) fn recv_high(&self) -> u64 {
        self.recv_high
    }

    pub(crate) fn is_up(&self) -> bool {
        self.phase == Phase::Up
    }

    pub(crate) fn is_failed(&self) -> bool {
        self.phase == Phase::Failed
    }

    pub(crate) fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Messages queued or in flight (pending + unacked).
    pub(crate) fn backlog(&self) -> usize {
        self.pending.len() + self.unacked.len()
    }

    /// Updates the epoch announced in future greetings (a restart
    /// bumps it so peers re-forward their state).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Queues a sequenced message, evicting the oldest pending one if
    /// the buffer is at `pending_cap`. A failed link drops it.
    pub(crate) fn enqueue(&mut self, msg: Msg) {
        if self.phase == Phase::Failed {
            self.stats.overflow_dropped += msg.seq_span();
            return;
        }
        if self.config.pending_cap > 0 && self.pending.len() >= self.config.pending_cap {
            if let Some(old) = self.pending.pop_front() {
                self.stats.overflow_dropped += old.seq_span();
            }
        }
        self.pending.push_back(msg);
    }

    fn backoff_ms(&mut self, attempt: u32) -> u64 {
        let base = self.config.backoff_base_ms.max(1);
        let exp = base.saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        let capped = exp.min(self.config.backoff_max_ms);
        capped + splitmix64(&mut self.jitter) % (base / 4 + 1)
    }

    fn hello(&self) -> Msg {
        Msg::Hello {
            node: self.local,
            schema_hash: self.schema_hash,
            epoch: self.epoch,
            recv_high: self.recv_high,
            // The incarnation our floor was accumulated against, so
            // the peer can tell whether the floor doubles as an ack
            // for *its current* sequence space.
            your_epoch: self.remote_epoch,
        }
    }

    /// Encodes and sends a control message (hello, ack, heartbeat),
    /// resetting the link on failure. One that does not encode is
    /// counted as `unencodable` and fails like a send. Returns whether
    /// the send succeeded.
    fn send_control(&mut self, msg: &Msg, now_ms: u64, events: &mut Vec<LinkEvent>) -> bool {
        let Ok(payload) = msg.encode() else {
            self.stats.unencodable += 1;
            self.reset(now_ms, events);
            return false;
        };
        self.send_or_reset(&payload, now_ms, events)
    }

    /// Sends a payload, resetting the link on failure. Returns
    /// whether the send succeeded.
    fn send_or_reset(&mut self, payload: &[u8], now_ms: u64, events: &mut Vec<LinkEvent>) -> bool {
        match self.transport.send(payload) {
            Ok(()) => {
                self.last_tx_ms = now_ms;
                true
            }
            Err(_) => {
                self.reset(now_ms, events);
                false
            }
        }
    }

    fn reset(&mut self, now_ms: u64, events: &mut Vec<LinkEvent>) {
        if self.phase == Phase::Failed {
            return;
        }
        let was_live = matches!(self.phase, Phase::Up | Phase::Greeting);
        self.transport.close();
        self.stats.resets += 1;
        let delay = self.backoff_ms(0);
        self.phase = Phase::Down {
            next_attempt_ms: now_ms + delay,
            attempt: 1,
        };
        if was_live {
            events.push(LinkEvent::Down { peer: self.peer });
        }
    }

    /// Cumulative ack: trims every unacked message ending at or
    /// below `high`.
    fn ack_up_to(&mut self, high: u64) {
        while let Some(front) = self.unacked.front() {
            if front.end_seq <= high {
                self.unacked.pop_front();
            } else {
                break;
            }
        }
    }

    fn on_msg(&mut self, msg: Msg, now_ms: u64, events: &mut Vec<LinkEvent>) {
        self.last_rx_ms = now_ms;
        match msg {
            Msg::Hello {
                schema_hash,
                epoch,
                recv_high,
                your_epoch,
                ..
            } => {
                if schema_hash != self.schema_hash {
                    events.push(LinkEvent::SchemaMismatch {
                        peer: self.peer,
                        theirs: schema_hash,
                    });
                    // Leave the transport open: our own `Hello` may
                    // still be in flight, and tearing the connection
                    // down before the peer reads it would leave them
                    // retrying a link we already know is hopeless.
                    // `Failed` never polls, so the socket goes quiet
                    // and the peer reaches the same verdict from our
                    // `Hello`.
                    self.phase = Phase::Failed;
                    return;
                }
                // The peer's receive floor doubles as a cumulative
                // ack — but only when it was accumulated against
                // *this* incarnation. After a restart a surviving
                // peer's first Hello still carries the previous
                // incarnation's floor (it has not seen our new epoch
                // yet); honoring it would trim fresh unacked traffic
                // the peer has never received, and once the peer
                // resets its floor to 0 for the new epoch those
                // messages would be waited on forever. A stale floor
                // is simply ignored: retransmission plus the peer's
                // (soon reset) dedup floor cover the overlap.
                if your_epoch == Some(self.epoch) {
                    self.ack_up_to(recv_high);
                }
                let epoch_changed = self.remote_epoch.is_some_and(|e| e != epoch);
                if epoch_changed {
                    // A new incarnation numbers its outbound traffic
                    // from scratch; keeping the old floor would shadow
                    // everything it sends as "duplicate".
                    self.recv_high = 0;
                    self.last_acked_sent = 0;
                }
                self.remote_epoch = Some(epoch);
                self.phase = Phase::Up;
                // Make sure the peer learns our floor promptly even
                // if no traffic follows.
                self.ack_due = true;
                events.push(LinkEvent::Established {
                    peer: self.peer,
                    epoch_changed,
                });
            }
            Msg::Ack { high } => self.ack_up_to(high),
            Msg::Heartbeat => {}
            Msg::Subscribe { seq, id, profile } => {
                if self.accept_span(seq, 1) == Some(0) {
                    events.push(LinkEvent::Subscribe {
                        peer: self.peer,
                        id,
                        profile,
                        epoch: self.remote_epoch.unwrap_or(0),
                    });
                }
            }
            Msg::Unsubscribe { seq, id } => {
                if self.accept_span(seq, 1) == Some(0) {
                    events.push(LinkEvent::Unsubscribe {
                        peer: self.peer,
                        id,
                    });
                }
            }
            Msg::Batch {
                first_seq,
                origin,
                ttl,
                origin_seqs,
                rows,
            } => {
                let span = rows.len() as u64;
                if span == 0 || origin_seqs.len() != rows.len() {
                    return;
                }
                if let Some(skip) = self.accept_span(first_seq, span) {
                    events.push(LinkEvent::Rows {
                        peer: self.peer,
                        first_seq,
                        origin,
                        ttl,
                        origin_seqs,
                        rows,
                        skip,
                    });
                }
            }
        }
    }

    /// Sequencing acceptance: `Some(skip)` when the span extends the
    /// contiguous prefix (deliver from `skip` onward), `None` for
    /// duplicates and gaps.
    fn accept_span(&mut self, first: u64, span: u64) -> Option<usize> {
        self.ack_due = true;
        // Callers guarantee span >= 1; the checked add guards a
        // hostile `first_seq` near u64::MAX from wrapping (debug
        // panic) — such a span can only be garbage, so gap-drop it.
        let Some(end) = first.checked_add(span - 1) else {
            self.stats.gap_drops += span;
            return None;
        };
        if end <= self.recv_high {
            self.stats.duplicates += span;
            return None;
        }
        if first > self.recv_high.saturating_add(1) {
            self.stats.gap_drops += span;
            return None;
        }
        let skip = (self.recv_high + 1 - first) as usize;
        self.stats.duplicates += skip as u64;
        self.recv_high = end;
        Some(skip)
    }

    /// Drives the link: reconnects, greets, acks, drains inbound
    /// traffic into `events`, flushes outbound traffic, retransmits,
    /// heartbeats, and times out — in that order, using only
    /// `now_ms` for time.
    pub(crate) fn poll(&mut self, now_ms: u64, events: &mut Vec<LinkEvent>) {
        match self.phase {
            Phase::Failed => return,
            Phase::Down {
                next_attempt_ms,
                attempt,
            } => {
                if now_ms < next_attempt_ms {
                    return;
                }
                if self.transport.connect(now_ms) {
                    self.phase = Phase::Greeting;
                    self.last_rx_ms = now_ms;
                    if !self.send_control(&self.hello(), now_ms, events) {
                        return;
                    }
                } else {
                    let delay = self.backoff_ms(attempt);
                    self.phase = Phase::Down {
                        next_attempt_ms: now_ms + delay,
                        attempt: attempt.saturating_add(1),
                    };
                    return;
                }
            }
            Phase::Greeting | Phase::Up => {}
        }

        // Lazy ack first: acknowledge what was received *before* this
        // poll, so the application has already seen (and could log)
        // those deliveries and floors.
        if self.phase == Phase::Up && (self.ack_due || self.recv_high != self.last_acked_sent) {
            let high = self.recv_high;
            if !self.send_control(&Msg::Ack { high }, now_ms, events) {
                return;
            }
            self.last_acked_sent = high;
            self.ack_due = false;
        }

        // Drain inbound traffic.
        loop {
            match self.transport.recv() {
                Ok(Some(payload)) => match Msg::decode(&payload, &self.schema) {
                    Ok(msg) => {
                        self.on_msg(msg, now_ms, events);
                        if matches!(self.phase, Phase::Failed | Phase::Down { .. }) {
                            return;
                        }
                    }
                    Err(_) => {
                        // Undecodable payload on a CRC-clean frame:
                        // protocol corruption; drop the connection.
                        self.reset(now_ms, events);
                        return;
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    self.reset(now_ms, events);
                    return;
                }
            }
        }

        if self.phase == Phase::Up {
            // Flush pending messages into the Go-Back-N window,
            // assigning sequence numbers at the moment of first send.
            while self.unacked.len() < self.config.send_window {
                let Some(mut msg) = self.pending.pop_front() else {
                    break;
                };
                let span = msg.seq_span();
                msg.set_first_seq(self.next_seq);
                let payload = match msg.encode() {
                    Ok(p) => p,
                    Err(_) => {
                        // Unencodable now means unencodable forever;
                        // abandoning it keeps the sequence space
                        // hole-free because no sequence was consumed.
                        self.stats.unencodable += 1;
                        continue;
                    }
                };
                let first_seq = self.next_seq;
                self.next_seq += span;
                // Window the message before attempting the send: if
                // the transport dies mid-send, retransmission on the
                // next connection still covers it.
                self.unacked.push_back(SentMsg {
                    end_seq: first_seq + span - 1,
                    payload: payload.clone(),
                    sent_at_ms: now_ms,
                });
                self.stats.sent += 1;
                if !self.send_or_reset(&payload, now_ms, events) {
                    return;
                }
            }

            // Go-Back-N retransmission: the oldest unacked message
            // going stale resends the whole window, in order.
            let stale = self
                .unacked
                .front()
                .is_some_and(|f| now_ms.saturating_sub(f.sent_at_ms) >= self.config.rto_ms);
            if stale {
                let payloads: Vec<Vec<u8>> =
                    self.unacked.iter().map(|m| m.payload.clone()).collect();
                for m in &mut self.unacked {
                    m.sent_at_ms = now_ms;
                }
                self.stats.retransmits += payloads.len() as u64;
                for p in payloads {
                    if !self.send_or_reset(&p, now_ms, events) {
                        return;
                    }
                }
            }

            // Keep an otherwise idle link measurably alive.
            if now_ms.saturating_sub(self.last_tx_ms) >= self.config.heartbeat_ms
                && !self.send_control(&Msg::Heartbeat, now_ms, events)
            {
                return;
            }
        }

        // Inbound silence beyond the timeout — covering both a dead
        // peer while Up and a greeting that never completes.
        if matches!(self.phase, Phase::Up | Phase::Greeting)
            && now_ms.saturating_sub(self.last_rx_ms) >= self.config.timeout_ms
        {
            self.reset(now_ms, events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::sim::{FaultPlan, SimNet, SimTransport};
    use crate::federation::transport::TransportError;
    use ens_types::{Domain, Event, Predicate, ProfileId};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .attribute("x", Domain::int(0, 999))
                .unwrap()
                .build(),
        )
    }

    fn fast_config() -> LinkConfig {
        LinkConfig {
            heartbeat_ms: 50,
            timeout_ms: 300,
            backoff_base_ms: 20,
            backoff_max_ms: 200,
            rto_ms: 40,
            send_window: 8,
            pending_cap: 0,
        }
    }

    fn link_pair(net: &SimNet, s: &Arc<Schema>) -> (PeerLink, PeerLink) {
        let a = PeerLink::new(
            1,
            2,
            Arc::clone(s),
            1,
            0,
            Box::new(net.transport(1, 2)),
            fast_config(),
        );
        let b = PeerLink::new(
            2,
            1,
            Arc::clone(s),
            1,
            0,
            Box::new(net.transport(2, 1)),
            fast_config(),
        );
        (a, b)
    }

    fn pump(net: &SimNet, links: &mut [&mut PeerLink], steps: u32) -> Vec<LinkEvent> {
        let mut events = Vec::new();
        for _ in 0..steps {
            let now = net.now_ms();
            for l in links.iter_mut() {
                l.poll(now, &mut events);
            }
            net.advance(10);
        }
        events
    }

    /// A single-hop batch of events `x = xs[i]` as the federation
    /// layer would emit it (the origin-sequence values are immaterial
    /// to link-level tests).
    fn batch(s: &Schema, xs: impl IntoIterator<Item = i64>) -> Msg {
        let events: Vec<Event> = xs
            .into_iter()
            .map(|x| Event::builder(s).value("x", x).unwrap().build())
            .collect();
        let mut rows = IndexedBatch::new();
        rows.resolve_into(s, events.iter()).unwrap();
        Msg::Batch {
            first_seq: 0,
            origin: 1,
            ttl: 0,
            origin_seqs: (1..=rows.len() as u64).collect(),
            rows,
        }
    }

    fn delivered_xs(events: &[LinkEvent]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                LinkEvent::Rows { rows, skip, .. } => {
                    Some((*skip..rows.len()).map(|i| rows.row(i)[0]))
                }
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn links_greet_and_exchange_batches() {
        let s = schema();
        let net = SimNet::new(7);
        let (mut a, mut b) = link_pair(&net, &s);
        let events = pump(&net, &mut [&mut a, &mut b], 3);
        assert!(a.is_up() && b.is_up());
        assert!(events
            .iter()
            .any(|e| matches!(e, LinkEvent::Established { peer: 1, .. })));

        a.enqueue(batch(&s, [5, 6]));
        let events = pump(&net, &mut [&mut a, &mut b], 3);
        assert_eq!(delivered_xs(&events), vec![5, 6]);
        assert_eq!(b.recv_high(), 2);
    }

    #[test]
    fn lossy_net_delivers_exactly_once_in_order() {
        let s = schema();
        let net = SimNet::new(99);
        net.set_plan(FaultPlan {
            drop_p: 0.25,
            dup_p: 0.2,
            reorder_p: 0.2,
            delay_lo_ms: 0,
            delay_hi_ms: 30,
            ..FaultPlan::default()
        });
        let (mut a, mut b) = link_pair(&net, &s);
        let mut all = pump(&net, &mut [&mut a, &mut b], 10);
        for group in 0..20 {
            a.enqueue(batch(&s, (0..5).map(|i| group * 5 + i)));
            all.extend(pump(&net, &mut [&mut a, &mut b], 5));
        }
        all.extend(pump(&net, &mut [&mut a, &mut b], 100));
        let got = delivered_xs(&all);
        let want: Vec<u64> = (0..100).collect();
        assert_eq!(got, want, "loss/dup/reorder must be fully masked");
        assert!(a.stats().retransmits > 0, "drops must have forced resends");
        assert!(b.stats().duplicates > 0, "dups must have been absorbed");
    }

    #[test]
    fn subscribe_forwarding_survives_faults() {
        let s = schema();
        let net = SimNet::new(11);
        net.set_plan(FaultPlan {
            drop_p: 0.3,
            torn_p: 0.05,
            ..FaultPlan::default()
        });
        let (mut a, mut b) = link_pair(&net, &s);
        let profile = Profile::builder(&s)
            .predicate("x", Predicate::ge(500))
            .unwrap()
            .build(ProfileId::new(0));
        a.enqueue(Msg::Subscribe {
            seq: 0,
            id: 42,
            profile: profile.clone(),
        });
        a.enqueue(Msg::Unsubscribe { seq: 0, id: 42 });
        let events = pump(&net, &mut [&mut a, &mut b], 120);
        let subs: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, LinkEvent::Subscribe { id: 42, .. }))
            .collect();
        let unsubs: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, LinkEvent::Unsubscribe { id: 42, .. }))
            .collect();
        assert_eq!(subs.len(), 1, "subscribe delivered exactly once");
        assert_eq!(unsubs.len(), 1, "unsubscribe delivered exactly once");
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let s = schema();
        let net = SimNet::new(5);
        net.partition(1, 2);
        let mut a = PeerLink::new(
            1,
            2,
            Arc::clone(&s),
            1,
            0,
            Box::new(net.transport(1, 2)),
            fast_config(),
        );
        let mut events = Vec::new();
        // Poll on a 1 ms grid so attempt times are near-exact.
        for _ in 0..3_000 {
            a.poll(net.now_ms(), &mut events);
            net.advance(1);
        }
        let attempts = net.connect_attempts(1, 2);
        assert!(
            attempts.len() >= 8,
            "expected many attempts, got {attempts:?}"
        );
        let cfg = fast_config();
        for (k, pair) in attempts.windows(2).enumerate() {
            let gap = pair[1] - pair[0];
            let expected = cfg
                .backoff_base_ms
                .saturating_mul(1 << k.min(16))
                .min(cfg.backoff_max_ms);
            let jitter_max = cfg.backoff_base_ms / 4;
            assert!(
                gap >= expected && gap <= expected + jitter_max + 1,
                "attempt {k}: gap {gap} outside [{expected}, {}]",
                expected + jitter_max + 1
            );
        }
        // The cap must actually engage.
        let last_gap = attempts[attempts.len() - 1] - attempts[attempts.len() - 2];
        assert!(last_gap <= cfg.backoff_max_ms + cfg.backoff_base_ms / 4 + 1);
        assert!(last_gap >= cfg.backoff_max_ms);
    }

    #[test]
    fn reconnect_after_partition_resumes_without_loss_or_dup() {
        let s = schema();
        let net = SimNet::new(21);
        let (mut a, mut b) = link_pair(&net, &s);
        let mut all = pump(&net, &mut [&mut a, &mut b], 5);
        a.enqueue(batch(&s, [1, 2]));
        all.extend(pump(&net, &mut [&mut a, &mut b], 5));
        net.partition(1, 2);
        // Traffic queued during the partition waits in pending.
        a.enqueue(batch(&s, [3]));
        all.extend(pump(&net, &mut [&mut a, &mut b], 60));
        assert!(!a.is_up() && !b.is_up(), "timeout must drop both sides");
        net.heal(1, 2);
        all.extend(pump(&net, &mut [&mut a, &mut b], 120));
        assert!(a.is_up() && b.is_up());
        assert_eq!(delivered_xs(&all), vec![1, 2, 3]);
        assert!(
            all.iter().any(|e| matches!(e, LinkEvent::Down { .. })),
            "partition must surface as Down"
        );
    }

    #[test]
    fn receive_floor_dedupes_after_receiver_restart() {
        let s = schema();
        let net = SimNet::new(31);
        let (mut a, mut b) = link_pair(&net, &s);
        let mut all = pump(&net, &mut [&mut a, &mut b], 3);
        a.enqueue(batch(&s, [1, 2, 3]));
        all.extend(pump(&net, &mut [&mut a, &mut b], 5));
        assert_eq!(b.recv_high(), 3);
        // "Crash" b and restart it with its persisted floor; the
        // sender keeps its link state and simply reconnects.
        let floor = b.recv_high();
        drop(b);
        net.drop_link(1, 2);
        let mut b2 = PeerLink::new(
            2,
            1,
            Arc::clone(&s),
            2, // restarted process announces a new epoch
            floor,
            Box::new(net.transport(2, 1)),
            fast_config(),
        );
        a.enqueue(batch(&s, [4]));
        let all2 = pump(&net, &mut [&mut a, &mut b2], 120);
        assert_eq!(delivered_xs(&all2), vec![4], "floor must absorb 1..=3");
        assert!(
            all2.iter().any(|e| matches!(
                e,
                LinkEvent::Established {
                    peer: 2,
                    epoch_changed: true
                }
            )),
            "sender must observe the epoch change: {all2:?}"
        );
    }

    /// Delegates to a [`SimTransport`] but swallows the first
    /// `drops` sends — used to lose specific frames (the reconnect
    /// `Hello`s) deterministically.
    struct DropFirstSends {
        inner: SimTransport,
        drops: usize,
    }

    impl Transport for DropFirstSends {
        fn connect(&mut self, now_ms: u64) -> bool {
            self.inner.connect(now_ms)
        }
        fn is_connected(&self) -> bool {
            self.inner.is_connected()
        }
        fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
            if self.drops > 0 {
                self.drops -= 1;
                return Ok(());
            }
            self.inner.send(payload)
        }
        fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
            self.inner.recv()
        }
        fn close(&mut self) {
            self.inner.close();
        }
    }

    #[test]
    fn stale_hello_floor_from_previous_incarnation_is_not_an_ack() {
        let s = schema();
        let net = SimNet::new(61);
        let (mut a, mut b) = link_pair(&net, &s);
        let mut all = pump(&net, &mut [&mut a, &mut b], 3);
        a.enqueue(batch(&s, [1, 2, 3]));
        all.extend(pump(&net, &mut [&mut a, &mut b], 5));
        assert_eq!(b.recv_high(), 3);

        // Node 1 crashes and restarts with a new epoch and fresh
        // link state (sequences start over at 1); its first TWO
        // Hellos are lost. The survivor times out, reconnects, and
        // its Hello — still carrying the OLD incarnation's floor (3)
        // and epoch — brings the restarted link Up, which flushes
        // new seq 1..=3 into the unacked window. The survivor, still
        // greeting (it never saw a Hello), stays silent until the
        // restarted side times out and both reconnect; the
        // survivor's NEXT Hello repeats the stale floor while those
        // messages sit unacked. Treating that floor as an ack would
        // trim them, and once the survivor resets its own floor to 0
        // for the new epoch the link would wait on seq 1 forever.
        drop(a);
        net.drop_link(1, 2);
        let mut a2 = PeerLink::new(
            1,
            2,
            Arc::clone(&s),
            2, // restarted process announces a new epoch
            0,
            Box::new(DropFirstSends {
                inner: net.transport(1, 2),
                drops: 2,
            }),
            fast_config(),
        );
        a2.enqueue(batch(&s, [7, 8, 9]));
        let all2 = pump(&net, &mut [&mut a2, &mut b], 300);
        assert_eq!(
            delivered_xs(&all2),
            vec![7, 8, 9],
            "the new incarnation's traffic must survive the stale floor"
        );
    }

    #[test]
    fn full_pending_buffer_drops_its_oldest_message() {
        let s = schema();
        let net = SimNet::new(41);
        let cfg = LinkConfig {
            pending_cap: 2,
            ..fast_config()
        };
        let link = |me, peer| {
            let transport = Box::new(net.transport(me, peer));
            PeerLink::new(me, peer, Arc::clone(&s), 1, 0, transport, cfg)
        };
        let (mut a, mut b) = (link(1, 2), link(2, 1));
        // Not yet connected: everything stays pending, and the third
        // message evicts the first, both of its rows counted.
        a.enqueue(batch(&s, [1, 2]));
        a.enqueue(batch(&s, [3]));
        a.enqueue(batch(&s, [4]));
        assert_eq!(a.stats().overflow_dropped, 2);
        assert!(!a.is_failed(), "overflow never fails a link");
        let events = pump(&net, &mut [&mut a, &mut b], 20);
        assert_eq!(delivered_xs(&events), vec![3, 4]);
    }

    #[test]
    fn schema_mismatch_permanently_fails_the_link() {
        let s = schema();
        let other = Arc::new(
            Schema::builder()
                .attribute("x", Domain::int(0, 10))
                .unwrap()
                .build(),
        );
        let net = SimNet::new(51);
        let mut a = PeerLink::new(
            1,
            2,
            Arc::clone(&s),
            1,
            0,
            Box::new(net.transport(1, 2)),
            fast_config(),
        );
        let mut b = PeerLink::new(
            2,
            1,
            other,
            1,
            0,
            Box::new(net.transport(2, 1)),
            fast_config(),
        );
        let events = pump(&net, &mut [&mut a, &mut b], 10);
        assert!(events
            .iter()
            .any(|e| matches!(e, LinkEvent::SchemaMismatch { .. })));
        assert!(a.is_failed() || b.is_failed());
        let before = net.connect_attempts(1, 2).len();
        pump(&net, &mut [&mut a, &mut b], 50);
        let after = net.connect_attempts(1, 2).len();
        assert_eq!(before, after, "failed links must not keep reconnecting");
    }
}
