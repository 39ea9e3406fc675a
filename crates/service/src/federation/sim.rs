//! Deterministic fault-injection network for federation tests.
//!
//! [`SimNet`] is an in-memory "internet" with a virtual clock and a
//! seeded RNG. [`SimTransport`]s attached to it behave like the TCP
//! transport — framed payloads, connection state, corruption errors —
//! but every fault is injected from a [`FaultPlan`] and every run with
//! the same seed replays identically:
//!
//! - **drop**: a sent frame silently vanishes (the link's
//!   retransmission timer must recover it),
//! - **duplicate**: a frame is delivered twice (receiver dedup must
//!   absorb it),
//! - **delay / reorder**: frames arrive late and out of order,
//! - **torn write**: a frame is truncated mid-bytes, surfacing as a
//!   CRC/length corruption exactly like a half-flushed TCP segment,
//! - **partition**: a node pair stops exchanging traffic entirely and
//!   existing connections break (both sides observe disconnects and
//!   enter reconnect backoff — which the tests assert is capped
//!   exponential, via the [`SimNet::connect_attempts`] log).
//!
//! Time only moves when the test calls [`SimNet::advance`], so
//! timeout and backoff behaviour is asserted against exact virtual
//! milliseconds, not wall-clock sleeps.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use ens_filter::persist::frame;

use super::transport::{Transport, TransportError};
use super::wire::{FrameBuffer, FRAME_HEADER};

/// Probabilities and delay bounds for injected faults. All
/// probabilities are independent per frame; the default plan is a
/// perfect network.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Probability a frame is silently dropped.
    pub drop_p: f64,
    /// Probability a frame is delivered twice.
    pub dup_p: f64,
    /// Probability a frame gets an extra delay (reordering it behind
    /// later traffic).
    pub reorder_p: f64,
    /// Probability a frame is truncated (torn write → CRC failure →
    /// receiver resets the connection).
    pub torn_p: f64,
    /// Uniform per-frame latency lower bound, virtual ms.
    pub delay_lo_ms: u64,
    /// Uniform per-frame latency upper bound, virtual ms.
    pub delay_hi_ms: u64,
}

/// In-flight frames for one ordered (from, to) direction, keyed by
/// (deliver_at, order) so reordering falls out of the keys.
type FlightQueue = BTreeMap<(u64, u64), Vec<u8>>;

#[derive(Debug, Default)]
struct SimState {
    now_ms: u64,
    rng: u64,
    plan: FaultPlan,
    /// Unordered pairs currently connected (a connect from either
    /// side establishes the pair, mirroring TCP accept).
    conns: HashSet<(u64, u64)>,
    /// Unordered pairs currently partitioned.
    partitions: HashSet<(u64, u64)>,
    /// In-flight frames per ordered (from, to) pair.
    queues: HashMap<(u64, u64), FlightQueue>,
    order: u64,
    /// Every connect attempt: (virtual time, from, to). The backoff
    /// tests assert capped exponential gaps on this log.
    attempts: Vec<(u64, u64, u64)>,
}

fn pair(a: u64, b: u64) -> (u64, u64) {
    (a.min(b), a.max(b))
}

/// splitmix64 — tiny, seedable, good enough for fault dice and
/// reconnect jitter.
pub(super) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimState {
    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        (splitmix64(&mut self.rng) as f64 / u64::MAX as f64) < p
    }

    fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + splitmix64(&mut self.rng) % (hi - lo + 1)
    }

    fn connected(&self, a: u64, b: u64) -> bool {
        self.conns.contains(&pair(a, b)) && !self.partitions.contains(&pair(a, b))
    }

    fn sever(&mut self, a: u64, b: u64) {
        self.conns.remove(&pair(a, b));
        self.queues.remove(&(a, b));
        self.queues.remove(&(b, a));
    }
}

/// The shared deterministic network. Cheap to clone (handle to the
/// same state).
#[derive(Debug, Clone)]
pub struct SimNet {
    state: Arc<Mutex<SimState>>,
}

impl SimNet {
    /// A perfect network with a seeded RNG at virtual time 0.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimNet {
            state: Arc::new(Mutex::new(SimState {
                rng: seed ^ 0x5DEE_CE66_D1CE_CAFE,
                ..SimState::default()
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs a fault plan (applies to frames sent from now on).
    pub fn set_plan(&self, plan: FaultPlan) {
        self.lock().plan = plan;
    }

    /// Advances the virtual clock.
    pub fn advance(&self, ms: u64) {
        self.lock().now_ms += ms;
    }

    /// Current virtual time.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.lock().now_ms
    }

    /// A transport endpoint for node `local` talking to node `peer`.
    #[must_use]
    pub fn transport(&self, local: u64, peer: u64) -> SimTransport {
        SimTransport {
            net: self.clone(),
            local,
            peer,
            rbuf: FrameBuffer::new(),
        }
    }

    /// Partitions `a` and `b`: existing connections break, traffic in
    /// flight is lost, reconnects fail until [`SimNet::heal`].
    pub fn partition(&self, a: u64, b: u64) {
        let mut s = self.lock();
        s.partitions.insert(pair(a, b));
        s.sever(a, b);
    }

    /// Heals a partition (reconnects may then succeed).
    pub fn heal(&self, a: u64, b: u64) {
        self.lock().partitions.remove(&pair(a, b));
    }

    /// Forcibly breaks the connection between `a` and `b` (like a
    /// peer crash / TCP reset) without installing a partition.
    pub fn drop_link(&self, a: u64, b: u64) {
        self.lock().sever(a, b);
    }

    /// Virtual times at which `from` attempted to connect to `to` —
    /// the raw data behind the capped-exponential-backoff assertions.
    #[must_use]
    pub fn connect_attempts(&self, from: u64, to: u64) -> Vec<u64> {
        self.lock()
            .attempts
            .iter()
            .filter(|(_, f, t)| *f == from && *t == to)
            .map(|(at, _, _)| *at)
            .collect()
    }
}

/// [`Transport`] endpoint on a [`SimNet`].
#[derive(Debug)]
pub struct SimTransport {
    net: SimNet,
    local: u64,
    peer: u64,
    rbuf: FrameBuffer,
}

impl Transport for SimTransport {
    fn connect(&mut self, now_ms: u64) -> bool {
        let mut s = self.net.lock();
        // Trust the caller's clock for the attempt log when it is
        // ahead (links poll with the harness clock).
        let at = now_ms.max(s.now_ms);
        s.attempts.push((at, self.local, self.peer));
        if s.partitions.contains(&pair(self.local, self.peer)) {
            return false;
        }
        s.conns.insert(pair(self.local, self.peer));
        true
    }

    fn is_connected(&self) -> bool {
        self.net.lock().connected(self.local, self.peer)
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let mut s = self.net.lock();
        if !s.connected(self.local, self.peer) {
            return Err(TransportError::Disconnected);
        }
        let mut bytes = frame(payload)?;
        let plan = s.plan;
        if s.chance(plan.drop_p) {
            return Ok(()); // vanished on the wire
        }
        if s.chance(plan.torn_p) {
            // Keep the header plus half the payload: enough for the
            // receiver to see a frame it can never complete or whose
            // CRC fails.
            bytes.truncate(FRAME_HEADER + payload.len() / 2);
        }
        let mut delay = s.uniform(plan.delay_lo_ms, plan.delay_hi_ms);
        if s.chance(plan.reorder_p) {
            delay += s.uniform(1, 50);
        }
        let deliver_at = s.now_ms + delay;
        let dup = s.chance(plan.dup_p);
        let key = (self.local, self.peer);
        let order = s.order;
        s.order += if dup { 2 } else { 1 };
        let q = s.queues.entry(key).or_default();
        q.insert((deliver_at, order), bytes.clone());
        if dup {
            q.insert((deliver_at, order + 1), bytes);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        // Frames already pulled off the network re-frame through the
        // same buffer as TCP, so torn bytes fail identically.
        let mut s = self.net.lock();
        if !s.connected(self.local, self.peer) {
            return Err(TransportError::Disconnected);
        }
        let now = s.now_ms;
        loop {
            match self.rbuf.next_frame() {
                Ok(Some(p)) => return Ok(Some(p)),
                Ok(None) => {}
                Err(e) => {
                    // Corrupt stream: the connection is unusable for
                    // both sides, like a TCP reset after bad framing.
                    s.sever(self.local, self.peer);
                    self.rbuf = FrameBuffer::new();
                    return Err(e.into());
                }
            }
            let Some(q) = s.queues.get_mut(&(self.peer, self.local)) else {
                return Ok(None);
            };
            let Some(next) = q.first_entry() else {
                return Ok(None);
            };
            if next.key().0 > now {
                return Ok(None);
            }
            let bytes = next.remove();
            // Each queued blob is one send() call's worth of stream
            // bytes. A blob shorter than its own declared frame is a
            // torn write whose tail will never arrive (the sender
            // moved on); on TCP the stream dies there, so surface it
            // now instead of waiting for later bytes to misalign the
            // CRC. Only decidable when the buffer holds no earlier
            // partial frame.
            if let (0, Some(&[a, b, c, d])) = (self.rbuf.pending(), bytes.get(..4)) {
                let declared = u32::from_le_bytes([a, b, c, d]) as usize;
                if (FRAME_HEADER..FRAME_HEADER + declared).contains(&bytes.len()) {
                    s.sever(self.local, self.peer);
                    self.rbuf = FrameBuffer::new();
                    return Err(TransportError::Corrupt(format!(
                        "torn frame: {} of {} bytes",
                        bytes.len(),
                        FRAME_HEADER + declared
                    )));
                }
            }
            self.rbuf.extend(&bytes);
        }
    }

    fn close(&mut self) {
        let mut s = self.net.lock();
        s.sever(self.local, self.peer);
        drop(s);
        self.rbuf = FrameBuffer::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order_on_a_perfect_net() {
        let net = SimNet::new(1);
        let mut a = net.transport(1, 2);
        let mut b = net.transport(2, 1);
        assert!(a.connect(0));
        assert!(b.is_connected());
        a.send(b"hi").unwrap();
        a.send(b"there").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"hi");
        assert_eq!(b.recv().unwrap().unwrap(), b"there");
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn delay_holds_frames_until_time_passes() {
        let net = SimNet::new(2);
        net.set_plan(FaultPlan {
            delay_lo_ms: 10,
            delay_hi_ms: 10,
            ..FaultPlan::default()
        });
        let mut a = net.transport(1, 2);
        let mut b = net.transport(2, 1);
        a.connect(0);
        a.send(b"late").unwrap();
        assert_eq!(b.recv().unwrap(), None);
        net.advance(10);
        assert_eq!(b.recv().unwrap().unwrap(), b"late");
    }

    #[test]
    fn torn_writes_surface_as_corruption() {
        let net = SimNet::new(3);
        net.set_plan(FaultPlan {
            torn_p: 1.0,
            ..FaultPlan::default()
        });
        let mut a = net.transport(1, 2);
        let mut b = net.transport(2, 1);
        a.connect(0);
        a.send(b"will be torn mid-write").unwrap();
        assert!(matches!(b.recv(), Err(TransportError::Corrupt(_))));
        // The connection died with the corruption.
        assert!(!b.is_connected());
    }

    #[test]
    fn partition_breaks_and_heal_restores() {
        let net = SimNet::new(4);
        let mut a = net.transport(1, 2);
        let mut b = net.transport(2, 1);
        a.connect(0);
        net.partition(1, 2);
        assert!(matches!(a.send(b"x"), Err(TransportError::Disconnected)));
        assert!(!a.connect(5));
        net.heal(1, 2);
        assert!(a.connect(9));
        a.send(b"back").unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"back");
        assert_eq!(net.connect_attempts(1, 2), vec![0, 5, 9]);
    }

    #[test]
    fn same_seed_same_faults() {
        let run = |seed: u64| -> Vec<Option<Vec<u8>>> {
            let net = SimNet::new(seed);
            net.set_plan(FaultPlan {
                drop_p: 0.3,
                dup_p: 0.2,
                ..FaultPlan::default()
            });
            let mut a = net.transport(1, 2);
            let mut b = net.transport(2, 1);
            a.connect(0);
            for i in 0..20u8 {
                a.send(&[i]).unwrap();
            }
            (0..40).map(|_| b.recv().unwrap()).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }
}
