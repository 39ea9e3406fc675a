//! Hostile bytes off a peer: whatever payload a CRC-clean frame
//! carries, the link's `Msg::decode` and the pump behind it return —
//! a message applied, a refusal counted, a connection reset — without
//! a panic, and without holding more memory than the payload's length
//! accounts for.
//!
//! The valid frames are not rebuilt here: they are what a real broker
//! put on the wire, recorded off its transport, one of every message
//! kind. A raw transport then plays that broker's node to a victim.
//!
//! A single `#[test]`, so that no concurrent test thread disturbs the
//! byte counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::{SimNet, SimTransport};
use ens_service::federation::transport::{Transport, TransportError};
use ens_service::{Broker, BrokerConfig, Federation, FederationConfig};
use ens_types::{Domain, Event, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct LiveBytes;

/// Bytes allocated and not yet freed, and the most that ever was since
/// the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters publish no
// other data.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// A transport that keeps a copy of every payload sent through it.
struct Tap {
    inner: SimTransport,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Transport for Tap {
    fn connect(&mut self, now_ms: u64) -> bool {
        self.inner.connect(now_ms)
    }

    fn is_connected(&self) -> bool {
        self.inner.is_connected()
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.sent.lock().unwrap().push(payload.to_vec());
        self.inner.send(payload)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.recv()
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .attribute("label", Domain::categorical(["a", "b", "c"]).unwrap())
        .unwrap()
        .build()
}

fn node(id: u64) -> Federation {
    let broker = Broker::new(&schema(), BrokerConfig::default()).unwrap();
    Federation::new(
        Arc::new(broker),
        FederationConfig {
            node: id,
            epoch: 1,
            max_hops: 0,
            link: LinkConfig {
                heartbeat_ms: 50,
                timeout_ms: 300,
                backoff_base_ms: 20,
                backoff_max_ms: 200,
                rto_ms: 40,
                send_window: 32,
                pending_cap: 0,
            },
        },
    )
}

/// What node 2 says to node 1 over a short, ordinary life: greeting,
/// interest asked and withdrawn, a batch of events node 1 asked for,
/// acks of node 1's own traffic, heartbeats once it has nothing to say.
fn recorded_frames() -> Vec<Vec<u8>> {
    let s = schema();
    let net = SimNet::new(5);
    let a = node(1);
    let b = node(2);
    let sent = Arc::new(Mutex::new(Vec::new()));
    a.add_peer(2, Box::new(net.transport(1, 2)), 0);
    let tap = Tap {
        inner: net.transport(2, 1),
        sent: Arc::clone(&sent),
    };
    b.add_peer(1, Box::new(tap), 0);
    let pump = |steps: u32| {
        for _ in 0..steps {
            a.pump(net.now_ms()).unwrap();
            b.pump(net.now_ms()).unwrap();
            net.advance(10);
        }
    };
    pump(5);
    let _wanted = a.subscribe_parsed("profile(x >= 10)").unwrap();
    let narrow = b.subscribe_parsed("profile(x >= 40; label = b)").unwrap();
    let _wide = b.subscribe_parsed("profile(x <= 70)").unwrap();
    pump(5);
    b.unsubscribe(narrow.id()).unwrap();
    let events: Vec<Arc<Event>> = (0..40)
        .map(|i| {
            let e = Event::builder(&s).value("x", 2 * i + 1).unwrap();
            let e = match i % 3 {
                0 => e,
                k => e.value("label", ["b", "c"][k as usize - 1]).unwrap(),
            };
            Arc::new(e.build())
        })
        .collect();
    b.publish_batch(&events).unwrap();
    pump(20);
    let sent = sent.lock().unwrap().clone();
    for tag in 1..=6u8 {
        assert!(
            sent.iter().any(|p| p.first() == Some(&tag)),
            "no message of kind {tag} was recorded"
        );
    }
    sent
}

/// Node 1 with a raw transport for a peer, which says what it is told.
struct Victim {
    net: SimNet,
    fed: Federation,
    raw: SimTransport,
    hello: Vec<u8>,
    /// Connections reset, and messages read and then sorted out by
    /// their sequence number, on links since replaced.
    past: (u64, u64),
}

impl Victim {
    /// Has the peer say `payload` and pumps it in; returns the most
    /// bytes that pump held on top of what was live before it.
    fn hear(&mut self, payload: &[u8]) -> usize {
        // A link that a greeting with another schema's hash failed for
        // good is replaced, as an operator would; a connection the
        // victim reset is dialled again and the greeting said again,
        // so that what follows is read.
        if self.fed.metrics().peers_failed > 0 {
            let (resets, sorted_out) = self.outcomes();
            self.past = (resets, sorted_out);
            self.net.drop_link(1, 2);
            let transport = self.net.transport(1, 2);
            self.fed.add_peer(2, Box::new(transport), 0);
        }
        if !self.raw.is_connected() {
            self.net.advance(250);
            self.raw.connect(self.net.now_ms());
            self.fed.pump(self.net.now_ms()).unwrap();
            self.raw.send(&self.hello).unwrap();
        }
        self.raw.send(payload).unwrap();
        self.net.advance(10);

        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let report = self.fed.pump(self.net.now_ms()).unwrap();
        let held = PEAK.load(Ordering::Relaxed) - before;
        drop(report);
        while let Ok(Some(_)) = self.raw.recv() {}
        held
    }

    fn outcomes(&self) -> (u64, u64) {
        let m = self.fed.metrics();
        (
            self.past.0 + m.resets,
            self.past.1 + m.gap_drops + m.duplicates,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn no_payload_off_a_peer_panics_or_outgrows_its_length(seed in 0u64..=u64::MAX) {
        let frames = recorded_frames();
        let net = SimNet::new(6);
        let mut victim = Victim {
            fed: node(1),
            raw: net.transport(2, 1),
            hello: frames.iter().find(|p| p[0] == 1).unwrap().clone(),
            past: (0, 0),
            net,
        };
        let transport = victim.net.transport(1, 2);
        victim.fed.add_peer(2, Box::new(transport), 0);
        let _sub = victim.fed.subscribe_parsed("profile(x >= 0)").unwrap();

        // The widest thing a payload byte decodes to is a row cell and
        // its origin sequence (16 bytes), and a row that survives
        // ingress becomes an event, a delivery record and a
        // notification (the recorded batch: 111 bytes, 35 rows, 12 kB
        // held); a length read off the wire never sizes an allocation
        // on its own.
        let budget = |payload: &[u8]| 128 * payload.len() + 4096;

        // The conversation as it was recorded: every frame is read, and
        // the rows of its batch are delivered.
        for payload in &frames {
            let held = victim.hear(payload);
            prop_assert!(held <= budget(payload), "{held} bytes held for {payload:?}");
        }
        prop_assert!(victim.fed.metrics().delivered_rows > 0);

        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..4000 {
            let valid = &frames[rng.gen_range(0..frames.len())];
            let payload: Vec<u8> = match case % 4 {
                // Arbitrary bytes, half of them behind a real tag.
                0 => {
                    let mut p: Vec<u8> =
                        (0..rng.gen_range(0..200)).map(|_| rng.gen::<u8>()).collect();
                    if let (true, Some(tag)) = (rng.gen_bool(0.5), p.first_mut()) {
                        *tag = rng.gen_range(1..=6);
                    }
                    p
                }
                // A recorded frame with a few bits flipped.
                1 | 2 => {
                    let mut p = valid.clone();
                    for _ in 0..rng.gen_range(1..4) {
                        let at = rng.gen_range(0..p.len());
                        p[at] ^= 1 << rng.gen_range(0..8);
                    }
                    p
                }
                // A recorded frame cut short, or with bytes spliced in.
                _ => {
                    let mut p = valid.clone();
                    let at = rng.gen_range(0..p.len());
                    if rng.gen_bool(0.5) {
                        p.truncate(at);
                    } else {
                        let extra: Vec<u8> =
                            (0..rng.gen_range(1..16)).map(|_| rng.gen::<u8>()).collect();
                        p.splice(at..at, extra);
                    }
                    p
                }
            };
            let held = victim.hear(&payload);
            prop_assert!(
                held <= budget(&payload),
                "{held} bytes held pumping a {}-byte payload {payload:?}",
                payload.len()
            );
        }
        // Both outcomes are reached: payloads that cost the connection,
        // and payloads read as messages and sorted out by sequence.
        let (resets, sorted_out) = victim.outcomes();
        prop_assert!(resets > 1000 && sorted_out > 100, "{resets} resets, {sorted_out} read");
    }
}
