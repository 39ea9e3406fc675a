//! Federation robustness suite: seeded fault schedules against a
//! single-process oracle.
//!
//! Every test drives two or three federated brokers over the
//! deterministic fault-injection network (`SimNet`) with a virtual
//! clock, then checks the delivered event stream against the oracle —
//! the events a single process would have matched, in publish order.
//! No loss, no duplicates, no reordering, whatever the fault plan.

use std::sync::Arc;

use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::{FaultPlan, SimNet};
use ens_service::federation::RemoteDelivery;
use ens_service::{Broker, BrokerConfig, Federation, FederationConfig};
use ens_types::{Domain, Event, Schema};
use ens_workloads::{flap_plan, FlapOp};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 9999))
        .expect("static schema")
        .build()
}

fn event(s: &Schema, x: i64) -> Event {
    Event::builder(s).value("x", x).expect("in domain").build()
}

fn fast_link() -> LinkConfig {
    LinkConfig {
        heartbeat_ms: 50,
        timeout_ms: 300,
        backoff_base_ms: 20,
        backoff_max_ms: 200,
        rto_ms: 40,
        send_window: 16,
        pending_cap: 0,
    }
}

fn fed(net: &SimNet, node: u64, epoch: u64, peers: &[(u64, u64)], link: LinkConfig) -> Federation {
    let broker = Arc::new(Broker::new(&schema(), BrokerConfig::default()).expect("broker"));
    let f = Federation::new(
        broker,
        FederationConfig {
            node,
            epoch,
            link,
            ..FederationConfig::default()
        },
    );
    for &(peer, floor) in peers {
        f.add_peer(peer, Box::new(net.transport(node, peer)), floor);
    }
    f
}

fn xs(deliveries: &[RemoteDelivery]) -> Vec<i64> {
    let s = schema();
    let attr = s.require("x").expect("x");
    deliveries
        .iter()
        .map(|d| match d.event.value(attr) {
            Some(ens_types::Value::Int(i)) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

/// Pumps every federation once per 10 virtual ms for `steps` steps,
/// collecting deliveries in arrival order.
fn pump_all(net: &SimNet, feds: &[&Federation], steps: u32, out: &mut Vec<RemoteDelivery>) {
    for _ in 0..steps {
        let now = net.now_ms();
        for f in feds {
            out.extend(f.pump(now).expect("pump").delivered);
        }
        net.advance(10);
    }
}

fn wait_up(net: &SimNet, feds: &[&Federation]) {
    for _ in 0..200 {
        let now = net.now_ms();
        for f in feds {
            f.pump(now).expect("pump");
        }
        net.advance(10);
        if feds.iter().all(|f| {
            let m = f.metrics();
            m.peers_up > 0
        }) {
            return;
        }
    }
    panic!("links never came up");
}

#[test]
fn seeded_faults_cannot_lose_duplicate_or_reorder() {
    // Hostile network: a quarter of all frames drop, a fifth
    // duplicate, a fifth reorder, 2% tear mid-write, and latency
    // jitters up to 30 virtual ms. The subscriber must still see
    // exactly the matching events, exactly once, in publish order.
    for seed in [7, 99, 2002] {
        let net = SimNet::new(seed);
        let a = fed(&net, 1, 1, &[(2, 0)], fast_link());
        let b = fed(&net, 2, 1, &[(1, 0)], fast_link());
        let _sub = b.subscribe_parsed("profile(x >= 1000)").unwrap();
        wait_up(&net, &[&a, &b]);
        net.set_plan(FaultPlan {
            drop_p: 0.25,
            dup_p: 0.2,
            reorder_p: 0.2,
            torn_p: 0.02,
            delay_lo_ms: 0,
            delay_hi_ms: 30,
        });

        let s = schema();
        let mut delivered = Vec::new();
        let mut oracle = Vec::new();
        for i in 0..200i64 {
            // Interleave matching and non-matching events.
            let x = if i % 3 == 0 { 1000 + i } else { i % 1000 };
            if x >= 1000 {
                oracle.push(x);
            }
            a.publish(&event(&s, x)).unwrap();
            pump_all(&net, &[&a, &b], 2, &mut delivered);
        }
        // Calm the network and let retransmissions drain.
        net.set_plan(FaultPlan::default());
        pump_all(&net, &[&a, &b], 300, &mut delivered);

        assert_eq!(xs(&delivered), oracle, "seed {seed}");
        assert_eq!(a.backlog(), 0, "seed {seed}: sender should fully drain");
        let m = a.metrics();
        assert!(m.retransmits > 0, "seed {seed}: faults should have bitten");
    }
}

#[test]
fn flap_schedule_recovers_every_partition() {
    // A workloads-crate flap plan partitions the pair on a fixed
    // cadence while the publisher keeps publishing. Heals must
    // recover every gap: the oracle is exact.
    let net = SimNet::new(11);
    let a = fed(&net, 1, 1, &[(2, 0)], fast_link());
    let b = fed(&net, 2, 1, &[(1, 0)], fast_link());
    let _sub = b.subscribe_parsed("profile(x >= 0)").unwrap();
    wait_up(&net, &[&a, &b]);

    let start = net.now_ms();
    let plan = flap_plan(&[(1, 2)], 400, 150, 4000);
    let mut cursor = 0;
    let mut delivered = Vec::new();
    let s = schema();
    let mut published = 0i64;
    while net.now_ms() - start < 4200 {
        for ev in plan.due(&mut cursor, net.now_ms() - start) {
            match ev.op {
                FlapOp::Partition(x, y) => net.partition(x, y),
                FlapOp::Heal(x, y) => net.heal(x, y),
            }
        }
        a.publish(&event(&s, published % 10_000)).unwrap();
        published += 1;
        pump_all(&net, &[&a, &b], 1, &mut delivered);
    }
    // Final heal + drain.
    for ev in plan.due(&mut cursor, u64::MAX) {
        if let FlapOp::Heal(x, y) = ev.op {
            net.heal(x, y);
        }
    }
    pump_all(&net, &[&a, &b], 400, &mut delivered);

    let oracle: Vec<i64> = (0..published).map(|i| i % 10_000).collect();
    assert_eq!(xs(&delivered), oracle);
    assert!(
        plan.partitioned_ms(1, 2, 4000) >= 1000,
        "the plan should actually have kept the pair down for a while"
    );
    assert!(a.metrics().resets > 0, "partitions should reset the link");
}

#[test]
fn crash_restart_with_persisted_floors_is_exactly_once() {
    // b crashes mid-stream. Its replacement restores the receive
    // floor b had durably reached and announces a new epoch; the
    // union of deliveries across both incarnations must be exactly
    // the oracle — retransmitted overlap deduplicates, nothing is
    // lost, nothing arrives twice.
    let net = SimNet::new(23);
    let a = fed(&net, 1, 1, &[(2, 0)], fast_link());
    let b = fed(&net, 2, 1, &[(1, 0)], fast_link());
    let _sub = b.subscribe_parsed("profile(x >= 0)").unwrap();
    wait_up(&net, &[&a, &b]);
    net.set_plan(FaultPlan {
        drop_p: 0.1,
        delay_lo_ms: 0,
        delay_hi_ms: 20,
        ..FaultPlan::default()
    });

    let s = schema();
    let mut first_life = Vec::new();
    for x in 0..60i64 {
        a.publish(&event(&s, x)).unwrap();
        pump_all(&net, &[&a, &b], 1, &mut first_life);
    }

    // Crash: the link drops, the process state vanishes — except the
    // floors, which b "persisted" on every pump.
    let floors = b.recv_floors();
    let floor = floors.iter().find(|&&(p, _)| p == 1).map_or(0, |&(_, f)| f);
    drop(b);
    net.drop_link(1, 2);

    let b2 = fed(&net, 2, 2, &[], fast_link());
    let _sub2 = b2.subscribe_parsed("profile(x >= 0)").unwrap();
    b2.add_peer(1, Box::new(net.transport(2, 1)), floor);

    // a keeps publishing while b2 reconnects.
    let mut second_life = Vec::new();
    for x in 60..120i64 {
        a.publish(&event(&s, x)).unwrap();
        pump_all(&net, &[&a, &b2], 2, &mut second_life);
    }
    net.set_plan(FaultPlan::default());
    pump_all(&net, &[&a, &b2], 300, &mut second_life);

    let mut union = xs(&first_life);
    union.extend(xs(&second_life));
    assert_eq!(union, (0..120).collect::<Vec<_>>());
    assert_eq!(a.backlog(), 0);
}

#[test]
fn overflow_policy_sheds_bounded_backlog_and_reports_it() {
    // A long partition with a tiny pending buffer: DropOldest keeps
    // the newest traffic, the drop count is reported, and what does
    // arrive after the heal is duplicate-free and in order.
    let net = SimNet::new(31);
    let link = LinkConfig {
        pending_cap: 8,
        send_window: 4,
        ..fast_link()
    };
    let a = fed(&net, 1, 1, &[(2, 0)], link);
    let b = fed(&net, 2, 1, &[(1, 0)], link);
    let _sub = b.subscribe_parsed("profile(x >= 0)").unwrap();
    wait_up(&net, &[&a, &b]);

    net.partition(1, 2);
    let s = schema();
    let mut delivered = Vec::new();
    for x in 0..50i64 {
        a.publish(&event(&s, x)).unwrap();
        pump_all(&net, &[&a, &b], 1, &mut delivered);
    }
    let m = a.metrics();
    assert!(
        m.overflow_dropped > 0,
        "a bounded buffer must have shed under partition: {m:?}"
    );
    assert!(delivered.is_empty());

    net.heal(1, 2);
    pump_all(&net, &[&a, &b], 400, &mut delivered);
    let got = xs(&delivered);
    assert!(!got.is_empty(), "healed link should deliver the survivors");
    // Survivors are a strictly increasing subsequence of the oracle
    // ending at the newest event (DropOldest sheds from the front).
    assert!(got.windows(2).all(|w| w[0] < w[1]), "order: {got:?}");
    assert_eq!(*got.last().unwrap(), 49);
    assert_eq!(
        got.len() as u64 + a.metrics().overflow_dropped,
        50,
        "every event is either delivered or accounted as shed"
    );
}

#[test]
fn tcp_loopback_pair_exchanges_events() {
    // Same state machine over real sockets: node 2 (higher id)
    // listens, node 1 dials. Real time, generous deadlines.
    use std::time::{Duration, Instant};

    let s = schema();
    let mk = |node: u64| {
        Arc::new(Federation::new(
            Arc::new(Broker::new(&s, BrokerConfig::default()).expect("broker")),
            FederationConfig {
                node,
                epoch: 1,
                ..FederationConfig::default()
            },
        ))
    };
    let a = mk(1);
    let b = mk(2);
    let addr = b.bind("127.0.0.1:0".parse().unwrap()).expect("bind");
    b.add_tcp_peer(1, addr, 0);
    a.add_tcp_peer(2, addr, 0);

    let _sub = b.subscribe_parsed("profile(x >= 500)").unwrap();

    let start = Instant::now();
    let deadline = start + Duration::from_secs(10);
    let mut published = false;
    let mut delivered = Vec::new();
    while Instant::now() < deadline {
        let now = start.elapsed().as_millis() as u64;
        delivered.extend(a.pump(now).expect("pump a").delivered);
        delivered.extend(b.pump(now).expect("pump b").delivered);
        if !published && a.metrics().peers_up == 1 && b.metrics().peers_up == 1 {
            a.publish(&event(&s, 100)).unwrap();
            a.publish(&event(&s, 600)).unwrap();
            a.publish(&event(&s, 700)).unwrap();
            published = true;
        }
        if delivered.len() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(xs(&delivered), vec![600, 700]);
    assert_eq!(b.metrics().delivered_rows, 2);
    assert_eq!(a.metrics().forwarded_rows, 2);
}

#[test]
fn restored_origin_floors_only_rise() {
    // A restart restores the floors a checkpoint saved. A stale copy
    // restored after a newer one must not lower them: the window it
    // re-opened would let a duplicate through.
    let net = SimNet::new(29);
    let a = fed(&net, 1, 1, &[], fast_link());
    assert!(a.origin_floors().is_empty());
    a.set_origin_floor(7, 40);
    a.set_origin_floor(9, 3);
    a.set_origin_floor(7, 12);
    assert_eq!(a.origin_floors(), [(7, 40), (9, 3)]);
    a.set_origin_floor(7, 41);
    assert_eq!(a.origin_floors(), [(7, 41), (9, 3)]);
}
