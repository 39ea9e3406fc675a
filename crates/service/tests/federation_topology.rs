//! Multi-hop topology oracle suite: line, star, and tree overlays
//! against the full-mesh oracle, under seeded faults.
//!
//! A full mesh delivers every matching event to every subscriber
//! exactly once, in per-origin publish order, because each event
//! travels exactly one reliable FIFO link. These tests assert that a
//! *multi-hop* overlay (per-origin routing over a spanning tree,
//! bounded by a TTL hop budget) is observationally equivalent: for
//! every subscriber, the delivered stream equals the stream the full
//! mesh would have produced — computed analytically as "all matching
//! events from other brokers, per origin in publish order" — no
//! matter how many relays sit on the path, and no matter what the
//! seeded fault plan (drops, duplicates, reordering, partitions)
//! does to the links underneath.
//!
//! Loop freedom is asserted as a hard bound on forwarded rows: on an
//! acyclic overlay every accepted event crosses each undirected edge
//! at most once per direction, so the sum of forwarded rows across
//! all brokers can never exceed `2 * edges * published`.

use std::collections::HashMap;
use std::sync::Arc;

use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::{FaultPlan, SimNet};
use ens_service::{Broker, BrokerConfig, Federation, FederationConfig};
use ens_types::{Domain, Event, Schema, Value};
use ens_workloads::{line_topology, star_topology, tree_topology, Topology};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99_999))
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
        send_window: 32,
        pending_cap: 0,
    }
}

/// One federated broker per topology node, each linked to exactly its
/// topology neighbours, with a hop budget covering the diameter.
fn build(net: &SimNet, topo: &Topology, epoch: u64) -> HashMap<u64, Federation> {
    let s = schema();
    let max_hops = u8::try_from(topo.diameter()).expect("small topologies");
    let mut feds = HashMap::new();
    for &node in &topo.nodes {
        let broker = Arc::new(Broker::new(&s, BrokerConfig::default()).expect("broker"));
        let f = Federation::new(
            broker,
            FederationConfig {
                node,
                epoch,
                max_hops,
                link: fast_link(),
            },
        );
        for peer in topo.neighbors(node) {
            f.add_peer(peer, Box::new(net.transport(node, peer)), 0);
        }
        feds.insert(node, f);
    }
    feds
}

fn pump_all(net: &SimNet, feds: &HashMap<u64, Federation>, steps: u32) {
    let mut nodes: Vec<u64> = feds.keys().copied().collect();
    nodes.sort_unstable();
    for _ in 0..steps {
        let now = net.now_ms();
        for n in &nodes {
            feds[n].pump(now).expect("pump");
        }
        net.advance(10);
    }
}

fn xs(s: &Schema, notifications: &[ens_service::Notification]) -> Vec<i64> {
    let attr = s.require("x").expect("x");
    notifications
        .iter()
        .map(|n| match n.event.value(attr) {
            Some(Value::Int(i)) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

/// The full-mesh oracle for one subscriber: every event published at
/// another broker that matches its profile, grouped per origin in
/// publish order. `published` maps origin -> xs in publish order.
fn oracle(
    published: &HashMap<u64, Vec<i64>>,
    subscriber: u64,
    matches: impl Fn(i64) -> bool,
) -> HashMap<u64, Vec<i64>> {
    let mut want = HashMap::new();
    for (&origin, values) in published {
        if origin == subscriber {
            continue;
        }
        let m: Vec<i64> = values.iter().copied().filter(|&x| matches(x)).collect();
        if !m.is_empty() {
            want.insert(origin, m);
        }
    }
    want
}

/// Splits a subscriber's delivered stream back into per-origin
/// sub-streams using the origin id encoded in the value
/// (`x = origin * 1000 + i`).
fn per_origin(xs: &[i64]) -> HashMap<u64, Vec<i64>> {
    let mut got: HashMap<u64, Vec<i64>> = HashMap::new();
    for &x in xs {
        got.entry(u64::try_from(x / 1000).expect("positive"))
            .or_default()
            .push(x);
    }
    got
}

/// Drives the topology through a faulty phase and checks every
/// subscriber against the full-mesh oracle.
fn run_topology(topo: &Topology, seed: u64, events_per_node: i64) {
    let net = SimNet::new(seed);
    let feds = build(&net, topo, 1);
    let s = schema();

    // Every broker subscribes to everything; values encode their
    // origin so the delivered stream can be split per origin.
    let mut subs = HashMap::new();
    for &node in &topo.nodes {
        subs.insert(
            node,
            feds[&node]
                .subscribe_parsed("profile(x >= 0)")
                .expect("subscribe"),
        );
    }
    // Let interest propagate across the whole overlay (hop by hop).
    pump_all(&net, &feds, 60);

    // Faulty middle: drops, duplicates, reordering, jitter.
    net.set_plan(FaultPlan {
        drop_p: 0.15,
        dup_p: 0.1,
        reorder_p: 0.1,
        torn_p: 0.01,
        delay_lo_ms: 0,
        delay_hi_ms: 20,
    });

    let mut published: HashMap<u64, Vec<i64>> = HashMap::new();
    for i in 0..events_per_node {
        for &node in &topo.nodes {
            let x = i64::try_from(node).expect("small") * 1000 + i;
            feds[&node].publish(&event(&s, x)).expect("publish");
            published.entry(node).or_default().push(x);
        }
        pump_all(&net, &feds, 2);
    }

    // Calm the network and drain retransmissions.
    net.set_plan(FaultPlan::default());
    pump_all(&net, &feds, 400);

    let total_published: u64 = published.values().map(|v| v.len() as u64).sum();
    let mut forwarded_total = 0;
    for &node in &topo.nodes {
        let delivered = xs(&s, &subs[&node].drain());
        // Local publishes notify the local subscriber too; the
        // cross-broker stream is everything from other origins.
        let remote: Vec<i64> = delivered
            .iter()
            .copied()
            .filter(|&x| u64::try_from(x / 1000).expect("positive") != node)
            .collect();
        let got = per_origin(&remote);
        let want = oracle(&published, node, |_| true);
        assert_eq!(
            got, want,
            "seed {seed}: subscriber {node} must see exactly the full-mesh \
             stream, per origin in publish order"
        );
        forwarded_total += feds[&node].metrics().forwarded_rows;
    }
    // Loop freedom: each event crosses each undirected edge at most
    // once per direction on an acyclic overlay.
    let bound = 2 * topo.edges.len() as u64 * total_published;
    assert!(
        forwarded_total <= bound,
        "seed {seed}: forwarded {forwarded_total} rows exceeds the acyclic \
         bound {bound} — a routing loop"
    );
}

#[test]
fn line_topology_matches_full_mesh_oracle_under_faults() {
    for seed in [3, 41] {
        run_topology(&line_topology(3), seed, 30);
    }
    run_topology(&line_topology(4), 77, 20);
}

#[test]
fn star_topology_matches_full_mesh_oracle_under_faults() {
    run_topology(&star_topology(5), 13, 20);
}

#[test]
fn tree_topology_matches_full_mesh_oracle_under_faults() {
    run_topology(&tree_topology(7), 29, 10);
}

#[test]
fn partition_and_heal_preserve_exactly_once_on_a_line() {
    // Sever the middle edge of 1—2—3 while 1 keeps publishing, then
    // heal: subscriber 3 must converge to the exact full stream with
    // no duplicates, because the reliable link replays the gap and
    // per-origin floors absorb anything the replay duplicates.
    let net = SimNet::new(5);
    let topo = line_topology(3);
    let feds = build(&net, &topo, 1);
    let s = schema();
    let sub = feds[&3]
        .subscribe_parsed("profile(x >= 0)")
        .expect("subscribe");
    pump_all(&net, &feds, 60);

    let mut want = Vec::new();
    for i in 0..10 {
        let x = 1000 + i;
        feds[&1].publish(&event(&s, x)).expect("publish");
        want.push(x);
        pump_all(&net, &feds, 2);
    }
    net.partition(2, 3);
    for i in 10..20 {
        let x = 1000 + i;
        feds[&1].publish(&event(&s, x)).expect("publish");
        want.push(x);
        pump_all(&net, &feds, 2);
    }
    pump_all(&net, &feds, 50);
    net.heal(2, 3);
    for i in 20..30 {
        let x = 1000 + i;
        feds[&1].publish(&event(&s, x)).expect("publish");
        want.push(x);
        pump_all(&net, &feds, 2);
    }
    pump_all(&net, &feds, 400);

    assert_eq!(
        xs(&s, &sub.drain()),
        want,
        "heal must recover the gap exactly"
    );
}

#[test]
fn restart_with_restored_origin_state_resumes_exactly_once() {
    // Broker 1 (the publisher on a 1—2—3 line) crashes and restarts.
    // Without durable origin state its origin sequences would restart
    // at 1 and every post-restart event would be swallowed by the
    // peers' per-origin floors as a duplicate. Restoring the counter
    // via `set_last_origin_seq` resumes the stream exactly-once.
    let net = SimNet::new(17);
    let topo = line_topology(3);
    let mut feds = build(&net, &topo, 1);
    let s = schema();
    let sub = feds[&3]
        .subscribe_parsed("profile(x >= 0)")
        .expect("subscribe");
    pump_all(&net, &feds, 60);

    let mut want = Vec::new();
    for i in 0..10 {
        let x = 1000 + i;
        feds[&1].publish(&event(&s, x)).expect("publish");
        want.push(x);
        pump_all(&net, &feds, 2);
    }
    pump_all(&net, &feds, 100);

    // Crash broker 1; persist its durable federation state — the
    // per-link receive floors (as `ens-fed-node` does on every pump)
    // and the origin-sequence counter (see `last_origin_seq`).
    let persisted_origin = feds[&1].last_origin_seq();
    assert_eq!(persisted_origin, 10, "ten events stamped");
    let persisted_floors = feds[&1].recv_floors();
    let floor_of = |peer: u64| {
        persisted_floors
            .iter()
            .find(|&&(p, _)| p == peer)
            .map_or(0, |&(_, f)| f)
    };
    feds.remove(&1);
    net.drop_link(1, 2);

    // Restart with a new epoch and the restored state.
    let broker = Arc::new(Broker::new(&s, BrokerConfig::default()).expect("broker"));
    let restarted = Federation::new(
        broker,
        FederationConfig {
            node: 1,
            epoch: 2,
            max_hops: u8::try_from(topo.diameter()).expect("small"),
            link: fast_link(),
        },
    );
    restarted.add_peer(2, Box::new(net.transport(1, 2)), floor_of(2));
    restarted.set_last_origin_seq(persisted_origin);
    feds.insert(1, restarted);
    pump_all(&net, &feds, 100);

    for i in 10..20 {
        let x = 1000 + i;
        feds[&1].publish(&event(&s, x)).expect("publish");
        want.push(x);
        pump_all(&net, &feds, 2);
    }
    pump_all(&net, &feds, 400);

    assert_eq!(
        xs(&s, &sub.drain()),
        want,
        "restored origin state must keep the post-restart stream flowing"
    );
    // The floors on broker 3 kept advancing monotonically.
    let floors = feds[&3].origin_floors();
    assert_eq!(
        floors,
        vec![(1, 20)],
        "floor tracks the highest accepted seq"
    );
}
