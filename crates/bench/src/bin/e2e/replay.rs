//! The layer replay of the traced run: every layer below the broker is
//! timed from outside, through its public call, on the same generated
//! inputs the workload ran on.
//!
//! Each number is the median over repeated passes of one call over the
//! replay events. Counts (`matched_per_event`, `ops_per_event`,
//! `children_per_hit`, `bytes`) repeat exactly for a seed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ens_filter::{
    CostModel, DriftTracker, FilterSnapshot, MatchScratch, Matcher, SnapshotBlockScratch,
    SnapshotScratch, TreeConfig,
};
use ens_service::persist::{self, Checkpoint, WalRecord};
use ens_types::{CoverSet, Event, IndexedBatch, IndexedEvent, ProfileId, ProfileSet};

use crate::alloc::live_bytes;
use crate::inputs::{Inputs, BATCH};
use crate::report::Metric;
use crate::stats::median;
use crate::trace::{self, NameId, Probe};

/// Events a replay pass runs over.
const REPLAY_EVENTS: usize = 2048;
/// Profiles in the replayed overlay (the plan's mean overlay depth is
/// below the churn per round; 32 keeps the two comparable).
const OVERLAY_DEPTH: usize = 32;

/// Median seconds of one `pass`, over at least three passes and as
/// many more as fit in 150 ms (at most 25).
fn time_passes(probe: &mut Probe<'_>, name: NameId, mut pass: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(150);
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 3 || (started.elapsed() < budget && secs.len() < 25) {
        let ((), ns) = probe.time(name, 0, &mut pass);
        secs.push(ns as f64 / 1e9);
    }
    median(&secs)
}

/// What the broker-level rows subtract from their spans.
pub struct Replay {
    pub resolve_ns: f64,
    pub resolve_batch_ns: f64,
    pub match_tree_ns: f64,
    pub match_block_ns: f64,
    /// `DriftTracker::observe` per published event: the broker calls
    /// it for one event in `stats_sample`, and not at all at 0.
    pub observe_ns: f64,
    pub metrics: Vec<Metric>,
}

pub fn filter_layers(inputs: &Inputs, probe: &mut Probe<'_>) -> Result<Replay, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let schema = &inputs.schema;
    let population = &inputs.population;
    let events: &[Arc<Event>] = &inputs.events[..inputs.events.len().min(REPLAY_EVENTS)];
    let per_event = |secs: f64| secs * 1e9 / events.len() as f64;
    let mut metrics = Vec::new();
    let mut push = |name, value, unit| metrics.push(Metric::new(name, value, unit));

    // Compile as the broker configuration implies.
    let tree_config = TreeConfig {
        event_model: Some(inputs.model.clone()),
        ..inputs.config.tree.clone()
    };
    let live0 = live_bytes();
    let (cover, build_ns) = probe.time(trace::REPLAY_BUILD_BULK, 0, || {
        CoverSet::build_bulk(
            schema,
            population.iter().map(|p| (p.id().index() as u32, p)),
        )
    });
    let cover = cover.map_err(|e| err(&e))?;
    let (snapshot, compile_ns) = probe.time(trace::REPLAY_COMPILE, 0, || {
        if inputs.config.covering {
            FilterSnapshot::compile_with_cover(population, &cover, &tree_config)
        } else {
            FilterSnapshot::compile(population, &tree_config)
        }
    });
    let snapshot = snapshot.map_err(|e| err(&e))?;
    // The broker keeps the cover set for subscribe-time probes, but it
    // is not part of the compiled snapshot.
    drop(cover);
    let retained = live_bytes().saturating_sub(live0);
    // The set the tree was compiled from: the representatives under
    // covering, the whole population otherwise.
    let mut compiled = ProfileSet::new(schema);
    if let Some(plan) = snapshot.cover_plan() {
        for &slot in plan.rep_slots() {
            let rep = population
                .get(ProfileId::new(slot))
                .expect("rep slot in population");
            compiled.insert(rep.clone());
        }
    }
    let compile_ms = if inputs.config.covering {
        (build_ns + compile_ns) as f64 / 1e6
    } else {
        compile_ns as f64 / 1e6
    };
    push("types.covering.build_bulk_ms", build_ns as f64 / 1e6, "ms");
    push("filter.snapshot.compile_ms", compile_ms, "ms");
    push(
        "filter.snapshot.retained_bytes_per_profile",
        retained as f64 / population.len() as f64,
        "B",
    );

    // Resolve.
    let mut indexed = IndexedEvent::new();
    let resolve = time_passes(probe, trace::REPLAY_RESOLVE, || {
        for event in events {
            indexed
                .resolve_into(schema, event)
                .expect("generated events are well-typed");
            std::hint::black_box(indexed.raw());
        }
    });
    let mut batch = IndexedBatch::new();
    let resolve_batch = time_passes(probe, trace::REPLAY_RESOLVE_BATCH, || {
        for chunk in events.chunks(BATCH) {
            batch
                .resolve_into(schema, chunk.iter().map(Arc::as_ref))
                .expect("generated events are well-typed");
            std::hint::black_box(batch.raw());
        }
    });
    push(
        "types.indexed.resolve_ns_per_event",
        per_event(resolve),
        "ns",
    );
    push(
        "types.indexed.resolve_batch_ns_per_event",
        per_event(resolve_batch),
        "ns",
    );

    // Match, on pre-resolved rows.
    let rows: Vec<IndexedEvent> = events
        .iter()
        .map(|e| IndexedEvent::resolve(schema, e))
        .collect::<Result<_, _>>()
        .map_err(|e| err(&e))?;
    let blocks: Vec<IndexedBatch> = events
        .chunks(BATCH)
        .map(|chunk| {
            let mut b = IndexedBatch::new();
            b.resolve_into(schema, chunk.iter().map(Arc::as_ref))
                .map(|()| b)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| err(&e))?;
    let mut scratch = SnapshotScratch::new();
    let (mut matched, mut ops) = (0u64, 0u64);
    for row in &rows {
        snapshot.match_into(row, &mut scratch, false);
        matched += scratch.matched().len() as u64;
        ops += scratch.ops();
    }
    let match_pass = |snapshot: &FilterSnapshot, scratch: &mut SnapshotScratch, dfsa: bool| {
        for row in &rows {
            snapshot.match_into(row, scratch, dfsa);
            std::hint::black_box(scratch.matched());
        }
    };
    let match_tree = time_passes(probe, trace::REPLAY_MATCH_TREE, || {
        match_pass(&snapshot, &mut scratch, false);
    });
    let match_dfsa = time_passes(probe, trace::REPLAY_MATCH_DFSA, || {
        match_pass(&snapshot, &mut scratch, true);
    });
    let mut block_scratch = SnapshotBlockScratch::new();
    let match_block = time_passes(probe, trace::REPLAY_MATCH_BLOCK, || {
        for block in &blocks {
            snapshot.match_block(block, &mut block_scratch, inputs.config.dfsa_dispatch);
            std::hint::black_box(block_scratch.ops());
        }
    });
    push(
        "filter.snapshot.match_tree_ns_per_event",
        per_event(match_tree),
        "ns",
    );
    push(
        "filter.snapshot.match_dfsa_ns_per_event",
        per_event(match_dfsa),
        "ns",
    );
    push(
        "filter.snapshot.match_block_ns_per_event",
        per_event(match_block),
        "ns",
    );
    push(
        "filter.snapshot.matched_per_event",
        matched as f64 / events.len() as f64,
        "count",
    );
    push(
        "filter.snapshot.ops_per_event",
        ops as f64 / events.len() as f64,
        "count",
    );

    // Cover expansion: the snapshot's match minus its bare tree's.
    let mut tree_scratch = MatchScratch::new();
    let mut raw_hits = 0u64;
    for row in &rows {
        snapshot.tree().match_into(row, &mut tree_scratch);
        raw_hits += tree_scratch.profiles().len() as u64;
    }
    let tree_only = time_passes(probe, trace::REPLAY_TREE_ONLY, || {
        for row in &rows {
            snapshot.tree().match_into(row, &mut tree_scratch);
            std::hint::black_box(tree_scratch.profiles());
        }
    });
    push(
        "filter.cover.expand_ns_per_event",
        per_event(match_tree - tree_only),
        "ns",
    );
    push(
        "filter.cover.children_per_hit",
        matched as f64 / raw_hits.max(1) as f64,
        "count",
    );

    // The paper's Eq. 2 under the workload's event model, against the
    // operations the tree actually counted.
    let predicted = CostModel::new(snapshot.tree(), &inputs.model)
        .and_then(|m| m.evaluate())
        .map_err(|e| err(&e))?
        .expected_total_ops();
    let measured = ops as f64 / events.len() as f64;
    push("filter.cost.predicted_ops_per_event", predicted, "count");
    push(
        "filter.cost.model_error_pct",
        100.0 * (predicted - measured) / measured.max(f64::MIN_POSITIVE),
        "%",
    );

    // Overlay: building it, and what it adds to a match.
    let mut overlay = ProfileSet::new(schema);
    for p in inputs.spare.iter().take(OVERLAY_DEPTH) {
        overlay.insert(p.clone());
    }
    let with_overlay = time_passes(probe, trace::REPLAY_WITH_OVERLAY, || {
        std::hint::black_box(
            snapshot
                .with_overlay(&overlay)
                .expect("spare profiles lower"),
        );
    });
    let overlaid = snapshot.with_overlay(&overlay).map_err(|e| err(&e))?;
    let overlay_match = time_passes(probe, trace::REPLAY_OVERLAY_MATCH, || {
        match_pass(&overlaid, &mut scratch, false);
    });
    push("filter.overlay.with_overlay_us", with_overlay * 1e6, "us");
    push(
        "filter.overlay.match_ns_per_event",
        per_event(overlay_match - match_tree),
        "ns",
    );

    // Drift statistics, over the set the broker's tracker covers.
    let tracked = if snapshot.cover_plan().is_some() {
        &compiled
    } else {
        population
    };
    let mut tracker = DriftTracker::new(tracked, inputs.config.rebuild).map_err(|e| err(&e))?;
    let observe = time_passes(probe, trace::REPLAY_OBSERVE, || {
        for event in events {
            std::hint::black_box(tracker.observe(event).expect("well-typed"));
        }
    });
    push(
        "filter.rebuild.observe_ns_per_event",
        per_event(observe),
        "ns",
    );

    // Snapshot codec.
    let bytes = snapshot.to_bytes();
    let encode = time_passes(probe, trace::REPLAY_SNAPSHOT_ENCODE, || {
        std::hint::black_box(snapshot.to_bytes());
    });
    let decode = time_passes(probe, trace::REPLAY_SNAPSHOT_DECODE, || {
        std::hint::black_box(FilterSnapshot::from_bytes(&bytes).expect("own bytes decode"));
    });
    push("filter.persist.encode_ms", encode * 1e3, "ms");
    push("filter.persist.decode_ms", decode * 1e3, "ms");
    push("filter.persist.bytes", bytes.len() as f64, "B");
    push("workloads.generate_s", inputs.generate_s, "s");

    Ok(Replay {
        resolve_ns: per_event(resolve),
        resolve_batch_ns: per_event(resolve_batch),
        match_tree_ns: per_event(match_tree),
        match_block_ns: per_event(match_block),
        observe_ns: match inputs.config.stats_sample {
            0 => 0.0,
            n => per_event(observe) / n as f64,
        },
        metrics,
    })
}

/// WAL and checkpoint codecs on the durable run's own bytes: the
/// plan's subscribe records as the broker frames them, and the final
/// checkpoint image.
pub fn service_codecs(
    inputs: &Inputs,
    checkpoint_image: &[u8],
    probe: &mut Probe<'_>,
) -> Result<Vec<Metric>, String> {
    let records: Vec<WalRecord> = inputs
        .rounds
        .iter()
        .flat_map(|r| &r.subscribe)
        .zip(1..)
        .map(|(profile, lsn)| WalRecord::Subscribe {
            lsn,
            id: lsn,
            weight: 1.0,
            profile: profile.clone(),
        })
        .collect();
    let mut wal = Vec::new();
    for record in &records {
        wal.extend(persist::encode_frame(record).map_err(|e| e.message().to_string())?);
    }
    let encode = time_passes(probe, trace::REPLAY_ENCODE_FRAME, || {
        for record in &records {
            std::hint::black_box(persist::encode_frame(record).expect("encoded above"));
        }
    });
    let decode = time_passes(probe, trace::REPLAY_WAL_DECODE, || {
        let scan = persist::decode_wal(&wal);
        assert_eq!(scan.records.len(), records.len(), "own WAL decodes in full");
    });
    let checkpoint = time_passes(probe, trace::REPLAY_CHECKPOINT_DECODE, || {
        let decoded = Checkpoint::from_bytes(checkpoint_image);
        assert!(decoded.is_ok(), "own checkpoint decodes");
    });
    Ok(vec![
        Metric::new(
            "service.persist.encode_frame_ns",
            encode * 1e9 / records.len() as f64,
            "ns",
        ),
        Metric::new(
            "service.persist.wal_decode_mb_per_s",
            wal.len() as f64 / 1e6 / decode,
            "MB/s",
        ),
        Metric::new(
            "service.persist.checkpoint_decode_ms",
            checkpoint * 1e3,
            "ms",
        ),
    ])
}
