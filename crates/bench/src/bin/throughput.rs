//! Raw matching-throughput harness.
//!
//! Runs every matcher (profile tree, CSR DFSA, naive, and the counting
//! index the broker serves overlays with, built over the whole
//! population) over the environmental and stock workloads through the
//! zero-allocation `match_into` fast path, and emits
//! `BENCH_throughput.json` with events/sec, ns/event, mean comparison
//! ops/event and heap allocations/event (measured with a counting
//! global allocator) — the perf trajectory every future PR has to
//! beat.
//!
//! Usage:
//!
//! ```text
//! throughput [--events N] [--profiles N] [--min-ms MS] [--out PATH] [--quiet]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use std::sync::Arc;

use ens_bench::BenchWorkload;
use ens_filter::baseline::NaiveMatcher;
use ens_filter::{
    BlockScratch, Dfsa, Direction, FilterSnapshot, MatchScratch, Matcher, OverlayIndex,
    RebuildPolicy, SearchStrategy, SnapshotScratch, TreeConfig, ValueOrder,
};
use ens_service::{
    Broker, BrokerConfig, Decision, DurabilityConfig, FaultFs, FsyncPolicy, Subscriber, Vfs,
};
use ens_types::{CoverSet, Event, IndexedBatch, IndexedEvent, Schema};
use ens_workloads::DriftWorkload;
use serde::Serialize;

/// Counts heap allocations so the harness can verify the fast path's
/// zero-allocation claim.
///
/// Deliberately duplicated in `crates/filter/tests/alloc.rs`: a global
/// allocator must live in the final binary's crate root, and keeping
/// the test copy self-contained avoids a dev-dependency cycle.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes (allocated minus freed): deltas around a compile
/// give the retained size of the compiled structures, the probe behind
/// the `profile_scale` bytes/profile numbers.
static BYTES_LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        BYTES_LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES_LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    BYTES_LIVE.load(Ordering::Relaxed)
}

#[derive(Debug, Serialize)]
struct MatcherReport {
    name: String,
    events_per_sec: f64,
    ns_per_event: f64,
    /// Mean comparison operations per event (0 for a matcher that does
    /// not count them).
    ops_per_event: f64,
    /// Heap allocations per event in the steady state (warmed buffers).
    allocs_per_event: f64,
    /// Total matched (event, profile) pairs over one pass — a checksum
    /// that every variant must agree on.
    matches: u64,
}

#[derive(Debug, Serialize)]
struct WorkloadReport {
    name: String,
    profiles: u64,
    events: u64,
    matchers: Vec<MatcherReport>,
}

/// Subscribe latency at growing populations: the delta-overlay path vs
/// the seed's full-rebuild-per-subscribe behaviour (`max_overlay: 0`).
#[derive(Debug, Serialize)]
struct SubscribeRow {
    population: u64,
    overlay_ns_p50: f64,
    full_rebuild_ns_p50: f64,
}

#[derive(Debug, Serialize)]
struct SubscribeLatency {
    workload: String,
    rows: Vec<SubscribeRow>,
    /// p50 overlay subscribe latency at the largest population over the
    /// smallest — ~1.0 means subscribe no longer scales with the total
    /// subscription count.
    overlay_growth_largest_over_smallest: f64,
    /// Subscribe and unsubscribe at a standing overlay depth, 1000
    /// compiled profiles (a fixed shape, whatever `--profiles` says):
    /// a change should cost what it touches, not what the overlay holds.
    depth_rows: Vec<DepthRow>,
}

/// One probe subscribe lands on an overlay of `overlay_depth - 1`
/// standing subscriptions and is cancelled again, many times over.
#[derive(Debug, Serialize)]
struct DepthRow {
    overlay_depth: u64,
    probes: u64,
    subscribe_ns_p50: f64,
    unsubscribe_ns_p50: f64,
}

/// Service-layer rows. (Strong scaling over publisher threads is not
/// measured here: a batch walks its shards on the publishing thread,
/// the `batch_sharded` workload of the `e2e` benchmark times that
/// walk, and nothing in this repository has been run on more than two
/// cores.)
#[derive(Debug, Serialize)]
struct BrokerScaling {
    subscribe_latency: SubscribeLatency,
}

/// Steady-state broker throughput during one phase of the drift
/// workload.
#[derive(Debug, Serialize)]
struct TuningPhase {
    events_per_sec: f64,
    ns_per_event: f64,
    /// Mean comparison operations per published event (receipt `ops`).
    ops_per_event: f64,
    /// Total matched (event, subscription) pairs over one pass — a
    /// checksum the stale and retuned brokers must agree on.
    matches: u64,
}

/// The self-tuning loop end to end: events/sec before the distribution
/// drift, degraded under the stale ordering, and recovered after the
/// broker's automatic retune.
#[derive(Debug, Serialize)]
struct TuningReport {
    workload: String,
    profiles: u64,
    events_per_phase: u64,
    /// Phase-A traffic on a broker optimised for phase A.
    before_drift: TuningPhase,
    /// Phase-B traffic on the same (now stale, never retuned) broker.
    stale_after_drift: TuningPhase,
    /// Phase-B traffic on a self-tuning broker, after its automatic
    /// retune fired.
    retuned_after_drift: TuningPhase,
    /// before/stale events/sec — how much the drift costs a static
    /// filter.
    drift_degradation: f64,
    /// retuned/stale events/sec — what the retune buys back (> 1 means
    /// the self-tuning loop recovered throughput).
    recovery_speedup: f64,
    /// Accepted retunes on the self-tuning broker.
    retunes: u64,
    /// Drift triggers the self-tuning broker declined.
    drift_declined: u64,
    /// Cost-model-predicted ops/event of the accepted retune (compare
    /// with `retuned_after_drift.ops_per_event`).
    predicted_ops_per_event: f64,
    /// Total nanoseconds spent pricing drift triggers' candidates.
    tuning_ns_total: u64,
}

/// One overlay size on the churn workload: the naive side-matcher (the
/// seed's overlay path) vs the counting index, over identical events.
#[derive(Debug, Serialize)]
struct OverlayDepthRow {
    overlay: u64,
    naive_events_per_sec: f64,
    naive_ops_per_event: f64,
    counting_events_per_sec: f64,
    counting_ops_per_event: f64,
    /// naive/counting ops — how much matching work the counting index
    /// saves at this overlay depth (1.0 at depth 0).
    ops_ratio: f64,
}

/// Overlay matching cost as churn accumulates between compactions.
#[derive(Debug, Serialize)]
struct OverlayDepthReport {
    workload: String,
    events: u64,
    rows: Vec<OverlayDepthRow>,
}

/// One block size of the batch matching engine.
#[derive(Debug, Serialize)]
struct BatchRow {
    block: u64,
    events_per_sec: f64,
    ns_per_event: f64,
    /// Heap allocations per event in the steady state (must be 0).
    allocs_per_event: f64,
}

/// `match_block` (batched resolution + interleaved DFSA traversal) vs
/// the single-event `dfsa_csr_scratch` loop on the same workload.
#[derive(Debug, Serialize)]
struct BatchReport {
    name: String,
    profiles: u64,
    events: u64,
    /// The single-event fast-path baseline (same numbers as the
    /// workload's `dfsa_csr_scratch` matcher row).
    single_events_per_sec: f64,
    rows: Vec<BatchRow>,
    /// block-64 events/sec over the single-event loop (≥ 1 means the
    /// block engine wins).
    speedup_block64: f64,
}

/// One subscription population of the cold-start comparison.
#[derive(Debug, Serialize)]
struct RecoveryRow {
    subscriptions: u64,
    /// Cold start to serving by recompiling from raw profiles: fresh
    /// broker + `subscribe_many` + first probe publish.
    recompile_ms: f64,
    /// Cold start to serving via `Broker::open` over a checkpoint:
    /// decode and lower the profile trees + first probe publish.
    reload_ms: f64,
    /// recompile/reload — what checkpoint reload saves on restart.
    reload_speedup: f64,
    /// Size of `checkpoint.bin` at this population.
    checkpoint_bytes: u64,
}

/// What a steady-state automatic checkpoint costs, split the way the
/// broker's decision journal splits it
/// ([`Decision::CheckpointWritten`]): writing the image, and trimming
/// the WAL behind it. The shape is fixed (it does not follow
/// `--profiles`): 1000 subscriptions, `checkpoint_every: 4096`, two
/// retained generations, in-memory storage — the broker's work, not the
/// runner's disk or system calls.
#[derive(Debug, Serialize)]
struct CheckpointCostRow {
    subscriptions: u64,
    /// Records in the log when the checkpoint trimmed it (two
    /// checkpoint intervals: the older retained generation's and the
    /// newer's).
    wal_records: u64,
    /// Bytes the trim cut off the front of the log / left in it.
    wal_bytes_dropped: u64,
    wal_bytes_kept: u64,
    /// Freeze, serialize, write and rename the image (best of the
    /// steady-state checkpoints, like `trim_ms`).
    image_ms: f64,
    /// Copy the kept suffix of the log into place.
    trim_ms: f64,
}

/// Restart cost: checkpoint reload vs recompile-from-profiles; and
/// what writing the checkpoints costs a running broker.
#[derive(Debug, Serialize)]
struct RecoveryReport {
    workload: String,
    rows: Vec<RecoveryRow>,
    checkpoint_cost: CheckpointCostRow,
}

/// One (population, size) cell of the covering scale study: the same
/// coverage-heavy profiles compiled with covering off (plain compile)
/// and on (covering-pruned), matched over the same events.
#[derive(Debug, Serialize)]
struct ProfileScaleRow {
    /// `duplicate_heavy` (uniform roots, mostly exact duplicates) or
    /// `zipf` (skewed root popularity, mostly narrowings).
    population: String,
    profiles: u64,
    /// Representatives actually compiled on the covering path — the
    /// antichain the containment analysis reduced the population to.
    compiled_profiles: u64,
    build_ms_off: f64,
    /// Containment analysis plus rep-only compilation.
    build_ms_on: f64,
    /// off/on build time (> 1 means covering pays for its own
    /// containment analysis).
    build_speedup: f64,
    /// Retained heap bytes of the compiled snapshot, per profile
    /// (live-heap delta around the compile, counting allocator).
    bytes_per_profile_off: f64,
    bytes_per_profile_on: f64,
    /// off/on bytes per profile.
    bytes_ratio: f64,
    /// CSR fast path (`match_into`, reused scratch) on each snapshot.
    events_per_sec_off: f64,
    events_per_sec_on: f64,
    /// on/off match throughput.
    match_speedup: f64,
    /// FNV-1a over every (event, matched-slot) pair — asserted equal
    /// on both paths before the row is emitted.
    checksum: u64,
}

/// Covering-pruned compilation at growing population sizes — the
/// million-profile story: build time, compiled bytes/profile and match
/// throughput, covering on vs off, on duplicate-heavy and Zipf-skewed
/// populations at 90% coverage density.
#[derive(Debug, Serialize)]
struct ProfileScaleReport {
    events: u64,
    rows: Vec<ProfileScaleRow>,
}

/// Broker federation: fan-out latency over real TCP loopback,
/// interest-filter selectivity on a three-broker sim mesh, and
/// partition-recovery time on the virtual clock.
#[derive(Debug, Serialize)]
struct FederationReport {
    /// Events timed over the two-broker TCP loopback pair.
    tcp_events: u64,
    /// Publish-at-A → matched-delivery-at-B latency, microseconds.
    tcp_fanout_p50_us: f64,
    tcp_fanout_p99_us: f64,
    /// Three-broker sim mesh with selective subscriptions: rows
    /// forwarded across links / events published. The interest
    /// filters keep this well under the naive peer-count factor.
    sim_events: u64,
    forwarded_rows: u64,
    forwarded_event_ratio: f64,
    /// Events published into a partition (buffered by the link)…
    partition_backlog_events: u64,
    /// …and the virtual milliseconds from heal until the subscriber
    /// had recovered every one of them.
    recovery_after_partition_virtual_ms: u64,
    /// Same partition scenario under a small bounded pending buffer:
    /// sequence numbers evicted, oldest first, from the full buffer, as
    /// reported by the federation metrics.
    bounded_overflow_dropped: u64,
    /// Covering-based interest aggregation on a duplicate-heavy
    /// covered population (one row; kept a list for the report's
    /// readers).
    aggregation: Vec<AggregationRow>,
    /// Multi-hop routing on a 3-broker line under per-origin
    /// duplicate suppression: the relay must deliver exactly once.
    line_topology: LineTopologyRow,
}

/// The interest-aggregation row: a subscription population forwarded
/// as its covering antichain (`mode: "aggregated"`, the only mode).
#[derive(Debug, Serialize)]
struct AggregationRow {
    mode: String,
    /// Local subscriptions registered on the subscribing broker.
    local_subs: u64,
    /// Interest rows actually forwarded to the publishing peer —
    /// with aggregation, the minimal covering antichain.
    forwarded_interest: u64,
    /// Event rows the publisher forwarded over the sweep.
    forwarded_rows: u64,
    /// `forwarded_rows / events_published`.
    forwarded_event_ratio: f64,
}

/// Exactly-once delivery across a 1—2—3 broker line (subscriber at
/// the far end, publisher at the near end, broker 2 relaying).
#[derive(Debug, Serialize)]
struct LineTopologyRow {
    brokers: u64,
    events: u64,
    delivered: u64,
    duplicates: u64,
    exactly_once: bool,
}

/// What the adaptive loop did over one stream at
/// `BrokerConfig::default()`, the configuration a user gets: its natural
/// order reads no event model, so a drift trigger would have nothing to
/// price, no shard samples, and every count of the loop reads 0.
#[derive(Debug, Serialize)]
struct DriftSettleRow {
    events: u64,
    /// Drift-triggered rebuilds over the whole stream, the warm-up onto
    /// the first estimate included.
    tree_rebuilds: u64,
    /// Drift triggers priced and turned down.
    drift_declined: u64,
    /// Churn compactions (overlay or tombstone threshold).
    overlay_compactions: u64,
    events_per_sec: f64,
}

/// Does the default drift loop settle? Counts, not timings: the same
/// on every machine, asserted against constants in CI.
#[derive(Debug, Serialize)]
struct DriftSettleReport {
    profiles: u64,
    /// 100 000 stationary stock events. Before the detector allowed
    /// for its sampling noise this recompiled every ≈ 530 events.
    stationary_stock: DriftSettleRow,
    /// The `durable_churn` shape of the e2e benchmark: 200 rounds of 16
    /// subscribes, 64 publishes, 16 unsubscribes beside an
    /// environmental population, on a durable broker over in-memory
    /// storage, fsync always. Before the statistics survived a
    /// compaction this recompiled every ≈ 500 events.
    churn_rounds: DriftSettleRow,
}

/// What compiling one population costs, stage by stage, as the broker's
/// decision journal splits it ([`Decision::Compacted`]): one shard, one
/// `subscribe_many`. The shape is fixed (it does not follow
/// `--profiles`): 1000 profiles, `BrokerConfig::default()`; each stage
/// is the best of five loads.
#[derive(Debug, Serialize)]
struct CompileStagesRow {
    workload: String,
    profiles: u64,
    /// Profiles that entered the tree (the covering representatives).
    compiled: u64,
    /// The empirical event model, for a shape that reads it: the same
    /// load in event order (V1).
    model_ns: u64,
    /// The event model at the default shape, which reads none: 0.
    default_model_ns: u64,
    /// The bulk containment pass.
    cover_ns: u64,
    /// The tree build, straight into the automaton, and the expansion
    /// plan.
    tree_ns: u64,
}

#[derive(Debug, Serialize)]
struct Report {
    config: Config,
    workloads: Vec<WorkloadReport>,
    overlay_depth: OverlayDepthReport,
    batch: Vec<BatchReport>,
    broker_scaling: BrokerScaling,
    tuning: TuningReport,
    drift_settle: DriftSettleReport,
    compile_stages: Vec<CompileStagesRow>,
    recovery: RecoveryReport,
    profile_scale: ProfileScaleReport,
    federation: FederationReport,
}

/// The reduced report of `--sections matchers`: just the per-matcher
/// tables (used by the CI regression guard, which needs the committed
/// workload shape without paying for the broker/tuning sections).
#[derive(Debug, Serialize)]
struct MatchersReport {
    config: Config,
    workloads: Vec<WorkloadReport>,
}

/// The reduced report of `--sections profile_scale`: just the covering
/// scale study (used by the CI covering regression guard, typically
/// with `--scale-cap` to stay at smoke sizes).
#[derive(Debug, Serialize)]
struct ProfileScaleOnlyReport {
    config: Config,
    profile_scale: ProfileScaleReport,
}

#[derive(Debug, Serialize)]
struct Config {
    events: u64,
    environmental_profiles: u64,
    stock_profiles: u64,
    min_ms: u64,
}

/// Which report shape to emit (the reduced shapes exist for the CI
/// regression guards, which need one section without paying for the
/// rest).
#[derive(Clone, Copy, PartialEq)]
enum Sections {
    All,
    /// Config + per-matcher workload tables only.
    Matchers,
    /// Config + the covering scale study only.
    ProfileScale,
}

struct Options {
    events: usize,
    profiles: Option<usize>,
    min_ms: u64,
    out: String,
    quiet: bool,
    sections: Sections,
    /// Largest population the `profile_scale` section runs
    /// (`--scale-cap`); the committed run uses the full 1M, CI smoke
    /// caps it.
    scale_cap: usize,
}

fn main() -> ExitCode {
    let mut opts = Options {
        events: 4096,
        profiles: None,
        min_ms: 500,
        out: "BENCH_throughput.json".to_owned(),
        quiet: false,
        sections: Sections::All,
        scale_cap: 1_000_000,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> Option<usize> {
            args.next().and_then(|v| v.parse().ok())
        };
        match a.as_str() {
            "--events" => match num(&mut args) {
                Some(n) => opts.events = n,
                None => return usage(),
            },
            "--profiles" => match num(&mut args) {
                Some(n) => opts.profiles = Some(n),
                None => return usage(),
            },
            "--min-ms" => match num(&mut args) {
                Some(n) => opts.min_ms = n as u64,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(p) => opts.out = p,
                None => return usage(),
            },
            "--sections" => match args.next().as_deref() {
                Some("all") => opts.sections = Sections::All,
                Some("matchers") => opts.sections = Sections::Matchers,
                Some("profile_scale") => opts.sections = Sections::ProfileScale,
                _ => return usage(),
            },
            "--scale-cap" => match num(&mut args) {
                Some(n) => opts.scale_cap = n,
                None => return usage(),
            },
            "--quiet" => opts.quiet = true,
            _ => return usage(),
        }
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: throughput [--events N] [--profiles N] [--min-ms MS] [--out PATH] \
         [--sections all|matchers|profile_scale] [--scale-cap N] [--quiet]"
    );
    ExitCode::from(2)
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    if opts.sections == Sections::ProfileScale {
        let report = ProfileScaleOnlyReport {
            config: Config {
                events: opts.events as u64,
                environmental_profiles: opts.profiles.unwrap_or(1000) as u64,
                stock_profiles: opts.profiles.unwrap_or(1000) as u64,
                min_ms: opts.min_ms,
            },
            profile_scale: bench_profile_scale(opts)?,
        };
        let json = serde_json::to_string_pretty(&report)?;
        std::fs::write(&opts.out, &json)?;
        if !opts.quiet {
            println!("{json}");
        }
        eprintln!("wrote {} (profile_scale section only)", opts.out);
        return Ok(());
    }
    // Default to 1000 subscriptions per workload: the paper (and the
    // ROADMAP north star) target large subscription populations, where
    // index layout dominates; `--profiles` scales it up or down.
    let workloads = [
        BenchWorkload::environmental(opts.profiles.unwrap_or(1000), opts.events),
        BenchWorkload::stock(opts.profiles.unwrap_or(1000), opts.events),
    ];
    let mut reports = Vec::new();
    let mut batch = Vec::new();
    for w in &workloads {
        let report = bench_workload(w, opts)?;
        let Some(fast) = report
            .matchers
            .iter()
            .find(|m| m.name == "dfsa_csr_scratch")
        else {
            unreachable!("the DFSA fast path is always benched");
        };
        if opts.sections == Sections::All {
            batch.push(bench_batch(w, opts, fast.events_per_sec, fast.matches)?);
        }
        reports.push(report);
    }
    let config = Config {
        events: opts.events as u64,
        environmental_profiles: opts.profiles.unwrap_or(1000) as u64,
        stock_profiles: opts.profiles.unwrap_or(1000) as u64,
        min_ms: opts.min_ms,
    };
    if opts.sections == Sections::Matchers {
        let report = MatchersReport {
            config,
            workloads: reports,
        };
        let json = serde_json::to_string_pretty(&report)?;
        std::fs::write(&opts.out, &json)?;
        if !opts.quiet {
            println!("{json}");
        }
        eprintln!("wrote {} (matchers sections only)", opts.out);
        return Ok(());
    }
    let broker_scaling = BrokerScaling {
        subscribe_latency: bench_subscribe_latency(opts)?,
    };
    let report = Report {
        config,
        workloads: reports,
        overlay_depth: bench_overlay_depth(opts)?,
        batch,
        broker_scaling,
        tuning: bench_tuning(opts)?,
        drift_settle: bench_drift_settle(opts)?,
        compile_stages: bench_compile_stages()?,
        recovery: bench_recovery(opts)?,
        profile_scale: bench_profile_scale(opts)?,
        federation: bench_federation(opts)?,
    };
    let json = serde_json::to_string_pretty(&report)?;
    std::fs::write(&opts.out, &json)?;
    if !opts.quiet {
        println!("{json}");
    }
    eprintln!("wrote {}", opts.out);
    Ok(())
}

fn bench_workload(
    w: &BenchWorkload,
    opts: &Options,
) -> Result<WorkloadReport, Box<dyn std::error::Error>> {
    let dfsa = Dfsa::build(&w.profiles, &TreeConfig::default())?;
    let naive = NaiveMatcher::new(&w.profiles)?;
    // The counting baseline is the index the broker serves overlays
    // with, over the whole population.
    let counting = OverlayIndex::new(&w.profiles)?;
    let schema = &w.schema;
    let events = &w.events;

    // Mean comparison ops/event for the matchers that count (one pass).
    let (dfsa_ops, _) = mean_scratch_ops(&dfsa, schema, events);
    let (naive_ops, _) = mean_scratch_ops(&naive, schema, events);
    let (counting_ops, _) = mean_scratch_ops(&counting, schema, events);

    // Zero-allocation `match_into` fast paths (reused buffers).
    let matchers = vec![
        scratch_pass(opts, "dfsa_csr_scratch", schema, events, dfsa_ops, &dfsa),
        scratch_pass(opts, "naive_scratch", schema, events, naive_ops, &naive),
        scratch_pass(
            opts,
            "counting_scratch",
            schema,
            events,
            counting_ops,
            &counting,
        ),
    ];

    // Cross-check: every variant must have found the same matches.
    let expected = matchers[0].matches;
    for m in &matchers {
        assert_eq!(
            m.matches, expected,
            "{} disagrees with dfsa_csr_scratch on total matches",
            m.name
        );
    }

    Ok(WorkloadReport {
        name: w.name.to_owned(),
        profiles: w.profiles.len() as u64,
        events: events.len() as u64,
        matchers,
    })
}

/// Mean `match_into` ops/event of one matcher over the fast path.
fn mean_scratch_ops<M: Matcher>(matcher: &M, schema: &Schema, events: &[Event]) -> (f64, u64) {
    let mut indexed = IndexedEvent::new();
    let mut scratch = MatchScratch::new();
    let mut ops = 0u64;
    let mut matches = 0u64;
    for e in events {
        indexed.resolve_into(schema, e).expect("valid event");
        matcher.match_into(&indexed, &mut scratch);
        ops += scratch.ops();
        matches += scratch.profiles().len() as u64;
    }
    (ops as f64 / events.len() as f64, matches)
}

/// Overlay matching cost as churn accumulates: the naive side-matcher
/// the seed used between compactions vs the counting index, at growing
/// overlay depths, over the churn (environmental subscription pool)
/// workload. Match sets are checksum-asserted equal at every depth.
fn bench_overlay_depth(opts: &Options) -> Result<OverlayDepthReport, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DEPTHS: [usize; 4] = [0, 64, 512, 4096];
    let schema = ens_workloads::scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(271);
    // One pool of churning alert subscriptions, sliced per depth: the
    // overlay at depth k is exactly the first k churned-in profiles.
    let pool = ens_workloads::alert_churn_profiles(DEPTHS[DEPTHS.len() - 1], &mut rng)?;
    let generator = ens_workloads::EventGenerator::new(
        &schema,
        ens_workloads::scenario::environmental_event_model()?,
    )?;
    let mut rng = StdRng::seed_from_u64(272);
    let events: Vec<Event> = (0..opts.events)
        .map(|_| generator.sample(&mut rng))
        .collect();

    let mut rows = Vec::new();
    for depth in DEPTHS {
        let mut overlay = ens_types::ProfileSet::new(&schema);
        for p in pool.iter().take(depth) {
            overlay.insert(p.clone());
        }
        let naive = NaiveMatcher::new(&overlay)?;
        let counting = OverlayIndex::new(&overlay)?;
        let (naive_ops, naive_matches) = mean_scratch_ops(&naive, &schema, &events);
        let (counting_ops, counting_matches) = mean_scratch_ops(&counting, &schema, &events);
        assert_eq!(
            naive_matches, counting_matches,
            "overlay depth {depth}: counting index disagrees with the naive oracle"
        );
        let naive_report = scratch_pass(opts, "overlay_naive", &schema, &events, naive_ops, &naive);
        let counting_report = scratch_pass(
            opts,
            "overlay_counting",
            &schema,
            &events,
            counting_ops,
            &counting,
        );
        rows.push(OverlayDepthRow {
            overlay: depth as u64,
            naive_events_per_sec: naive_report.events_per_sec,
            naive_ops_per_event: naive_ops,
            counting_events_per_sec: counting_report.events_per_sec,
            counting_ops_per_event: counting_ops,
            ops_ratio: if counting_ops > 0.0 {
                naive_ops / counting_ops
            } else {
                1.0
            },
        });
    }
    Ok(OverlayDepthReport {
        workload: "alert_churn".to_owned(),
        events: events.len() as u64,
        rows,
    })
}

/// The block matching engine vs the single-event fast path: batched
/// resolution + `match_block` at several block sizes, allocation-free
/// after warm-up and checksum-asserted against the single path.
fn bench_batch(
    w: &BenchWorkload,
    opts: &Options,
    single_events_per_sec: f64,
    single_matches: u64,
) -> Result<BatchReport, Box<dyn std::error::Error>> {
    const BLOCKS: [usize; 4] = [1, 8, 64, 256];
    let dfsa = Dfsa::build(&w.profiles, &TreeConfig::default())?;
    let schema = &w.schema;
    let events = &w.events;

    let mut rows = Vec::new();
    for block in BLOCKS {
        let dfsa = &dfsa;
        let mut batch = IndexedBatch::new();
        let mut scratch = BlockScratch::new();
        let mut pass = move |evts: &[Event]| -> u64 {
            let mut n = 0u64;
            for chunk in evts.chunks(block) {
                batch
                    .resolve_into(schema, chunk.iter())
                    .expect("valid event");
                dfsa.match_block(&batch, &mut scratch);
                for i in 0..scratch.len() {
                    n += scratch.profiles_of(i).len() as u64;
                }
            }
            n
        };
        let report = bench_pass(opts, &format!("block_{block}"), events, 0.0, &mut pass);
        assert_eq!(
            report.matches, single_matches,
            "block size {block} disagrees with the single-event path"
        );
        rows.push(BatchRow {
            block: block as u64,
            events_per_sec: report.events_per_sec,
            ns_per_event: report.ns_per_event,
            allocs_per_event: report.allocs_per_event,
        });
    }
    let block64 = rows
        .iter()
        .find(|r| r.block == 64)
        .expect("block 64 is always benched")
        .events_per_sec;
    Ok(BatchReport {
        name: w.name.to_owned(),
        profiles: w.profiles.len() as u64,
        events: events.len() as u64,
        single_events_per_sec,
        rows,
        speedup_block64: block64 / single_events_per_sec,
    })
}

/// Times one matcher: a warm-up pass, an allocation-counting pass, then
/// timed passes until `min_ms` has elapsed.
fn bench_pass(
    opts: &Options,
    name: &str,
    events: &[Event],
    ops_per_event: f64,
    mut pass: impl FnMut(&[Event]) -> u64,
) -> MatcherReport {
    let matches = pass(events); // warm-up
    let before = allocations();
    let check = pass(events);
    let allocs = allocations() - before;
    assert_eq!(matches, check, "matcher must be deterministic");
    // Timed passes until `min_ms` has elapsed (always at least one, so
    // `--min-ms 0` still yields finite numbers). The *fastest* pass is
    // reported: scheduler/frequency noise only ever slows a pass down,
    // so the minimum is the noise-robust estimator of the true cost —
    // applied identically to every matcher.
    let start = Instant::now();
    let mut best = std::time::Duration::MAX;
    loop {
        let t0 = Instant::now();
        std::hint::black_box(pass(events));
        best = best.min(t0.elapsed());
        if start.elapsed().as_millis() >= u128::from(opts.min_ms) {
            break;
        }
    }
    let per_pass = best.as_secs_f64();
    let n_events = events.len() as f64;
    MatcherReport {
        name: name.to_owned(),
        events_per_sec: n_events / per_pass,
        ns_per_event: per_pass * 1e9 / n_events,
        ops_per_event,
        allocs_per_event: allocs as f64 / events.len() as f64,
        matches,
    }
}

/// Empties the subscribers' notification queues.
fn drain(subs: &[Subscriber]) {
    for s in subs {
        while s.try_recv().is_some() {}
    }
}

/// Times `pass` repeatedly (warm-up + best-of until `min_ms`), draining
/// the subscriber channels between passes, and returns the best
/// per-pass duration in seconds.
fn broker_pass(opts: &Options, subs: &[Subscriber], mut pass: impl FnMut()) -> f64 {
    pass(); // warm-up
    drain(subs);
    let start = Instant::now();
    let mut best = std::time::Duration::MAX;
    loop {
        let t0 = Instant::now();
        pass();
        best = best.min(t0.elapsed());
        drain(subs);
        if start.elapsed().as_millis() >= u128::from(opts.min_ms) {
            break;
        }
    }
    best.as_secs_f64()
}

/// Median of individually timed subscribes (ns).
fn subscribe_p50(broker: &Broker, profiles: &[ens_types::Profile]) -> f64 {
    let mut keep = Vec::with_capacity(profiles.len());
    let mut samples: Vec<u128> = profiles
        .iter()
        .map(|p| {
            let t0 = Instant::now();
            let sub = broker
                .subscribe_profile(p.clone())
                .expect("valid bench profile");
            let dt = t0.elapsed().as_nanos();
            keep.push(sub); // keep the subscription live while probing
            dt
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Subscribe latency at growing populations: delta overlay vs the
/// seed's full rebuild per subscribe.
fn bench_subscribe_latency(opts: &Options) -> Result<SubscribeLatency, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let base = opts.profiles.unwrap_or(1000);
    let populations = [base, base * 2, base * 4, base * 8];
    let schema = ens_workloads::scenario::environmental_schema();
    let mut rows = Vec::new();
    for population in populations {
        let mut rng = StdRng::seed_from_u64(171);
        let profiles: Vec<ens_types::Profile> =
            ens_workloads::scenario::environmental_profiles(population + 64 + 8, &mut rng)?
                .iter()
                .cloned()
                .collect();
        let (load, probes) = profiles.split_at(population);
        let (overlay_probes, full_probes) = probes.split_at(64);

        // Overlay path: compaction thresholds pushed out of the way so
        // the probes measure the pure delta insert.
        let overlay_broker = Broker::new(
            &schema,
            BrokerConfig {
                rebuild: RebuildPolicy {
                    max_overlay: usize::MAX,
                    ..RebuildPolicy::default()
                },
                ..BrokerConfig::default()
            },
        )?;
        let loaded = overlay_broker.subscribe_many(load.iter().cloned())?;
        let overlay_ns = subscribe_p50(&overlay_broker, overlay_probes);
        drop(loaded);

        // Seed behaviour: every subscribe recompiles the full tree.
        let full_broker = Broker::new(
            &schema,
            BrokerConfig {
                rebuild: RebuildPolicy {
                    max_overlay: 0,
                    ..RebuildPolicy::default()
                },
                ..BrokerConfig::default()
            },
        )?;
        let loaded = full_broker.subscribe_many(load.iter().cloned())?;
        let full_ns = subscribe_p50(&full_broker, full_probes);
        drop(loaded);

        rows.push(SubscribeRow {
            population: population as u64,
            overlay_ns_p50: overlay_ns,
            full_rebuild_ns_p50: full_ns,
        });
    }
    let growth = rows[rows.len() - 1].overlay_ns_p50 / rows[0].overlay_ns_p50.max(1.0);
    Ok(SubscribeLatency {
        workload: "environmental".to_owned(),
        rows,
        overlay_growth_largest_over_smallest: growth,
        depth_rows: bench_overlay_depth_latency(&schema)?,
    })
}

/// Subscribe and unsubscribe p50 at overlay depths 1, 16 and 64 over
/// 1000 compiled environmental profiles: `depth - 1` standing overlay
/// subscriptions, then 256 probes, each subscribed (the overlay reaches
/// `depth`) and cancelled again. Cancelled probes stay as tombstones
/// until the overlay packs them away, as they would in a running broker.
fn bench_overlay_depth_latency(
    schema: &ens_types::Schema,
) -> Result<Vec<DepthRow>, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PROBES: usize = 256;
    let mut rng = StdRng::seed_from_u64(173);
    let profiles = ens_workloads::scenario::environmental_profiles(1000 + 64 + PROBES, &mut rng)?;
    let profiles: Vec<ens_types::Profile> = profiles.iter().cloned().collect();
    let (load, rest) = profiles.split_at(1000);
    let (standing, probes) = rest.split_at(64);
    let p50 = |mut samples: Vec<u128>| {
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    };
    let mut rows = Vec::new();
    for depth in [1, 16, 64] {
        let broker = Broker::new(
            schema,
            BrokerConfig {
                rebuild: RebuildPolicy {
                    max_overlay: usize::MAX,
                    ..RebuildPolicy::default()
                },
                ..BrokerConfig::default()
            },
        )?;
        let _loaded = broker.subscribe_many(load.iter().cloned())?;
        let _standing = standing[..depth - 1]
            .iter()
            .map(|p| broker.subscribe_profile(p.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let (mut subscribe, mut unsubscribe) = (Vec::new(), Vec::new());
        for p in probes {
            let p = p.clone();
            let t0 = Instant::now();
            let sub = broker.subscribe_profile(p)?;
            subscribe.push(t0.elapsed().as_nanos());
            let t0 = Instant::now();
            broker.unsubscribe(sub.id())?;
            unsubscribe.push(t0.elapsed().as_nanos());
        }
        rows.push(DepthRow {
            overlay_depth: depth as u64,
            probes: PROBES as u64,
            subscribe_ns_p50: p50(subscribe),
            unsubscribe_ns_p50: p50(unsubscribe),
        });
    }
    Ok(rows)
}

/// The drift-workload broker: V1 (event-probability descending) edge
/// order seeded with the phase-A model as prior. `tuned` switches on
/// the standard tuning battery with drift tracking; otherwise the
/// broker is static (its drift is never evaluated) — the stale baseline.
fn tuning_broker(
    w: &DriftWorkload,
    tuned: bool,
    events_per_phase: usize,
) -> Result<(Broker, Vec<Subscriber>), Box<dyn std::error::Error>> {
    let tree = TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        event_model: Some(w.model_a.clone()),
        ..TreeConfig::default()
    };
    let config = if tuned {
        BrokerConfig {
            tree,
            stats_sample: 1,
            rebuild: RebuildPolicy {
                min_events: (events_per_phase as u64 / 4).max(64),
                // The hot-band migration moves the whole distribution
                // (L1 ≈ 2.0); a high threshold keeps per-cell sampling
                // noise from re-firing the (expensive) tuning pass.
                drift_threshold: 0.6,
                ..RebuildPolicy::default()
            },
            tuning: true,
            ..BrokerConfig::default()
        }
    } else {
        BrokerConfig {
            tree,
            rebuild: RebuildPolicy {
                min_events: u64::MAX,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        }
    };
    let broker = Broker::new(&w.schema, config)?;
    let subs = broker.subscribe_many(w.profiles.iter().cloned())?;
    Ok((broker, subs))
}

/// Measures one phase: a receipt pass for ops/matches, then timed
/// best-of passes (subscribers drained between passes).
fn tuning_phase(
    opts: &Options,
    broker: &Broker,
    subs: &[Subscriber],
    events: &[Arc<Event>],
) -> Result<TuningPhase, Box<dyn std::error::Error>> {
    let mut ops = 0u64;
    let mut matches = 0u64;
    for e in events {
        let receipt = broker.publish_shared(Arc::clone(e))?;
        ops += receipt.ops;
        matches += receipt.matched.len() as u64;
    }
    drain(subs);
    let per_pass = broker_pass(opts, subs, || {
        for e in events {
            broker
                .publish_shared(Arc::clone(e))
                .expect("valid drift event");
        }
    });
    let n = events.len() as f64;
    Ok(TuningPhase {
        events_per_sec: n / per_pass,
        ns_per_event: per_pass * 1e9 / n,
        ops_per_event: ops as f64 / n,
        matches,
    })
}

/// The self-tuning trajectory on the hot-band-migration drift workload:
/// before drift → degraded under a stale ordering → recovered after the
/// automatic retune.
fn bench_tuning(opts: &Options) -> Result<TuningReport, Box<dyn std::error::Error>> {
    // The stale-vs-retuned contrast is an *ops* story: it only
    // dominates wall-clock when the mis-ordered scan costs hundreds of
    // comparisons, i.e. with a large subscription population (the
    // paper's regime). Keep at least 1000 bands even in smoke runs.
    let profiles = opts.profiles.unwrap_or(1000).max(1000);
    let w = ens_workloads::hot_band_migration(2026, profiles, opts.events)?;
    let phase_a: Vec<Arc<Event>> = w.phase_a.iter().map(|e| Arc::new(e.clone())).collect();
    let phase_b: Vec<Arc<Event>> = w.phase_b.iter().map(|e| Arc::new(e.clone())).collect();

    // Static broker, optimised for phase A and never retuned.
    let (stale, stale_subs) = tuning_broker(&w, false, opts.events)?;
    let before_drift = tuning_phase(opts, &stale, &stale_subs, &phase_a)?;
    let stale_after_drift = tuning_phase(opts, &stale, &stale_subs, &phase_b)?;

    // Self-tuning broker: feed phase-B traffic until the retune fires.
    let (tuned, tuned_subs) = tuning_broker(&w, true, opts.events)?;
    let mut passes = 0;
    while tuned.metrics().retunes == 0 {
        passes += 1;
        if passes > 64 {
            return Err("drift workload failed to trigger a retune".into());
        }
        for e in &phase_b {
            tuned.publish_shared(Arc::clone(e))?;
        }
        drain(&tuned_subs);
    }
    let retuned_after_drift = tuning_phase(opts, &tuned, &tuned_subs, &phase_b)?;
    assert_eq!(
        retuned_after_drift.matches, stale_after_drift.matches,
        "retune must not change match semantics"
    );

    let m = tuned.metrics();
    Ok(TuningReport {
        workload: "drift_hot_band_migration".to_owned(),
        profiles: w.profiles.len() as u64,
        events_per_phase: opts.events as u64,
        drift_degradation: before_drift.events_per_sec / stale_after_drift.events_per_sec,
        recovery_speedup: retuned_after_drift.events_per_sec / stale_after_drift.events_per_sec,
        before_drift,
        stale_after_drift,
        retuned_after_drift,
        retunes: m.retunes,
        drift_declined: m.drift_declined,
        predicted_ops_per_event: m.predicted_ops_per_event,
        tuning_ns_total: m.tuning_nanos,
    })
}

fn drift_settle_row(broker: &Broker, events: u64, seconds: f64) -> DriftSettleRow {
    let m = broker.metrics();
    DriftSettleRow {
        events,
        tree_rebuilds: m.tree_rebuilds,
        drift_declined: m.drift_declined,
        overlay_compactions: m.overlay_compactions,
        events_per_sec: events as f64 / seconds,
    }
}

/// The `drift_settle` section: the two streams on which the default
/// drift loop used to recompile for good, at `BrokerConfig::default()`.
fn bench_drift_settle(opts: &Options) -> Result<DriftSettleReport, Box<dyn std::error::Error>> {
    use ens_service::FaultFs;
    use ens_workloads::scenario::{
        environmental_profiles, environmental_schema, stock_event_model, stock_profiles,
        stock_schema,
    };
    use ens_workloads::{churn_burst_plan, ChurnOp, EventGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let profiles = opts.profiles.unwrap_or(1000);

    let schema = stock_schema();
    let mut rng = StdRng::seed_from_u64(11);
    let broker = Broker::new(&schema, BrokerConfig::default())?;
    let subs = broker.subscribe_many(stock_profiles(profiles, &mut rng)?.iter().cloned())?;
    let generator = EventGenerator::new(&schema, stock_event_model()?)?;
    let events: Vec<Arc<Event>> = (0..100_000)
        .map(|_| Arc::new(generator.sample(&mut rng)))
        .collect();
    let t0 = Instant::now();
    for chunk in events.chunks(256) {
        for event in chunk {
            broker.publish_shared(Arc::clone(event))?;
        }
        drain(&subs);
    }
    let stationary_stock =
        drift_settle_row(&broker, events.len() as u64, t0.elapsed().as_secs_f64());

    let schema = environmental_schema();
    let durability = DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Always,
        vfs: Arc::new(FaultFs::new()),
        ..DurabilityConfig::new("/drift_settle")
    };
    let broker = Broker::open(&schema, BrokerConfig::default(), durability)?.broker;
    let base =
        broker.subscribe_many(environmental_profiles(profiles, &mut rng)?.iter().cloned())?;
    let plan = churn_burst_plan(11, 200, 64, 16)?;
    let mut churn: Vec<Subscriber> = Vec::new();
    let t0 = Instant::now();
    for op in &plan.ops {
        match op {
            ChurnOp::Subscribe(profile) => churn.push(broker.subscribe_profile(profile.clone())?),
            ChurnOp::Burst(range) => {
                for event in &plan.events[range.clone()] {
                    broker.publish(event)?;
                }
                drain(&base);
                drain(&churn);
            }
            ChurnOp::Unsubscribe(k) => broker.unsubscribe(churn.remove(*k).id())?,
        }
    }
    let churn_rounds = drift_settle_row(
        &broker,
        plan.events.len() as u64,
        t0.elapsed().as_secs_f64(),
    );

    Ok(DriftSettleReport {
        profiles: profiles as u64,
        stationary_stock,
        churn_rounds,
    })
}

/// The `compile_stages` section: what the journal says a bulk load of
/// 1000 profiles spent in each stage of the compile pipeline, at the
/// default shape, and on the event model in event order, the default
/// shape building none.
fn bench_compile_stages() -> Result<Vec<CompileStagesRow>, Box<dyn std::error::Error>> {
    use ens_workloads::scenario::{
        environmental_profiles, environmental_schema, stock_profiles, stock_schema,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PROFILES: usize = 1000;
    let mut rng = StdRng::seed_from_u64(474);
    let populations = [
        (
            "environmental",
            environmental_schema(),
            environmental_profiles(PROFILES, &mut rng)?,
        ),
        ("stock", stock_schema(), stock_profiles(PROFILES, &mut rng)?),
    ];
    let mut rows = Vec::new();
    for (workload, schema, profiles) in populations {
        let mut row = CompileStagesRow {
            workload: workload.to_owned(),
            profiles: PROFILES as u64,
            compiled: 0,
            model_ns: u64::MAX,
            default_model_ns: 0,
            cover_ns: u64::MAX,
            tree_ns: u64::MAX,
        };
        let event_order = SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending));
        for _ in 0..5 {
            for search in [SearchStrategy::default(), event_order] {
                let mut config = BrokerConfig::default();
                config.tree.search = search;
                let broker = Broker::new(&schema, config)?;
                let _subs = broker.subscribe_many(profiles.iter().cloned())?;
                let decisions = broker.decisions();
                let [Decision::Compacted {
                    population: PROFILES,
                    compiled,
                    model_ns,
                    cover_ns,
                    tree_ns,
                    ..
                }] = decisions[..]
                else {
                    return Err(format!("compile_stages: one bulk load, got {decisions:?}").into());
                };
                if search == event_order {
                    row.model_ns = row.model_ns.min(model_ns);
                    continue;
                }
                row.compiled = compiled as u64;
                row.default_model_ns = row.default_model_ns.max(model_ns);
                row.cover_ns = row.cover_ns.min(cover_ns);
                row.tree_ns = row.tree_ns.min(tree_ns);
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Cold-start-to-serving at large populations: recompiling the filter
/// from raw profiles vs reloading a checkpoint through
/// [`Broker::open`]. Both timings end after the first probe publish —
/// the broker is *serving*, not merely constructed. Populations are
/// 100× and 1000× `--profiles` (100k and 1M subscriptions at the
/// default), so smoke runs stay cheap.
fn bench_recovery(opts: &Options) -> Result<RecoveryReport, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let base = opts.profiles.unwrap_or(1000);
    let populations = [base * 100, base * 1000];
    let schema = ens_workloads::scenario::environmental_schema();
    let generator = ens_workloads::EventGenerator::new(
        &schema,
        ens_workloads::scenario::environmental_event_model()?,
    )?;
    let mut rng = StdRng::seed_from_u64(472);
    let probe = generator.sample(&mut rng);
    let dir = std::env::temp_dir().join(format!("ens-bench-recovery-{}", std::process::id()));

    let config = BrokerConfig {
        stats_sample: 0,
        rebuild: RebuildPolicy {
            min_events: u64::MAX,
            ..RebuildPolicy::default()
        },
        ..BrokerConfig::default()
    };
    let mut durability = DurabilityConfig::new(&dir);
    durability.checkpoint_every = 0; // manual checkpoints only
    durability.fsync = FsyncPolicy::Never;

    let mut rows = Vec::new();
    for population in populations {
        let mut rng = StdRng::seed_from_u64(471);
        let profiles: Vec<ens_types::Profile> =
            ens_workloads::scenario::environmental_profiles(population, &mut rng)?
                .iter()
                .cloned()
                .collect();

        // Recompile from profiles: the only restart path without
        // durability (measured once — it is a one-shot cost, and at
        // 1M subscriptions a best-of loop would dominate the harness).
        // Both timed phases sit behind an idle pause: on burst-credit
        // hosts (cloud CPU throttling) the preceding untimed work
        // drains the credit pool and would otherwise skew whichever
        // phase runs later, so each phase starts from a replenished
        // budget and the reported ratio compares like with like.
        let cooldown = || std::thread::sleep(std::time::Duration::from_secs(10));
        cooldown();
        let t0 = Instant::now();
        let broker = Broker::new(&schema, config.clone())?;
        let subs = broker.subscribe_many(profiles.iter().cloned())?;
        let receipt = broker.publish(&probe)?;
        std::hint::black_box(receipt.matched.len());
        let recompile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let expected_matches = receipt.matched.len();
        drop(subs);
        drop(broker);

        // Persist the same population once.
        let _ = std::fs::remove_dir_all(&dir);
        {
            let recovered = Broker::open(&schema, config.clone(), durability.clone())?;
            let _subs = recovered.broker.subscribe_many(profiles.iter().cloned())?;
            recovered.broker.checkpoint()?;
        }
        // One generation was written; its file is named after it.
        let mut checkpoint_bytes = 0;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with("checkpoint.")
            {
                checkpoint_bytes += entry.metadata()?.len();
            }
        }

        // Checkpoint reload (best of 3: later runs see warm page
        // cache, like a crash-restart on a live host).
        let mut reload_ms = f64::INFINITY;
        for _ in 0..3 {
            cooldown();
            let t0 = Instant::now();
            let recovered = Broker::open(&schema, config.clone(), durability.clone())?;
            let receipt = recovered.broker.publish(&probe)?;
            std::hint::black_box(receipt.matched.len());
            reload_ms = reload_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(
                receipt.matched.len(),
                expected_matches,
                "reloaded broker must serve the same matches"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);

        rows.push(RecoveryRow {
            subscriptions: population as u64,
            recompile_ms,
            reload_ms,
            reload_speedup: recompile_ms / reload_ms,
            checkpoint_bytes,
        });
    }
    Ok(RecoveryReport {
        workload: "environmental".to_owned(),
        rows,
        checkpoint_cost: bench_checkpoint_cost(&schema, config, durability)?,
    })
}

/// 3 × 4096 subscribe/unsubscribe operations over a standing
/// population of 1000 on a durable broker that checkpoints every 4096
/// records: three automatic checkpoints, of which the last two are in
/// steady state — the log holds two intervals and loses the older one.
/// The numbers are the broker's own, from its decision journal.
fn bench_checkpoint_cost(
    schema: &Schema,
    config: BrokerConfig,
    mut durability: DurabilityConfig,
) -> Result<CheckpointCostRow, Box<dyn std::error::Error>> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const STANDING: usize = 1000;
    const INTERVAL: usize = 4096;
    const OPS: usize = 3 * INTERVAL;
    durability.checkpoint_every = INTERVAL as u64;
    durability.checkpoint_generations = 2;
    // In memory: on the real filesystem the trim's create / rename /
    // reopen are the runner's system calls, not the broker's work.
    // (`FaultFs` journals every write; at this fixed size that is a
    // few megabytes.)
    let fs = Arc::new(FaultFs::new());
    durability.vfs = fs.clone();
    let wal_path = durability.dir.join(ens_service::persist::WAL_FILE);

    let mut rng = StdRng::seed_from_u64(473);
    let mut profiles =
        ens_workloads::scenario::environmental_profiles(STANDING + OPS / 2, &mut rng)?
            .iter()
            .cloned()
            .collect::<Vec<_>>()
            .into_iter();
    let broker = Broker::open(schema, config, durability.clone())?.broker;
    let mut live: VecDeque<_> = broker
        .subscribe_many(profiles.by_ref().take(STANDING))?
        .into();
    // Generation 1 covers the standing population; the intervals
    // counted below start here.
    broker.checkpoint()?;
    let mut wal_records = 0;
    for op in 0..OPS {
        if op + 1 == OPS {
            // The last operation completes the third interval.
            let log = fs.read(&wal_path)?;
            wal_records = ens_service::persist::decode_wal(&log).offsets.len() as u64 + 1;
        }
        if op % 2 == 0 {
            let profile = profiles.next().ok_or("checkpoint_cost: out of profiles")?;
            live.push_back(broker.subscribe_profile(profile)?);
        } else {
            let oldest = live.pop_front().ok_or("checkpoint_cost: nothing live")?;
            broker.unsubscribe(oldest.id())?;
        }
    }
    // (dropped, kept, image ns, trim ns) of generations 3 and 4.
    let steady: Vec<(u64, u64, u64, u64)> = broker
        .decisions()
        .iter()
        .filter_map(|d| match d {
            Decision::CheckpointWritten {
                generation,
                wal_bytes_dropped,
                wal_bytes_kept,
                ns,
                trim_ns,
                ..
            } if *generation >= 3 => {
                Some((*wal_bytes_dropped, *wal_bytes_kept, ns - trim_ns, *trim_ns))
            }
            _ => None,
        })
        .collect();
    let &[first, last] = steady.as_slice() else {
        return Err(
            format!("checkpoint_cost: generations 3 and 4 expected, got {steady:?}").into(),
        );
    };
    if first.0 == 0 || last.0 == 0 {
        return Err(format!("checkpoint_cost: a steady-state trim cut nothing: {steady:?}").into());
    }
    Ok(CheckpointCostRow {
        subscriptions: STANDING as u64,
        wal_records,
        wal_bytes_dropped: last.0,
        wal_bytes_kept: last.1,
        image_ms: first.2.min(last.2) as f64 / 1e6,
        trim_ms: first.3.min(last.3) as f64 / 1e6,
    })
}

/// Covering-pruned compilation at scale: the same coverage-heavy
/// population (90% coverage density — duplicate-heavy or Zipf-skewed
/// single-attribute narrowings of a small root set) compiled with
/// covering off (plain compile over every profile) and on (containment
/// analysis + rep-only compile + residual expansion map), at growing
/// population sizes. Reports build time, retained compiled bytes per
/// profile (live-heap delta under the counting allocator) and CSR
/// match throughput; the (event, matched-slot) checksum is asserted
/// equal between the two paths at every cell.
fn bench_profile_scale(opts: &Options) -> Result<ProfileScaleReport, Box<dyn std::error::Error>> {
    use ens_workloads::CoveredPopulationConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let schema = ens_workloads::scenario::environmental_schema();
    let generator = ens_workloads::EventGenerator::new(
        &schema,
        ens_workloads::scenario::environmental_event_model()?,
    )?;
    // Expanded match sets grow with the population (duplicates all
    // match together), so cap the event count to keep the 1M cells'
    // verification pass bounded.
    let n_events = opts.events.clamp(1, 1024);
    let mut rng = StdRng::seed_from_u64(8081);
    let indexed: Vec<IndexedEvent> = (0..n_events)
        .map(|_| IndexedEvent::resolve(&schema, &generator.sample(&mut rng)))
        .collect::<Result<_, _>>()?;

    let sizes: Vec<usize> = [10_000, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= opts.scale_cap)
        .collect();
    // Selective roots (few `(*)`s, narrow ranges): root count grows
    // with the population (10% at 90% density), so permissive roots
    // would blow the covering-off leaf lists past this container's
    // memory at 1M. Selectivity shrinks both sides of the comparison
    // alike; the covering ratios are structural.
    let roots = ens_workloads::ProfileGenConfig {
        dont_care_prob: 0.1,
        eq_prob: 0.6,
        range_width_frac: 0.05,
    };
    let populations = [
        (
            "duplicate_heavy",
            CoveredPopulationConfig {
                coverage_density: 0.9,
                duplicate_frac: 0.9,
                zipf_exponent: 0.0,
                roots,
            },
        ),
        (
            "zipf",
            CoveredPopulationConfig {
                coverage_density: 0.9,
                duplicate_frac: 0.4,
                zipf_exponent: 1.2,
                roots,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, pop_cfg) in &populations {
        for (k, &n) in sizes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(4242 + k as u64);
            let profiles = ens_workloads::covered_profiles(&schema, n, pop_cfg, &mut rng)?;
            let tree_config = TreeConfig::default();

            let live0 = live_bytes();
            let t0 = Instant::now();
            let plain = FilterSnapshot::compile(&profiles, &tree_config)?;
            let build_ms_off = t0.elapsed().as_secs_f64() * 1e3;
            let bytes_off = live_bytes().saturating_sub(live0);

            let live0 = live_bytes();
            let t0 = Instant::now();
            let cover =
                CoverSet::build_bulk(&schema, profiles.iter().map(|p| (p.id().index() as u32, p)))?;
            let covered = FilterSnapshot::compile_with_cover(&profiles, &cover, &tree_config)?;
            let build_ms_on = t0.elapsed().as_secs_f64() * 1e3;
            // The broker keeps the CoverSet for subscribe-time probes,
            // but it is not part of the compiled snapshot; drop it so
            // bytes_on is the retained snapshot alone, symmetric with
            // bytes_off.
            let compiled_profiles = covered.compiled_len() as u64;
            drop(cover);
            let bytes_on = live_bytes().saturating_sub(live0);

            let (events_per_sec_off, sum_off) = profile_scale_pass(&plain, &indexed, opts.min_ms);
            drop(plain);
            let (events_per_sec_on, sum_on) = profile_scale_pass(&covered, &indexed, opts.min_ms);
            assert_eq!(
                sum_off, sum_on,
                "{name}/{n}: covering changed the match results"
            );

            let per = |b: u64| b as f64 / n as f64;
            rows.push(ProfileScaleRow {
                population: (*name).to_owned(),
                profiles: n as u64,
                compiled_profiles,
                build_ms_off,
                build_ms_on,
                build_speedup: build_ms_off / build_ms_on,
                bytes_per_profile_off: per(bytes_off),
                bytes_per_profile_on: per(bytes_on),
                bytes_ratio: bytes_off as f64 / bytes_on.max(1) as f64,
                events_per_sec_off,
                events_per_sec_on,
                match_speedup: events_per_sec_on / events_per_sec_off,
                checksum: sum_on,
            });
            if !opts.quiet {
                eprintln!(
                    "profile_scale {name}/{n}: {} reps, build {:.0}ms -> {:.0}ms",
                    compiled_profiles, build_ms_off, build_ms_on
                );
            }
        }
    }
    Ok(ProfileScaleReport {
        events: n_events as u64,
        rows,
    })
}

/// One verification pass (FNV-1a checksum over every (event,
/// matched-slot) pair) then timed CSR `match_into` passes until
/// `min_ms`, best-of, on a compiled snapshot.
fn profile_scale_pass(snap: &FilterSnapshot, indexed: &[IndexedEvent], min_ms: u64) -> (f64, u64) {
    let mut scratch = SnapshotScratch::new();
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for (i, ie) in indexed.iter().enumerate() {
        snap.match_into(ie, &mut scratch, true);
        for v in std::iter::once(i as u64).chain(scratch.matched().iter().map(|&m| u64::from(m))) {
            checksum ^= v;
            checksum = checksum.wrapping_mul(0x100_0000_01b3);
        }
    }
    let start = Instant::now();
    let mut best = std::time::Duration::MAX;
    loop {
        let t0 = Instant::now();
        let mut n = 0u64;
        for ie in indexed {
            snap.match_into(ie, &mut scratch, true);
            n += scratch.matched().len() as u64;
        }
        std::hint::black_box(n);
        best = best.min(t0.elapsed());
        if start.elapsed().as_millis() >= u128::from(min_ms) {
            break;
        }
    }
    (indexed.len() as f64 / best.as_secs_f64(), checksum)
}

/// Federated broker fan-out, forwarding selectivity and partition
/// recovery. The TCP leg runs over a real loopback socket pair; the
/// mesh and partition legs run on the deterministic fault-injection
/// network, so their times are virtual milliseconds.
fn bench_federation(opts: &Options) -> Result<FederationReport, Box<dyn std::error::Error>> {
    use ens_service::federation::link::LinkConfig;
    use ens_service::federation::sim::SimNet;
    use ens_service::{Federation, FederationConfig};

    let schema = ens_types::Schema::builder()
        .attribute("x", ens_types::Domain::int(0, 9999))?
        .build();
    let event = |x: i64| -> Result<Event, Box<dyn std::error::Error>> {
        Ok(Event::builder(&schema).value("x", x)?.build())
    };
    let mk = |node: u64, link: LinkConfig| -> Result<Federation, Box<dyn std::error::Error>> {
        Ok(Federation::new(
            Arc::new(Broker::new(&schema, BrokerConfig::default())?),
            FederationConfig {
                node,
                epoch: 1,
                link,
                ..FederationConfig::default()
            },
        ))
    };
    let sim_link = LinkConfig {
        heartbeat_ms: 50,
        timeout_ms: 300,
        backoff_base_ms: 20,
        backoff_max_ms: 200,
        rto_ms: 40,
        send_window: 64,
        pending_cap: 0,
    };

    // --- TCP loopback fan-out latency -------------------------------
    let tcp_events = opts.events.min(256) as u64;
    let a = mk(1, LinkConfig::default())?;
    let b = mk(2, LinkConfig::default())?;
    let addr = b.bind("127.0.0.1:0".parse().expect("loopback"))?;
    b.add_tcp_peer(1, addr, 0);
    a.add_tcp_peer(2, addr, 0);
    let _sub = b.subscribe_parsed("profile(x >= 0)")?;
    let start = Instant::now();
    let pump_both = |deliveries: &mut u64| -> Result<(), Box<dyn std::error::Error>> {
        let now = start.elapsed().as_millis() as u64;
        a.pump(now)?;
        *deliveries += b.pump(now)?.delivered.len() as u64;
        Ok(())
    };
    let mut warm = 0;
    while a.metrics().peers_up != 1 || a.interested_peers() != 1 {
        pump_both(&mut warm)?;
        if start.elapsed().as_secs() > 10 {
            return Err("federation bench: TCP pair never came up".into());
        }
    }
    let mut latencies_us = Vec::with_capacity(tcp_events as usize);
    for i in 0..tcp_events {
        let t0 = Instant::now();
        a.publish(&event((i % 10_000) as i64)?)?;
        let mut got = 0;
        while got == 0 {
            pump_both(&mut got)?;
            if t0.elapsed().as_secs() > 10 {
                return Err("federation bench: delivery stalled".into());
            }
        }
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    latencies_us.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies_us[((latencies_us.len() - 1) as f64 * p) as usize];

    // --- Forwarded-event ratio on a selective 3-broker mesh ---------
    let net = SimNet::new(9001);
    let sim_events = opts.events.max(512) as u64;
    let a = mk(1, sim_link)?;
    let b = mk(2, sim_link)?;
    let c = mk(3, sim_link)?;
    for (f, node, peers) in [(&a, 1u64, [2u64, 3]), (&b, 2, [1, 3]), (&c, 3, [1, 2])] {
        for p in peers {
            f.add_peer(p, Box::new(net.transport(node, p)), 0);
        }
    }
    // b wants the top half, c the top decile: forwarding should track
    // interest, not peer count.
    let _sub_b = b.subscribe_parsed("profile(x >= 5000)")?;
    let _sub_c = c.subscribe_parsed("profile(x >= 9000)")?;
    let pump_sim = |net: &SimNet,
                    feds: &[&Federation],
                    steps: u32|
     -> Result<u64, Box<dyn std::error::Error>> {
        let mut got = 0;
        for _ in 0..steps {
            let now = net.now_ms();
            for f in feds {
                got += f.pump(now)?.delivered.len() as u64;
            }
            net.advance(10);
        }
        Ok(got)
    };
    while a.interested_peers() != 2 {
        pump_sim(&net, &[&a, &b, &c], 1)?;
    }
    for i in 0..sim_events {
        // 9973 is coprime to the domain size: x sweeps the whole
        // domain near-uniformly, so the interest thresholds bite.
        a.publish(&event(((i * 9973) % 10_000) as i64)?)?;
    }
    let mut drained = 0;
    while a.backlog() > 0 {
        drained += pump_sim(&net, &[&a, &b, &c], 10)?;
    }
    drained += pump_sim(&net, &[&a, &b, &c], 20)?;
    std::hint::black_box(drained);
    let forwarded = a.metrics().forwarded_rows;

    // --- Recovery after partition (virtual ms) ----------------------
    let net = SimNet::new(9002);
    let backlog_events = 500u64;
    let a = mk(1, sim_link)?;
    let b = mk(2, sim_link)?;
    a.add_peer(2, Box::new(net.transport(1, 2)), 0);
    b.add_peer(1, Box::new(net.transport(2, 1)), 0);
    let _sub = b.subscribe_parsed("profile(x >= 0)")?;
    while a.interested_peers() != 1 {
        pump_sim(&net, &[&a, &b], 1)?;
    }
    net.partition(1, 2);
    for i in 0..backlog_events {
        a.publish(&event((i % 10_000) as i64)?)?;
    }
    pump_sim(&net, &[&a, &b], 30)?; // both sides notice the partition
    net.heal(1, 2);
    let healed_at = net.now_ms();
    let mut recovered = 0;
    while recovered < backlog_events {
        recovered += pump_sim(&net, &[&a, &b], 1)?;
        if net.now_ms() - healed_at > 600_000 {
            return Err("federation bench: partition recovery stalled".into());
        }
    }
    let recovery_ms = net.now_ms() - healed_at;

    // --- Overflow accounting under a bounded pending buffer ---------
    let net = SimNet::new(9003);
    let bounded = LinkConfig {
        pending_cap: 64,
        ..sim_link
    };
    let a = mk(1, bounded)?;
    let b = mk(2, bounded)?;
    a.add_peer(2, Box::new(net.transport(1, 2)), 0);
    b.add_peer(1, Box::new(net.transport(2, 1)), 0);
    let _sub = b.subscribe_parsed("profile(x >= 0)")?;
    while a.interested_peers() != 1 {
        pump_sim(&net, &[&a, &b], 1)?;
    }
    net.partition(1, 2);
    for i in 0..backlog_events {
        a.publish(&event((i % 10_000) as i64)?)?;
    }
    pump_sim(&net, &[&a, &b], 30)?;
    let bounded_overflow_dropped = a.metrics().overflow_dropped;

    // --- Interest aggregation on a duplicate-heavy population -------
    // Subscriber A holds 8 disjoint wide bands (together covering
    // half the domain) plus 24 distinct narrowings inside each band
    // (every narrowing has its own signature, so nothing collapses by
    // exact dedup — only the covering analysis can shrink the
    // forwarded set, and the minimal antichain is exactly the 8
    // bands). Publisher B sweeps the domain; forwarded interest and
    // forwarded events are measured.
    let mk_cfg = |node: u64,
                  max_hops: u8,
                  link: LinkConfig|
     -> Result<Federation, Box<dyn std::error::Error>> {
        Ok(Federation::new(
            Arc::new(Broker::new(&schema, BrokerConfig::default())?),
            FederationConfig {
                node,
                epoch: 1,
                max_hops,
                link,
            },
        ))
    };
    let agg_events = opts.events.clamp(256, 2048) as u64;
    let aggregation = {
        let net = SimNet::new(9004);
        let a = mk_cfg(1, 0, sim_link)?;
        let b = mk_cfg(2, 0, sim_link)?;
        a.add_peer(2, Box::new(net.transport(1, 2)), 0);
        b.add_peer(1, Box::new(net.transport(2, 1)), 0);
        let mut local_subs = 0u64;
        for rep in 0..8i64 {
            let lo = rep * 1250;
            let hi = lo + 624;
            let _ = a.subscribe_parsed(&format!("profile(x in [{lo}, {hi}])"))?;
            local_subs += 1;
            for i in 0..24i64 {
                let nlo = lo + i * 20;
                let nhi = nlo + 100;
                let _ = a.subscribe_parsed(&format!("profile(x in [{nlo}, {nhi}])"))?;
                local_subs += 1;
            }
        }
        while b.interested_peers() != 1 {
            pump_sim(&net, &[&a, &b], 1)?;
        }
        pump_sim(&net, &[&a, &b], 10)?;
        for i in 0..agg_events {
            b.publish(&event(((i * 9973) % 10_000) as i64)?)?;
        }
        let mut drained = 0;
        while b.backlog() > 0 {
            drained += pump_sim(&net, &[&a, &b], 10)?;
        }
        drained += pump_sim(&net, &[&a, &b], 20)?;
        std::hint::black_box(drained);
        let forwarded = b.metrics().forwarded_rows;
        vec![AggregationRow {
            mode: "aggregated".to_string(),
            local_subs,
            forwarded_interest: a.forwarded_interest(2) as u64,
            forwarded_rows: forwarded,
            forwarded_event_ratio: forwarded as f64 / agg_events as f64,
        }]
    };

    // --- Exactly-once relay on a 3-broker line ----------------------
    let net = SimNet::new(9005);
    let line_events = opts.events.clamp(256, 2048) as u64;
    let f1 = mk_cfg(1, 2, sim_link)?;
    let f2 = mk_cfg(2, 2, sim_link)?;
    let f3 = mk_cfg(3, 2, sim_link)?;
    f1.add_peer(2, Box::new(net.transport(1, 2)), 0);
    f2.add_peer(1, Box::new(net.transport(2, 1)), 0);
    f2.add_peer(3, Box::new(net.transport(2, 3)), 0);
    f3.add_peer(2, Box::new(net.transport(3, 2)), 0);
    let sub = f3.subscribe_parsed("profile(x >= 0)")?;
    // Interest must relay 3 -> 2 -> 1 before publishing starts.
    while f1.interested_peers() != 1 {
        pump_sim(&net, &[&f1, &f2, &f3], 1)?;
    }
    pump_sim(&net, &[&f1, &f2, &f3], 10)?;
    for i in 0..line_events {
        f1.publish(&event((i % 10_000) as i64)?)?;
    }
    while f1.backlog() > 0 || f2.backlog() > 0 {
        pump_sim(&net, &[&f1, &f2, &f3], 10)?;
    }
    pump_sim(&net, &[&f1, &f2, &f3], 20)?;
    let delivered = sub.drain().len() as u64;
    let line_topology = LineTopologyRow {
        brokers: 3,
        events: line_events,
        delivered,
        duplicates: f3.metrics().origin_duplicates + f3.metrics().duplicates,
        exactly_once: delivered == line_events,
    };

    Ok(FederationReport {
        tcp_events,
        tcp_fanout_p50_us: pct(0.50),
        tcp_fanout_p99_us: pct(0.99),
        sim_events,
        forwarded_rows: forwarded,
        forwarded_event_ratio: forwarded as f64 / sim_events as f64,
        partition_backlog_events: backlog_events,
        recovery_after_partition_virtual_ms: recovery_ms,
        bounded_overflow_dropped,
        aggregation,
        line_topology,
    })
}

/// Like [`bench_pass`], but through the `match_into` fast path with a
/// reused [`IndexedEvent`] + [`MatchScratch`] pair (per-event index
/// resolution included in the measured loop).
fn scratch_pass<M: Matcher>(
    opts: &Options,
    name: &str,
    schema: &Schema,
    events: &[Event],
    ops_per_event: f64,
    matcher: &M,
) -> MatcherReport {
    let mut indexed = IndexedEvent::new();
    let mut scratch = MatchScratch::new();
    let mut pass = move |evts: &[Event]| -> u64 {
        let mut n = 0u64;
        for e in evts {
            indexed.resolve_into(schema, e).expect("valid event");
            matcher.match_into(&indexed, &mut scratch);
            n += scratch.profiles().len() as u64;
        }
        n
    };
    bench_pass(opts, name, events, ops_per_event, &mut pass)
}
