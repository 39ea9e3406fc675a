//! Metric names, units and bounds — the vocabulary later changes are
//! judged in — and the `BENCHMARK.json` built from it.

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// An end-to-end metric every workload reports.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Two values closer than this (in `unit`) agree whatever their
    /// ratio: `--aa` only, `BENCHMARK.json` has no field for it.
    pub floor: f64,
}

/// The timings are in reference seconds (`reference.rs`). A bound is
/// at least three times the widest ten-seed spread measured here, and
/// for the timings the most the benchmark contract allows: the machine
/// that checks the benchmark measured spreads of up to 17.5 % on them,
/// so the issue's cap of 10 % does not hold there (README.md,
/// "Steadiness").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        floor: 0.020,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "publish_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "mem_bytes_per_sub",
        unit: "B",
        better: "lower",
        bound: 0.10,
        floor: 0.0,
    },
];

/// Per-layer metrics of the traced run, every workload reports all of
/// them: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 57] = [
    ("types.indexed.resolve_ns_per_event", "ns", "lower"),
    ("types.indexed.resolve_batch_ns_per_event", "ns", "lower"),
    ("types.covering.build_bulk_ms", "ms", "lower"),
    ("filter.snapshot.compile_ms", "ms", "lower"),
    ("filter.snapshot.retained_bytes_per_profile", "B", "lower"),
    ("filter.snapshot.match_tree_ns_per_event", "ns", "lower"),
    ("filter.snapshot.match_dfsa_ns_per_event", "ns", "lower"),
    ("filter.snapshot.match_block_ns_per_event", "ns", "lower"),
    ("filter.snapshot.matched_per_event", "count", "lower"),
    ("filter.snapshot.ops_per_event", "count", "lower"),
    ("filter.cover.expand_ns_per_event", "ns", "lower"),
    ("filter.cover.children_per_hit", "count", "lower"),
    ("filter.cost.predicted_ops_per_event", "count", "lower"),
    ("filter.cost.model_error_pct", "%", "lower"),
    ("filter.overlay.with_overlay_us", "us", "lower"),
    ("filter.overlay.match_ns_per_event", "ns", "lower"),
    ("filter.rebuild.observe_ns_per_event", "ns", "lower"),
    ("filter.persist.encode_ms", "ms", "lower"),
    ("filter.persist.decode_ms", "ms", "lower"),
    ("filter.persist.bytes", "B", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("service.broker.publish_ns_per_event", "ns", "lower"),
    ("service.broker.notifications_per_event", "count", "lower"),
    ("service.broker.allocs_per_event", "count", "lower"),
    ("service.broker.residual_ns_per_event", "ns", "lower"),
    ("service.broker.residual_ns_per_notification", "ns", "lower"),
    ("service.broker.rebuilds", "count", "lower"),
    ("service.notify.drain_ns_per_notification", "ns", "lower"),
    ("service.broker.batch_call_us", "us", "lower"),
    ("service.broker.batch_overhead_ns_per_event", "ns", "lower"),
    ("service.broker.subscribe_us_p50", "us", "lower"),
    ("service.broker.subscribe_us_p99", "us", "lower"),
    ("service.broker.subscribe_max_ms", "ms", "lower"),
    ("service.broker.unsubscribe_us_p50", "us", "lower"),
    ("service.broker.compactions", "count", "lower"),
    ("service.durability.wal_bytes_per_op", "B", "lower"),
    ("service.durability.checkpoint_ms", "ms", "lower"),
    ("service.durability.checkpoint_bytes", "B", "lower"),
    ("service.durability.open_ms", "ms", "lower"),
    ("service.durability.recover_ms", "ms", "lower"),
    ("service.persist.encode_frame_ns", "ns", "lower"),
    ("service.persist.wal_decode_mb_per_s", "MB/s", "higher"),
    ("service.persist.checkpoint_decode_ms", "ms", "lower"),
    ("service.federation.publish_ns_per_event", "ns", "lower"),
    ("service.federation.pump_origin_ns_per_event", "ns", "lower"),
    (
        "service.federation.pump_transit_ns_per_event",
        "ns",
        "lower",
    ),
    ("service.federation.pump_edge_ns_per_event", "ns", "lower"),
    ("service.federation.pumps_per_batch", "count", "lower"),
    ("service.federation.wire_bytes_per_event", "B", "lower"),
    (
        "service.federation.forwarded_rows_per_event",
        "count",
        "lower",
    ),
    ("service.federation.retransmits", "count", "lower"),
    ("driver.warmup_s", "s", "lower"),
    ("driver.publish_p99_us", "us", "lower"),
    ("driver.self_ns_per_event", "ns", "lower"),
    ("driver.traced_events_per_s", "1/s", "higher"),
    ("driver.machine_speed", "ratio", "higher"),
    ("driver.trace_overhead_pct", "%", "lower"),
];

/// The window when `--seconds` is not given: with it `covered_100k`,
/// whose set-up and warm-up take 12 s, stays under 30 s a run.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Picks the declared metrics out of `have`, in declaration order, as
/// the `metrics` object of the result line. Errors name what a run
/// failed to produce.
pub fn result_metrics<'a>(
    declared: impl Iterator<Item = (&'a str, &'a str)>,
    have: &[Metric],
) -> Result<Json, String> {
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let m = have
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if m.unit != unit || !m.value.is_finite() {
            return Err(format!("metric `{name}`: {} {}", m.value, m.unit));
        }
        fields.push((
            name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;

    /// Seconds one run measures, as `BENCHMARK.json` tells the driver.
    const RUN_SECONDS: u64 = 20;
    /// The directory this benchmark lives in, relative to the repository.
    const HOME: &str = "crates/bench/src/bin/e2e";

    /// The root `BENCHMARK.json` as this file's tables imply it; a unit
    /// test holds the committed file to it.
    fn benchmark_json() -> String {
        let manifest = format!("{HOME}/Cargo.toml");
        let command = [
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            &manifest,
            "--",
        ];
        let mut out = String::from("{\n");
        let line = |out: &mut String, key: &str, items: Vec<Json>, last: bool| {
            out.push_str(&format!("  \"{key}\": [\n"));
            for (i, item) in items.iter().enumerate() {
                let comma = if i + 1 < items.len() { "," } else { "" };
                out.push_str(&format!("    {item}{comma}\n"));
            }
            out.push_str(if last { "  ]\n" } else { "  ],\n" });
        };
        out.push_str(&format!(
            "  \"command\": {},\n",
            Json::Arr(command.map(Json::str).to_vec())
        ));
        out.push_str(&format!(
            "  \"paths\": {},\n",
            Json::Arr(vec![Json::str(HOME)])
        ));
        out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
        line(
            &mut out,
            "workloads",
            WORKLOADS
                .iter()
                .filter(|w| w.gated)
                .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                .collect(),
            false,
        );
        line(
            &mut out,
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name)),
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better)),
                        ("bound", Json::Num(m.bound)),
                    ])
                })
                .collect(),
            false,
        );
        line(
            &mut out,
            "per_layer",
            PER_LAYER
                .iter()
                .map(|(name, unit, better)| {
                    Json::obj([
                        ("name", Json::str(*name)),
                        ("unit", Json::str(*unit)),
                        ("better", Json::str(*better)),
                    ])
                })
                .collect(),
            true,
        );
        out.push_str("}\n");
        out
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(unit.len() <= 16 && unit.chars().all(ok), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json must read like the right-hand side"
        );
    }

    #[test]
    fn result_metrics_demand_every_declared_metric() {
        let have = [
            Metric {
                name: "a",
                value: 1.5,
                unit: "ms",
            },
            Metric {
                name: "b",
                value: 2.0,
                unit: "s",
            },
        ];
        let got = result_metrics([("b", "s"), ("a", "ms")].into_iter(), &have).unwrap();
        assert_eq!(
            got.to_string(),
            r#"{"b": {"value": 2, "unit": "s"}, "a": {"value": 1.5, "unit": "ms"}}"#
        );
        assert!(result_metrics([("c", "s")].into_iter(), &have).is_err());
        assert!(result_metrics([("a", "s")].into_iter(), &have).is_err());
    }
}
