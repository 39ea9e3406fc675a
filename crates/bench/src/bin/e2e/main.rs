//! `e2e` — the repository's end-to-end benchmark: six named workloads,
//! end-to-end and per-layer metrics, a traced run. See README.md in
//! this directory for the glossary and how to read the output, and the
//! root BENCHMARK.json for the contract later changes are judged by.
//!
//! ```text
//! e2e                               six workloads, end-to-end metrics
//! e2e --trace                       ... plus traced runs and layer metrics
//! e2e --aa [--trace]                everything twice; fails if the sets disagree
//! e2e --smoke                       1-s windows, 10k instead of 100k profiles
//! e2e --workloads a,b --seed 29     select workloads / the held-out seed
//! e2e --workload W --seed N --seconds S --trace 0|1
//!                                   one run; last stdout line is the result JSON
//! ```

mod alloc;
mod drivers;
mod inputs;
mod json;
mod memfs;
mod net;
mod reference;
mod replay;
mod report;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use inputs::{Inputs, Spec, WORKLOADS};
use json::Json;
use report::{Metric, END_TO_END, PER_LAYER};
use run::{Outcome, RunOpts};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Count metrics that must repeat exactly between two traced runs of
/// the same seed.
const EXACT_COUNTS: [&str; 5] = [
    "filter.snapshot.matched_per_event",
    "filter.snapshot.ops_per_event",
    "service.broker.notifications_per_event",
    "service.federation.wire_bytes_per_event",
    "service.durability.checkpoint_bytes",
];

struct Cli {
    /// `--workload`: one run, result line last.
    single: Option<&'static Spec>,
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    smoke: bool,
}

impl Cli {
    fn opts(&self) -> RunOpts {
        RunOpts {
            seconds: self.seconds,
            smoke: self.smoke,
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e [--workloads a,b] [--seed N] [--seconds S] [--trace] [--aa] [--smoke]\n\
         \x20      e2e --workload W --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        single: None,
        workloads: WORKLOADS.iter().collect(),
        seed: 11,
        seconds: report::DEFAULT_SECONDS,
        trace: false,
        aa: false,
        smoke: false,
    };
    let mut seconds_given = false;
    let find = |name: &str| {
        inputs::spec(name).ok_or_else(|| format!("unknown workload `{name}`\n{}", usage()))
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--workload" => cli.single = Some(find(&value("--workload")?)?),
            "--workloads" => {
                cli.workloads = value("--workloads")?
                    .split(',')
                    .map(find)
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1`.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => cli.aa = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !(cli.seconds.is_finite() && (0.1..=60.0).contains(&cli.seconds)) {
        return Err("--seconds must be between 0.1 and 60".into());
    }
    if cli.smoke && !seconds_given {
        cli.seconds = 1.0;
    }
    Ok(cli)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    // `output` waits for the child; nothing is left running.
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(cli: &Cli) -> Json {
    Json::obj([
        ("nproc", Json::UInt(nproc() as u64)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::UInt(cli.seed)),
        ("seconds", Json::Num(cli.seconds)),
        ("smoke", Json::Bool(cli.smoke)),
    ])
}

/// Where the report and trace files go: beside the build outputs.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("e2e")
}

fn write_file(name: &str, content: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn print_outcome(o: &Outcome) {
    for m in &o.metrics {
        let spread = o
            .spreads
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, s)| format!("  (iqr {:.2} % over {})", 100.0 * s.rel_spread(), s.n))
            .unwrap_or_default();
        println!("{} {} {} {}{spread}", o.workload, m.name, m.value, m.unit);
    }
    for note in &o.notes {
        println!("{} FAILED {note}", o.workload);
    }
}

fn outcome_json(o: &Outcome) -> Json {
    Json::obj([
        ("workload", Json::str(o.workload)),
        (
            "metrics",
            Json::obj(o.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
        (
            "slice_spread",
            Json::obj(o.spreads.iter().map(|(name, s)| {
                (
                    *name,
                    Json::obj([
                        ("median", Json::Num(s.median)),
                        ("iqr", Json::Num(s.iqr)),
                        ("n", Json::UInt(s.n as u64)),
                    ]),
                )
            })),
        ),
        ("attempted", Json::UInt(o.attempted)),
        ("failed", Json::UInt(o.failed)),
        ("notes", Json::Arr(o.notes.iter().map(Json::str).collect())),
        ("facts", Json::obj(o.facts.iter().cloned())),
    ])
}

/// A workload may not ask for more threads than the machine has: two
/// shard workers on one core would measure the scheduler.
fn check_threads(inputs: &Inputs) -> Result<(), String> {
    let shards = inputs.config.shards.max(1);
    if shards > nproc() {
        return Err(format!(
            "{} needs {shards} shard threads but only {} hardware threads are available",
            inputs.spec.name,
            nproc()
        ));
    }
    Ok(())
}

/// One run for the benchmark contract: human-readable lines, then the
/// result object as the last line of stdout.
fn single(cli: &Cli, spec: &'static Spec) -> Result<bool, String> {
    let inputs = Inputs::generate(spec, cli.seed, cli.smoke)?;
    check_threads(&inputs)?;
    let opts = cli.opts();
    let outcome = if cli.trace {
        run::traced(&inputs, &opts)?
    } else {
        run::end_to_end(&inputs, &opts)?
    };
    print_outcome(&outcome);
    if let Some(trace) = &outcome.trace {
        let path = write_file(&format!("trace-{}.json", spec.name), &trace.to_string())?;
        println!("{} trace written to {}", spec.name, path.display());
    }
    let metrics = if cli.trace {
        report::result_metrics(PER_LAYER.iter().map(|m| (m.0, m.1)), &outcome.metrics)?
    } else {
        report::result_metrics(
            END_TO_END.iter().map(|m| (m.name, m.unit)),
            &outcome.metrics,
        )?
    };
    let correct = outcome.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(outcome.attempted.max(1))),
            ("failed", Json::UInt(outcome.failed)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

/// One set of runs: every selected workload untraced and, with
/// `--trace`, traced. Returns the outcomes in workload order.
fn suite(cli: &Cli, order: &[&'static Spec]) -> Result<(Vec<Outcome>, Vec<Outcome>), String> {
    let opts = cli.opts();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for spec in order {
        println!("{} why {}", spec.name, spec.why);
        let inputs = Inputs::generate(spec, cli.seed, cli.smoke)?;
        check_threads(&inputs)?;
        let outcome = run::end_to_end(&inputs, &opts)?;
        print_outcome(&outcome);
        if cli.trace {
            let layers = run::traced(&inputs, &opts)?;
            print_outcome(&layers);
            if let Some(trace) = &layers.trace {
                write_file(&format!("trace-{}.json", spec.name), &trace.to_string())?;
            }
            traced.push(layers);
        }
        plain.push(outcome);
    }
    let rank = |o: &Outcome| WORKLOADS.iter().position(|w| w.name == o.workload);
    plain.sort_by_key(rank);
    traced.sort_by_key(rank);
    Ok((plain, traced))
}

fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Prints the workload-discrimination self-check and the layer shares
/// it rests on; returns whether every rule held.
fn self_check(traced: &[Outcome]) -> bool {
    let mut all = true;
    for o in traced {
        if let Some(shares) = run::layer_shares(&o.metrics) {
            let text: Vec<String> = shares
                .iter()
                .map(|(name, share)| format!("{name} {:.1} %", 100.0 * share))
                .collect();
            println!("{} share-of-publish {}", o.workload, text.join(", "));
        }
        if let Some((ok, why)) = run::discrimination(o.workload, &o.metrics) {
            println!(
                "{} discrimination {} {why}",
                o.workload,
                if ok { "ok" } else { "FAILED" }
            );
            all &= ok;
        }
        if let Some(pct) = value_of(&o.metrics, "driver.trace_overhead_pct") {
            println!(
                "{} trace_overhead_pct {pct:.2} % (target <= 5 %)",
                o.workload
            );
        }
    }
    all
}

/// Compares two sets of runs of the same code: every end-to-end metric
/// of a gated workload must agree within its bound (or its floor, where
/// it has one), every exact count exactly.
fn compare(first: &(Vec<Outcome>, Vec<Outcome>), second: &(Vec<Outcome>, Vec<Outcome>)) -> bool {
    let mut agree = true;
    for (a, b) in first.0.iter().zip(&second.0) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (value_of(&a.metrics, m.name), value_of(&b.metrics, m.name))
            else {
                continue;
            };
            let worse = if m.better == "lower" {
                y.max(x)
            } else {
                y.min(x)
            };
            let better = if m.better == "lower" {
                y.min(x)
            } else {
                y.max(x)
            };
            let diff = (worse - better).abs() / better.abs().max(f64::MIN_POSITIVE);
            let within = diff <= m.bound || (worse - better).abs() <= m.floor;
            let gated = inputs::spec(a.workload).is_some_and(|w| w.gated);
            println!(
                "aa {} {} {x} {y} {} diff {:.2} % bound {:.0} % {}",
                a.workload,
                m.name,
                m.unit,
                100.0 * diff,
                100.0 * m.bound,
                match (within, gated) {
                    (true, _) => "ok",
                    (false, true) => "DISAGREE",
                    (false, false) => "beyond (ungated)",
                }
            );
            agree &= within || !gated;
        }
    }
    for (a, b) in first.1.iter().zip(&second.1) {
        for name in EXACT_COUNTS {
            let (Some(x), Some(y)) = (value_of(&a.metrics, name), value_of(&b.metrics, name))
            else {
                continue;
            };
            let ok = (x - y).abs() <= 1e-9 * x.abs();
            println!(
                "aa {} {name} {x} {y} {}",
                a.workload,
                if ok { "identical" } else { "DIFFER" }
            );
            agree &= ok;
        }
    }
    agree
}

fn full(cli: &Cli) -> Result<bool, String> {
    let first = suite(cli, &cli.workloads)?;
    let mut sets = vec![first];
    if cli.aa {
        let reversed: Vec<&'static Spec> = cli.workloads.iter().rev().copied().collect();
        sets.push(suite(cli, &reversed)?);
    }
    let mut ok = sets
        .iter()
        .all(|(plain, traced)| plain.iter().chain(traced).all(|o| o.failed == 0));
    if cli.trace {
        // The rules are about the full-size populations.
        let held = self_check(&sets[0].1);
        ok &= held || cli.smoke;
    }
    if cli.aa {
        ok &= compare(&sets[0], &sets[1]);
    }
    let report = Json::obj([
        ("benchmark", Json::str("e2e")),
        ("claim", Json::Null),
        ("environment", environment(cli)),
        (
            "sets",
            Json::Arr(
                sets.iter()
                    .map(|(plain, traced)| {
                        Json::obj([
                            (
                                "end_to_end",
                                Json::Arr(plain.iter().map(outcome_json).collect()),
                            ),
                            (
                                "per_layer",
                                Json::Arr(traced.iter().map(outcome_json).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ok", Json::Bool(ok)),
    ]);
    let path = write_file("report.json", &report.to_string())?;
    println!("report written to {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let done = match cli.single {
        Some(spec) => single(&cli, spec),
        None => full(&cli),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("e2e: outputs were wrong or runs disagreed (see FAILED/DISAGREE lines)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
