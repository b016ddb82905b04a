//! `astra-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs whole rounds (one pass over the workload's ops, in an order the seed
//! permutes) until `--seconds` have passed, and prints a metric table and,
//! as the last line, one JSON object: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of a traced run plus the
//! tracing overhead against an untraced run of the same length.

use astra_des::rng::SplitMix64;
use astra_perfbench::alloc::{self, CountingAlloc};
use astra_perfbench::probe::{NetCounters, EVENT_KINDS};
use astra_perfbench::{
    execute, pinned, program_setup_ns, reference, set_up, OpSpec, Outcome, SetupTimes, Workload,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Rounds measured even when `--seconds` runs out first, so every median
/// has at least this many samples.
const MIN_ROUNDS: usize = 3;

/// Set-up-only passes over the ops before each round, at least this many
/// and for at least [`SETUP_MIN_TIME`]; `setup_s` is the median of all of
/// them. A set-up takes well under 1% of its op, so the rounds' own
/// set-ups would give too few samples, and spreading the passes over the
/// run keeps a burst of host load from hitting all of them. Untraced
/// passes time the program's own set-up path, traced ones the stages of
/// [`set_up`].
const SETUP_PASSES: usize = 9;

/// See [`SETUP_PASSES`].
const SETUP_MIN_TIME: Duration = Duration::from_millis(40);

/// Reference runs timed before the first round and after each; their
/// median is the host's speed at that point, as one run alone is noisy.
const REF_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| {
        get(name)?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: get("--workload")?.parse()?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

/// Totals of one pass over the ops.
#[derive(Debug, Default)]
struct Round {
    op_ns: u64,
    /// Host ns of one reference run: the mean of the medians of the
    /// [`REF_RUNS`] just before and just after the round.
    ref_ns: f64,
    plan_ns: u64,
    /// Traversals of the ops that completed correctly: the work credited.
    /// `net.traversals` counts every op, aborted ones up to their abort.
    traversals_done: u64,
    events: u64,
    allocs: u64,
    /// Peak live heap bytes one op added on top of what was live before
    /// its set-up.
    peak_bytes: usize,
    attempted: u64,
    failed: u64,
    wrong: u64,
    /// Failed ops that have a pin, i.e. completed when the benchmark was
    /// defined; also counted in `failed`.
    regressed: u64,
    net: NetCounters,
    /// Host ns of each untraced set-up pass before the round.
    setup_ns: Vec<u64>,
    /// Stage times of each traced set-up pass before the round.
    stages: Vec<SetupTimes>,
}

impl Round {
    fn traversals_per_s(&self) -> f64 {
        self.traversals_done as f64 / secs(self.op_ns as f64)
    }

    /// Traversals credited per reference run's worth of host time.
    fn traversals_per_ref(&self) -> f64 {
        self.traversals_per_s() * secs(self.ref_ns)
    }

    /// Each untraced set-up pass before the round, in seconds at the
    /// reference's nominal speed.
    fn setup_nominal_s(&self) -> impl Iterator<Item = f64> + '_ {
        let scale = reference::NOMINAL_S / self.ref_ns;
        self.setup_ns.iter().map(move |&ns| ns as f64 * scale)
    }
}

/// Median host ns of [`REF_RUNS`] [`reference::run`]s.
fn time_reference() -> f64 {
    let runs = (0..REF_RUNS)
        .map(|_| {
            let t = Instant::now();
            reference::run();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(runs)
}

fn secs(ns: f64) -> f64 {
    ns / 1e9
}

fn add_counters(sum: &mut NetCounters, c: &NetCounters) {
    sum.sends += c.sends;
    for (s, h) in sum.handles.iter_mut().zip(c.handles) {
        *s += h;
    }
    sum.span_ns += c.span_ns;
    sum.pushes += c.pushes;
    sum.push_ns += c.push_ns;
    sum.allocs += c.allocs;
    sum.traversals += c.traversals;
}

/// Runs every op once. Failures are counted, and the first message of
/// each failing op is kept in `failures`.
fn round(
    ops: &[OpSpec],
    traced: bool,
    failures: &mut BTreeMap<String, String>,
) -> Result<Round, String> {
    let mut r = Round::default();
    for op in ops {
        let live_before = alloc::reset_peak();
        let prepared = set_up(op, traced).map_err(|e| format!("{}: set-up: {e}", op.label))?;
        let run = execute(op, prepared, traced);
        r.peak_bytes = r.peak_bytes.max(alloc::peak_bytes() - live_before);
        r.op_ns += run.op_ns;
        r.plan_ns += run.plan_ns;
        r.events += run.events;
        r.allocs += run.allocs;
        r.attempted += 1;
        add_counters(&mut r.net, &run.net);
        match &run.outcome {
            Outcome::Correct(_) => r.traversals_done += run.net.traversals,
            Outcome::Wrong { got, want } => {
                r.failed += 1;
                r.wrong += 1;
                failures
                    .entry(op.label.clone())
                    .or_insert_with(|| format!("wrong output: got {got:?}, pinned {want:?}"));
            }
            Outcome::Failed(e) => {
                r.failed += 1;
                let pinned = pinned::output(&op.label).is_some();
                r.regressed += u64::from(pinned);
                failures.entry(op.label.clone()).or_insert_with(|| {
                    if pinned {
                        format!("{e} (it completed when pinned)")
                    } else {
                        e.clone()
                    }
                });
            }
        }
    }
    Ok(r)
}

/// Host ns of the program's own set-up of every op, once.
fn setup_pass(ops: &[OpSpec]) -> Result<u64, String> {
    let mut ns = 0;
    for op in ops {
        ns += program_setup_ns(op).map_err(|e| format!("{}: set-up: {e}", op.label))?;
    }
    Ok(ns)
}

/// Set-up stage times of one traced pass over the ops; the simulations
/// are dropped unrun.
fn stages_pass(ops: &[OpSpec]) -> Result<SetupTimes, String> {
    let mut pass = SetupTimes::default();
    for op in ops {
        let prepared = set_up(op, true).map_err(|e| format!("{}: set-up: {e}", op.label))?;
        pass.add(&prepared.setup);
    }
    Ok(pass)
}

/// Whole rounds, each after its set-up passes, until `budget` has passed
/// and at least [`MIN_ROUNDS`] ran, with reference runs timed before the
/// first and after each.
fn measure(
    ops: &[OpSpec],
    traced: bool,
    budget: Duration,
    failures: &mut BTreeMap<String, String>,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut ref_before = time_reference();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let (mut setup_ns, mut stages) = (Vec::new(), Vec::new());
        let setup_start = Instant::now();
        while setup_ns.len() + stages.len() < SETUP_PASSES || setup_start.elapsed() < SETUP_MIN_TIME
        {
            if traced {
                stages.push(stages_pass(ops)?);
            } else {
                setup_ns.push(setup_pass(ops)?);
            }
        }
        let mut r = round(ops, traced, failures)?;
        r.setup_ns = setup_ns;
        r.stages = stages;
        let ref_after = time_reference();
        r.ref_ns = (ref_before + ref_after) / 2.0;
        ref_before = ref_after;
        eprintln!(
            "round {}: {:.4} s of ops, reference run {:.4} s",
            rounds.len() + 1,
            secs(r.op_ns as f64),
            secs(r.ref_ns)
        );
        rounds.push(r);
    }
    Ok(rounds)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(rounds: &[Round]) -> Metrics {
    let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    vec![
        ("traversals_per_ref".into(), tput(rounds), "1/ref"),
        (
            "setup_s".into(),
            median(rounds.iter().flat_map(Round::setup_nominal_s).collect()),
            "s",
        ),
        (
            "peak_heap_mb".into(),
            rounds.iter().map(|r| r.peak_bytes).max().unwrap_or(0) as f64 / 1e6,
            "MB",
        ),
        (
            "allocs_per_traversal".into(),
            ratio(sum(|r| r.allocs), sum(|r| r.traversals_done)),
            "count",
        ),
        (
            "completed_share".into(),
            1.0 - ratio(sum(|r| r.failed), sum(|r| r.attempted)),
            "ratio",
        ),
    ]
}

/// Median over rounds of traversals credited per reference run.
fn tput(rounds: &[Round]) -> f64 {
    median(rounds.iter().map(Round::traversals_per_ref).collect())
}

/// Per-layer metrics of a traced run, as means per round.
fn per_layer(traced: &[Round], untraced: &[Round]) -> Metrics {
    let n = traced.len() as f64;
    let sum = |f: &dyn Fn(&Round) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let per_round = |f: &dyn Fn(&Round) -> u64| sum(f) / n;
    let op_ns = sum(&|r| r.op_ns);
    let net_span = sum(&|r| r.net.span_ns);
    let push_ns = sum(&|r| r.net.push_ns);
    let net_self = net_span - push_ns;
    let plan_ns = sum(&|r| r.plan_ns);
    let rest = op_ns - net_span;
    let system_self = rest - plan_ns;
    let events = sum(&|r| r.events);
    let handles = sum(&|r| r.net.handles.iter().sum());
    let allocs = sum(&|r| r.allocs);
    let net_allocs = sum(&|r| r.net.allocs);
    let pushes = sum(&|r| r.net.pushes);
    let link_ready = sum(&|r| r.net.handles[1]);
    let stages: Vec<&SetupTimes> = traced.iter().flat_map(|r| &r.stages).collect();
    let stage =
        |f: fn(&SetupTimes) -> u64| median(stages.iter().map(|s| secs(f(s) as f64)).collect());

    let mut m: Metrics = vec![
        ("network.self_s".into(), secs(net_self) / n, "s"),
        (
            "network.ns_per_handle".into(),
            ratio(net_self, handles),
            "ns",
        ),
        ("network.share".into(), ratio(net_self, op_ns), "ratio"),
    ];
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        m.push((
            format!("network.handle.{kind}"),
            per_round(&|r| r.net.handles[i]),
            "count",
        ));
    }
    m.extend([
        ("network.sends".into(), per_round(&|r| r.net.sends), "count"),
        ("network.allocs".into(), net_allocs / n, "count"),
        (
            "network.flits_per_link_ready".into(),
            ratio(sum(&|r| r.net.traversals), link_ready),
            "ratio",
        ),
        ("system.self_s".into(), secs(system_self) / n, "s"),
        (
            "system.ns_per_step".into(),
            ratio(system_self, events),
            "ns",
        ),
        ("system.share".into(), ratio(system_self, op_ns), "ratio"),
        ("system.allocs".into(), (allocs - net_allocs) / n, "count"),
        ("rest.self_s".into(), secs(rest) / n, "s"),
        ("des.events".into(), events / n, "count"),
        (
            "des.events_per_traversal".into(),
            ratio(events, sum(&|r| r.net.traversals)),
            "ratio",
        ),
        ("des.net_pushes".into(), pushes / n, "count"),
        ("des.push_ns".into(), ratio(push_ns, pushes), "ns"),
        ("collectives.plan_s".into(), secs(plan_ns) / n, "s"),
        ("setup.topology_s".into(), stage(|s| s.topology_ns), "s"),
        ("setup.backend_s".into(), stage(|s| s.backend_ns), "s"),
        ("setup.system_s".into(), stage(|s| s.system_ns), "s"),
        ("setup.compute_s".into(), stage(|s| s.compute_ns), "s"),
        ("setup.runner_s".into(), stage(|s| s.runner_ns), "s"),
        ("alloc.count".into(), allocs / n, "count"),
        ("alloc.per_event".into(), ratio(allocs, events), "ratio"),
        (
            "alloc.peak_bytes".into(),
            traced.iter().map(|r| r.peak_bytes).max().unwrap_or(0) as f64,
            "bytes",
        ),
        ("ops.failed".into(), per_round(&|r| r.failed), "count"),
        ("ops.wrong_output".into(), per_round(&|r| r.wrong), "count"),
        (
            "trace.overhead".into(),
            1.0 - ratio(tput(traced), tput(untraced)),
            "ratio",
        ),
        (
            "host.traversals_per_s".into(),
            median(untraced.iter().map(Round::traversals_per_s).collect()),
            "1/s",
        ),
        (
            "host.reference_s".into(),
            median(untraced.iter().map(|r| secs(r.ref_ns)).collect()),
            "s",
        ),
    ]);
    m
}

/// A JSON number; the metrics are finite by construction, but a
/// non-finite value must not produce invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut ops = args.workload.ops();
    // The seed only permutes op order (Fisher–Yates).
    let mut rng = SplitMix64::new(args.seed);
    for i in (1..ops.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        ops.swap(i, j);
    }
    let budget = Duration::from_secs(args.seconds);
    let mut failures = BTreeMap::new();
    let (all, metrics) = if args.trace {
        let untraced = measure(&ops, false, budget / 2, &mut failures)?;
        let traced = measure(&ops, true, budget / 2, &mut failures)?;
        let metrics = per_layer(&traced, &untraced);
        let mut all = untraced;
        all.extend(traced);
        (all, metrics)
    } else {
        let rounds = measure(&ops, false, budget, &mut failures)?;
        let metrics = end_to_end(&rounds);
        (rounds, metrics)
    };

    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let wrong: u64 = all.iter().map(|r| r.wrong).sum();
    let regressed: u64 = all.iter().map(|r| r.regressed).sum();
    let first = &all[0];
    println!(
        "workload {} seed {}: {} rounds of {} ops; per round {} events, {} traversals ({} credited)",
        args.workload.name(),
        args.seed,
        all.len(),
        first.attempted,
        first.events,
        first.net.traversals,
        first.traversals_done
    );
    for (label, msg) in &failures {
        println!("failed: {label}: {msg}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        wrong == 0 && regressed == 0,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("astra-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
