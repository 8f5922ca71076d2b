//! The repository benchmark: four workloads over the simulator and the
//! real-thread executor, end-to-end metrics untraced, per-layer metrics
//! from a separate traced run. See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_steady --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! prints `"correct": false` and exits with code 1.

mod probe;
mod record;
mod rt;
mod sim;
mod util;

use std::process::ExitCode;
use std::time::{Duration as StdDuration, Instant};

use sfs_core::sched::SchedStats;
use sfs_sim::SimReport;

use probe::{Entry, ProbeReport};
use record::{Check, Metric, Outcome};
use sim::{Mode, SimInput, SimKind};
use util::{lower_quartile, median, Dist};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    SimSteady,
    SimChurn,
    RtInteractive,
    RtHandoff,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimSteady,
        Workload::SimChurn,
        Workload::RtInteractive,
        Workload::RtHandoff,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SimSteady => "sim_steady",
            Workload::SimChurn => "sim_churn",
            Workload::RtInteractive => "rt_interactive",
            Workload::RtHandoff => "rt_handoff",
        }
    }
}

pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or(format!("unknown workload {value:?}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be 1..=120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Workload::SimSteady, false) => sim_e2e(SimKind::Steady, &args),
        (Workload::SimChurn, false) => sim_e2e(SimKind::Churn, &args),
        (Workload::SimSteady, true) => sim_traced(SimKind::Steady, &args),
        (Workload::SimChurn, true) => sim_traced(SimKind::Churn, &args),
        (Workload::RtInteractive, false) => interactive_e2e(&args),
        (Workload::RtInteractive, true) => interactive_traced(&args),
        (Workload::RtHandoff, false) => handoff_e2e(&args),
        (Workload::RtHandoff, true) => handoff_traced(&args),
    };
    let ok = outcome.print(args.workload.name(), &args);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How many set-ups `setup_s` takes the median of, at least.
const SETUP_SAMPLES: usize = 15;
/// Extra wall time spent repeating set-up alone, so that a set-up of a
/// millisecond still yields a steady median.
const SETUP_BUDGET: StdDuration = StdDuration::from_millis(500);

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How the per-window percentiles of an rt run become one number.
#[derive(Clone, Copy)]
enum Across {
    /// rt_handoff: the windows fall into two placement modes, and the
    /// median keeps to the majority one.
    Median,
    /// rt_interactive: a window in which the host stole the VM's CPUs
    /// reads high (p90 267–545 µs against 32–78 µs), and on this host
    /// that hit up to half the windows of a run; an executor change
    /// moves every window.
    LowerQuartile,
}

/// Percentiles of the latency every workload reports. `windows` hold
/// the nanosecond samples of independent measurement windows (uniform
/// subsamples of `observed` in all); p50 and p90 are each window's
/// percentile taken `across` the windows. p99, for the reader, pools
/// every sample.
fn latency_metrics(
    m: &mut Vec<Metric>,
    checks: &mut Vec<Check>,
    windows: &[Vec<f64>],
    across: Across,
    observed: usize,
    what: &str,
) {
    let us = |v: &[f64]| Dist::new(v.iter().map(|x| x / 1e3).collect());
    let dists: Vec<Dist> = windows.iter().map(|w| us(w)).collect();
    for p in [50.0, 90.0] {
        let per_window: Vec<f64> = dists.iter().map(|d| d.pct(p)).collect();
        let v = match across {
            Across::Median => median(&per_window),
            Across::LowerQuartile => lower_quartile(&per_window),
        };
        m.push(
            Metric::new(&format!("latency_us_p{p}"), v, "us")
                .samples(observed)
                .note(what),
        );
    }
    let pooled = us(&windows.concat());
    checks.push(Check::new(
        "p99 has at least ten samples beyond it",
        pooled.beyond(99.0) >= 10,
        format!(
            "{observed} samples, {} kept beyond p99",
            pooled.beyond(99.0)
        ),
    ));
    m.push(
        Metric::extra("latency_us_p99", pooled.pct(99.0), "us")
            .samples(observed)
            .note(what),
    );
}

/// Set-up times until there are at least `SETUP_SAMPLES` of them and
/// `SETUP_BUDGET` has been spent: `setup_s` is their median.
fn setup_samples(mut once: impl FnMut() -> f64) -> Vec<f64> {
    let mut have = Vec::new();
    let t0 = Instant::now();
    while have.len() < SETUP_SAMPLES || (t0.elapsed() < SETUP_BUDGET && have.len() < 2_000) {
        have.push(once());
    }
    have
}

// ---- simulator workloads ------------------------------------------------

/// Output checks shared by every sim run of one input: `fps` are the
/// fingerprints of all of them, `r` the report of one.
fn sim_checks(input: &SimInput, r: &SimReport, fps: &[sim::Fingerprint], checks: &mut Vec<Check>) {
    checks.push(Check::new(
        "sim determinism: same seed, same event/switch/service totals",
        fps.windows(2).all(|w| w[0] == w[1]),
        format!("{} runs compared", fps.len()),
    ));
    let capacity = u64::from(r.cpus) * r.duration.as_nanos();
    let service = sim::total_service_ns(r);
    checks.push(Check::new(
        "service conservation: total service <= cpus x horizon",
        service <= capacity,
        format!("{service} ns of {capacity} ns"),
    ));
    match input.kind {
        SimKind::Steady => checks.push(Check::new(
            "sim_steady keeps every CPU busy",
            service == capacity,
            format!("idle {} ns", capacity - service.min(capacity)),
        )),
        SimKind::Churn => {
            let s = r.summary.expect("sim_churn runs in lean mode");
            checks.push(Check::new(
                "sim_churn drain: every finite job completes",
                s.exited == s.tasks && s.tasks as usize >= input.arrivals(),
                format!("{} of {} jobs exited", s.exited, s.tasks),
            ));
        }
    }
}

fn attempted_failed(r: &SimReport) -> (u64, u64) {
    match &r.summary {
        Some(s) => (s.tasks, s.tasks - s.exited),
        None => (
            r.tasks.len() as u64,
            r.tasks.iter().filter(|t| t.rejected || t.reaped).count() as u64,
        ),
    }
}

fn sim_e2e(kind: SimKind, args: &Args) -> Outcome {
    let input = SimInput::generate(kind, args.seed, sim::Size::full(kind));
    let mode = Mode {
        probe: false,
        record: kind == SimKind::Churn,
    };
    // Set-ups first, on a fresh heap: after the runs' large frees the
    // allocator's state, and with it the page faults a set-up takes,
    // differs from process to process, and the set-up median with it.
    let setups = setup_samples(|| sim::setup_only(&input, mode));
    let budget = StdDuration::from_secs(args.seconds);
    let t0 = Instant::now();
    // Only the first run's report is kept whole, so the peak RSS does
    // not grow with the number of runs that fit in the budget.
    let first = sim::run_once(&input, mode);
    let mut fps = vec![sim::fingerprint(&first.report)];
    let (mut events, mut cpu_s) = (first.report.engine_events, first.run_cpu_s);
    while fps.len() < 2 || t0.elapsed() < budget {
        let r = sim::run_once(&input, mode);
        fps.push(sim::fingerprint(&r.report));
        events += r.report.engine_events;
        cpu_s += r.run_cpu_s;
    }
    let reps = fps.len();

    let mut m = vec![
        Metric::new("events_per_s", events as f64 / cpu_s, "1/s")
            .samples(reps)
            .note(
                "engine events per CPU second of the thread inside Simulator::run, over all runs",
            ),
        Metric::new("setup_s", median(&setups), "s")
            .samples(setups.len())
            .note("CPU time of policy build + Simulator::new + every arrival and stream, median"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB").note("VmHWM of this process"),
    ];
    let mut checks = Vec::new();
    match kind {
        SimKind::Steady => {
            let responses = sim::responses_ms(&first.report);
            latency_metrics(
                &mut m,
                &mut checks,
                &[responses.iter().map(|ms| ms * 1e6).collect()],
                Across::Median,
                responses.len(),
                "interactive response time, simulated, pooled over interactive tasks",
            );
            m.push(
                Metric::extra("share_error", sim::share_error(&first.report), "fraction")
                    .note("proportional_error over the CPU-bound tasks"),
            );
        }
        SimKind::Churn => {
            let sink = first.sink.as_ref().expect("sim_churn records");
            latency_metrics(
                &mut m,
                &mut checks,
                std::slice::from_ref(&sink.turnaround_ns),
                Across::Median,
                sink.turnaround_ns.len(),
                "finite-job turnaround (arrival to exit), simulated, from the trace stream",
            );
            checks.push(Check::new(
                "trace stream saw every job exit",
                sink.turnaround_ns.len() as u64 == first.report.summary.map_or(0, |s| s.exited),
                format!("{} exits in the trace", sink.turnaround_ns.len()),
            ));
        }
    }
    sim_checks(&input, &first.report, &fps, &mut checks);
    let (a, f) = attempted_failed(&first.report);
    if kind == SimKind::Churn {
        m.push(
            Metric::extra("failed_ratio", f as f64 / a as f64, "fraction")
                .note("unfinished finite jobs / arrived"),
        );
    }
    Outcome {
        attempted: a * reps as u64,
        failed: f * reps as u64,
        reps,
        metrics: m,
        checks,
    }
}

/// Per-layer metrics derived from policy counters.
fn stats_metrics(m: &mut Vec<Metric>, s: &SchedStats) {
    let per = |x: u64, d: u64| if d == 0 { 0.0 } else { x as f64 / d as f64 };
    m.push(Metric::new(
        "core.buckets.scans_per_pick",
        per(s.bucket_scans, s.picks),
        "1/pick",
    ));
    m.push(Metric::new(
        "core.buckets.migrations_per_event",
        per(s.bucket_migrations, s.events),
        "1/event",
    ));
    m.push(Metric::new(
        "core.queues.steps_per_event",
        per(s.event_steps, s.events),
        "1/event",
    ));
    m.push(Metric::new(
        "core.readjust.calls_per_event",
        per(s.readjust_calls, s.events),
        "1/event",
    ));
    m.push(Metric::new(
        "core.readjust.weights_clamped",
        s.weights_clamped as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.shard.steals_per_kpick",
        1e3 * per(s.shard_steals, s.picks),
        "1/kpick",
    ));
    m.push(Metric::new(
        "core.shard.rebalances",
        s.shard_rebalances as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.shard.wake_migrations_per_kpick",
        1e3 * per(s.shard_wake_migrations, s.picks),
        "1/kpick",
    ));
}

/// `core.sched.*` from summed probe spans over `run_ns` of wall time.
fn span_metrics(m: &mut Vec<Metric>, probes: &[&ProbeReport], run_ns: f64) {
    for e in Entry::ALL {
        let spans: Vec<_> = probes.iter().map(|p| p.spans[e as usize]).collect();
        let calls: u64 = spans.iter().map(|s| s.calls).sum();
        let ns: f64 = spans.iter().map(probe::Span::ns).sum();
        let name = e.name();
        m.push(Metric::new(
            &format!("core.sched.{name}.calls"),
            calls as f64,
            "count",
        ));
        let mean = if calls == 0 { 0.0 } else { ns / calls as f64 };
        m.push(Metric::new(
            &format!("core.sched.{name}.ns_mean"),
            mean,
            "ns",
        ));
        let busy = if run_ns > 0.0 {
            100.0 * ns / run_ns
        } else {
            0.0
        };
        m.push(Metric::new(
            &format!("core.sched.{name}.busy_pct"),
            busy,
            "%",
        ));
    }
}

fn sim_traced(kind: SimKind, args: &Args) -> Outcome {
    let input = SimInput::generate(kind, args.seed, sim::Size::full(kind));
    let record = kind == SimKind::Churn;
    let traced_mode = Mode {
        probe: true,
        record,
    };
    let plain_mode = Mode {
        probe: false,
        record,
    };
    let budget = StdDuration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut traced, mut plain, mut unrecorded) = (Vec::new(), Vec::new(), Vec::new());
    while traced.is_empty() || t0.elapsed() < budget {
        traced.push(sim::run_once(&input, traced_mode));
        plain.push(sim::run_once(&input, plain_mode));
        if record {
            unrecorded.push(sim::run_once(
                &input,
                Mode {
                    probe: false,
                    record: false,
                },
            ));
        }
    }
    let mut checks = Vec::new();
    let fps: Vec<_> = traced
        .iter()
        .chain(&plain)
        .chain(&unrecorded)
        .map(|r| sim::fingerprint(&r.report))
        .collect();
    sim_checks(&input, &traced[0].report, &fps, &mut checks);
    let probes: Vec<&ProbeReport> = traced.iter().filter_map(|r| r.probe.as_ref()).collect();
    checks.push(Check::new(
        "invariants: check_invariants() on the wrapped policy after each traced run",
        probes.len() == traced.len() && probes.iter().all(|p| p.invariants_ok),
        format!("{} traced runs", traced.len()),
    ));

    let run_ns: f64 = traced.iter().map(|r| r.run_s * 1e9).sum();
    let events: u64 = traced.iter().map(|r| r.report.engine_events).sum();
    let wrapper_ns: f64 = probes.iter().map(|p| p.total_ns()).sum();
    let sink_ns: f64 = traced
        .iter()
        .filter_map(|r| r.sink.as_ref())
        .map(|s| s.sink_ns as f64)
        .sum();
    let first = &traced[0];
    let mut m = Vec::new();
    span_metrics(&mut m, &probes, run_ns);
    let share = if kind == SimKind::Steady {
        sim::share_error(&first.report)
    } else {
        0.0
    };
    m.push(Metric::new("core.sched.share_error", share, "fraction"));
    stats_metrics(&mut m, &first.report.sched_stats);
    m.push(Metric::new(
        "sim.engine.events",
        first.report.engine_events as f64,
        "count",
    ));
    m.push(Metric::new(
        "sim.engine.ctx_switches",
        first.report.ctx_switches as f64,
        "count",
    ));
    let self_ns = run_ns - wrapper_ns - sink_ns;
    m.push(Metric::new(
        "sim.engine.self_ns_per_event",
        self_ns / events as f64,
        "ns",
    ));
    checks.push(Check::new(
        "wrapper + sink + engine self time adds up to Simulator::run time",
        self_ns > 0.0,
        format!(
            "run {:.0} ms = wrapper {:.0} + sink {:.0} + self {:.0}",
            run_ns / 1e6,
            wrapper_ns / 1e6,
            sink_ns / 1e6,
            self_ns / 1e6
        ),
    ));

    let (mut sink_per, mut record_per, mut bytes_per, mut trace_per) = (0.0, 0.0, 0.0, 0.0);
    if let Some(s) = &first.sink {
        let ev = first.report.engine_events as f64;
        sink_per = sink_ns / events as f64;
        bytes_per = s.bytes as f64 / s.events.max(1) as f64;
        trace_per = s.events as f64 / ev;
        // Recorder cost: untraced run with the recorder on, minus the
        // same run with it off, minus the sink's share.
        let on = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let off = median(&unrecorded.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let plain_sink = median(
            &plain
                .iter()
                .filter_map(|r| r.sink.as_ref())
                .map(|s| s.sink_ns as f64)
                .collect::<Vec<_>>(),
        );
        record_per = ((on - off) * 1e9 - plain_sink) / ev;
    }
    m.push(Metric::new("trace.sink_ns_per_event", sink_per, "ns"));
    m.push(Metric::new("trace.record_ns_per_event", record_per, "ns"));
    m.push(Metric::new("trace.bytes_per_event", bytes_per, "B"));
    m.push(Metric::new(
        "trace.events_per_engine_event",
        trace_per,
        "1/event",
    ));
    rt_layer_zeros(&mut m);
    let traced_s = median(&traced.iter().map(|r| r.run_cpu_s).collect::<Vec<_>>());
    let plain_s = median(&plain.iter().map(|r| r.run_cpu_s).collect::<Vec<_>>());
    m.push(Metric::new("bench.generator_lag_us_p99", 0.0, "us"));
    m.push(Metric::new(
        "bench.wrapper_overhead_pct",
        100.0 * (traced_s / plain_s - 1.0),
        "%",
    ));
    let (a, f) = attempted_failed(&first.report);
    Outcome {
        attempted: a,
        failed: f,
        reps: traced.len(),
        metrics: m,
        checks,
    }
}

/// The rt per-layer metrics, zero on workloads without real threads.
fn rt_layer_zeros(m: &mut Vec<Metric>) {
    for (name, unit) in [
        ("rt.wake_call_ns_p50", "ns"),
        ("rt.wake_call_ns_p99", "ns"),
        ("rt.wake_to_pick_us_p50", "us"),
        ("rt.wake_to_pick_us_p99", "us"),
        ("rt.pick_to_resume_us_p50", "us"),
        ("rt.pick_to_resume_us_p99", "us"),
        ("rt.sched_ns_per_decision", "ns"),
        ("rt.switches_per_s", "1/s"),
    ] {
        m.push(Metric::new(name, 0.0, unit));
    }
}

/// Sets a metric already pushed by [`rt_layer_zeros`].
fn set(m: &mut [Metric], name: &str, value: f64) {
    let slot = m
        .iter_mut()
        .find(|x| x.name == name)
        .expect("metric listed");
    slot.value = value;
}

fn sim_layer_zeros(m: &mut Vec<Metric>) {
    for (name, unit) in [
        ("sim.engine.events", "count"),
        ("sim.engine.ctx_switches", "count"),
        ("sim.engine.self_ns_per_event", "ns"),
        ("trace.sink_ns_per_event", "ns"),
        ("trace.record_ns_per_event", "ns"),
        ("trace.bytes_per_event", "B"),
        ("trace.events_per_engine_event", "1/event"),
    ] {
        m.push(Metric::new(name, 0.0, unit));
    }
}

// ---- real-thread workloads ----------------------------------------------

/// Independent measurement windows (each on a fresh executor) per
/// untraced rt run; their medians damp per-executor thread placement.
const RT_WINDOWS: u32 = 20;

fn rt_window(args: &Args) -> StdDuration {
    StdDuration::from_secs(args.seconds) / RT_WINDOWS
}

fn interactive_e2e(args: &Args) -> Outcome {
    let setups = setup_samples(rt::interactive_setup_s);
    let runs: Vec<rt::InteractiveRun> = (0..u64::from(RT_WINDOWS))
        .map(|k| {
            rt::interactive_run(
                args.seed.wrapping_mul(31).wrapping_add(k),
                rt_window(args),
                false,
            )
        })
        .collect();
    let med =
        |f: &dyn Fn(&rt::InteractiveRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let picks: u64 = runs.iter().map(|r| r.picks).sum();
    let wall_s: f64 = runs.iter().map(|r| r.window_s).sum();
    let issued: u64 = runs.iter().map(|r| r.issued).sum();
    let resumed: u64 = runs.iter().map(|r| r.resumed).sum();
    let mut m = vec![
        Metric::new("events_per_s", picks as f64 / wall_s, "1/s")
            .samples(picks as usize)
            .note("scheduling decisions (policy picks) per wall second, over all windows"),
        Metric::new("setup_s", median(&setups), "s")
            .samples(setups.len())
            .note("CPU time of Executor::new + spawning every task, median"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB").note("VmHWM of this process"),
    ];
    let mut checks = Vec::new();
    let latency: Vec<Vec<f64>> = runs.iter().map(|r| r.latency_ns.clone()).collect();
    latency_metrics(
        &mut m,
        &mut checks,
        &latency,
        Across::LowerQuartile,
        latency.iter().map(Vec::len).sum(),
        "start of the generator's wake_task call to the woken body running",
    );
    m.push(
        Metric::extra("share_error", med(&|r| r.share_error), "fraction")
            .note("proportional_error over the four CPU-bound tasks, median over windows"),
    );
    m.push(
        Metric::extra(
            "generator_lag_us_p99",
            med(&|r| Dist::new(r.lag_ns.clone()).pct(99.0) / 1e3),
            "us",
        )
        .samples(issued as usize)
        .note("how late the open-loop generator issued its wakes, median over windows"),
    );
    for run in &runs {
        interactive_checks(run, &mut checks);
    }
    Outcome {
        attempted: issued,
        failed: issued - resumed.min(issued),
        reps: runs.len(),
        metrics: m,
        checks,
    }
}

fn interactive_checks(run: &rt::InteractiveRun, checks: &mut Vec<Check>) {
    checks.push(Check::new(
        "rt health: no task reaped, no invariant violation",
        run.healthy,
        String::new(),
    ));
    checks.push(Check::new(
        "every issued wake resumed its task",
        run.resumed == run.issued,
        format!("{} issued, {} resumed", run.issued, run.resumed),
    ));
}

fn interactive_traced(args: &Args) -> Outcome {
    let half = StdDuration::from_secs(args.seconds).max(StdDuration::from_secs(2)) / 2;
    let plain = rt::interactive_run(args.seed, half, false);
    let run = rt::interactive_run(args.seed, half, true);
    let mut checks = Vec::new();
    interactive_checks(&plain, &mut checks);
    interactive_checks(&run, &mut checks);
    let probe = run.probe.as_ref().expect("traced run has a probe");
    checks.push(Check::new(
        "invariants: check_invariants() on the wrapped policy after the traced run",
        probe.invariants_ok,
        String::new(),
    ));
    let mut m = Vec::new();
    span_metrics(&mut m, &[probe], run.window_s * 1e9);
    m.push(Metric::new(
        "core.sched.share_error",
        run.share_error,
        "fraction",
    ));
    stats_metrics(&mut m, &run.stats);
    sim_layer_zeros(&mut m);
    rt_layer_zeros(&mut m);
    let us = |v: &[f64]| Dist::new(v.iter().map(|x| x / 1e3).collect());
    let calls = Dist::new(run.wake_call_ns.clone());
    set(&mut m, "rt.wake_call_ns_p50", calls.pct(50.0));
    set(&mut m, "rt.wake_call_ns_p99", calls.pct(99.0));
    let w2p = us(&probe.wake_to_pick_ns);
    set(&mut m, "rt.wake_to_pick_us_p50", w2p.pct(50.0));
    set(&mut m, "rt.wake_to_pick_us_p99", w2p.pct(99.0));
    let p2r = us(&run.pick_to_resume_ns);
    set(&mut m, "rt.pick_to_resume_us_p50", p2r.pct(50.0));
    set(&mut m, "rt.pick_to_resume_us_p99", p2r.pct(99.0));
    let picks = probe.spans[Entry::PickNext as usize].calls.max(1);
    set(
        &mut m,
        "rt.sched_ns_per_decision",
        probe.total_ns() / picks as f64,
    );
    set(
        &mut m,
        "rt.switches_per_s",
        run.switches as f64 / run.window_s,
    );
    m.push(Metric::new(
        "bench.generator_lag_us_p99",
        us(&run.lag_ns).pct(99.0),
        "us",
    ));
    let p50 = |r: &rt::InteractiveRun| Dist::new(r.latency_ns.clone()).pct(50.0);
    m.push(Metric::new(
        "bench.wrapper_overhead_pct",
        100.0 * (p50(&run) / p50(&plain) - 1.0),
        "%",
    ));
    Outcome {
        attempted: run.issued,
        failed: run.issued - run.resumed.min(run.issued),
        reps: 1,
        metrics: m,
        checks,
    }
}

fn handoff_checks(run: &rt::HandoffRun, checks: &mut Vec<Check>) {
    checks.push(Check::new(
        "rt health: no task reaped, no invariant violation",
        run.healthy,
        String::new(),
    ));
    checks.push(Check::new(
        "the rings conserve their two tokens",
        run.tokens_conserved,
        String::new(),
    ));
}

fn handoff_e2e(args: &Args) -> Outcome {
    let setups = setup_samples(rt::handoff_setup_s);
    let runs: Vec<rt::HandoffRun> = (0..RT_WINDOWS)
        .map(|_| rt::handoff_run(rt_window(args), false))
        .collect();
    let hops: u64 = runs.iter().map(|r| r.hops).sum();
    let picks: u64 = runs.iter().map(|r| r.picks).sum();
    let cpu_s: f64 = runs.iter().map(|r| r.cpu_s).sum();
    let wall_s: f64 = runs.iter().map(|r| r.window_s).sum();
    let mut m = vec![
        Metric::new("events_per_s", picks as f64 / cpu_s, "1/s")
            .samples(picks as usize)
            .note("scheduling decisions (policy picks, one per hop) per process CPU second, over all windows"),
        Metric::new("setup_s", median(&setups), "s")
            .samples(setups.len())
            .note("CPU time of Executor::from_spec + spawning every task, median"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB").note("VmHWM of this process"),
    ];
    let mut checks = Vec::new();
    let latency: Vec<Vec<f64>> = runs.iter().map(|r| r.hop_ns.clone()).collect();
    latency_metrics(
        &mut m,
        &mut checks,
        &latency,
        Across::Median,
        hops as usize,
        "token set to the next ring task running",
    );
    m.push(Metric::extra("hops_per_s", hops as f64 / wall_s, "1/s").samples(hops as usize));
    for run in &runs {
        handoff_checks(run, &mut checks);
    }
    let lost = runs.iter().filter(|r| !r.tokens_conserved).count() as u64;
    Outcome {
        attempted: hops,
        failed: lost,
        reps: runs.len(),
        metrics: m,
        checks,
    }
}

fn handoff_traced(args: &Args) -> Outcome {
    let half = StdDuration::from_secs(args.seconds).max(StdDuration::from_secs(2)) / 2;
    let plain = rt::handoff_run(half, false);
    let run = rt::handoff_run(half, true);
    let mut checks = Vec::new();
    handoff_checks(&plain, &mut checks);
    handoff_checks(&run, &mut checks);
    let mut m = Vec::new();
    // from_spec builds its shards internally, so there is no wrapper.
    span_metrics(&mut m, &[], 0.0);
    m.push(Metric::new("core.sched.share_error", 0.0, "fraction"));
    stats_metrics(&mut m, &run.stats);
    sim_layer_zeros(&mut m);
    rt_layer_zeros(&mut m);
    let calls = Dist::new(run.wake_call_ns.clone());
    set(&mut m, "rt.wake_call_ns_p50", calls.pct(50.0));
    set(&mut m, "rt.wake_call_ns_p99", calls.pct(99.0));
    set(
        &mut m,
        "rt.switches_per_s",
        run.switches as f64 / run.window_s,
    );
    m.push(Metric::new("bench.generator_lag_us_p99", 0.0, "us"));
    let rate = |r: &rt::HandoffRun| r.picks as f64 / r.cpu_s;
    m.push(Metric::new(
        "bench.wrapper_overhead_pct",
        100.0 * (rate(&plain) / rate(&run) - 1.0),
        "%",
    ));
    Outcome {
        attempted: run.hops,
        failed: u64::from(!run.tokens_conserved),
        reps: 1,
        metrics: m,
        checks,
    }
}
