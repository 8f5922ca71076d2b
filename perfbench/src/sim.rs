//! The two simulator workloads: input generation from the seed, one
//! timed set-up + run, and the output fingerprint the checks compare.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sfs_core::policy::PolicySpec;
use sfs_core::sched::SchedStats;
use sfs_core::task::{weight, Weight};
use sfs_core::time::{Duration, Time};
use sfs_metrics::{proportional_error, Summary};
use sfs_sim::{SimConfig, SimReport, Simulator};
use sfs_trace::{PerfettoStream, TraceMeta, TraceRecorder};
use sfs_workloads::BehaviorSpec;

use crate::probe::{ByteCounter, Probe, ProbeReport, SinkTally, TallySink};
use crate::util::{thread_cpu_ns, Rng};

pub const CPUS: u32 = 16;

/// Weight classes of the long-lived CPU-bound tasks in `sim_steady`.
const STEADY_CLASSES: [u64; 12] = [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24];
/// Weight classes the `sim_churn` arrival waves rotate through.
const CHURN_CLASSES: [u64; 5] = [1, 2, 4, 8, 16];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimKind {
    Steady,
    Churn,
}

/// How big a generated input is; the benchmark uses [`Size::full`],
/// tests a small one.
#[derive(Clone, Copy)]
pub struct Size {
    /// sim_steady: long-lived tasks. sim_churn: finite jobs.
    pub tasks: usize,
    /// sim_steady: simulated horizon.
    pub horizon: Duration,
}

impl Size {
    pub fn full(kind: SimKind) -> Size {
        match kind {
            SimKind::Steady => Size {
                tasks: 10_000,
                horizon: Duration::from_secs(120),
            },
            SimKind::Churn => Size {
                tasks: 200_000,
                horizon: Duration::ZERO,
            },
        }
    }
}

struct Arrival {
    at: Time,
    name: &'static str,
    weight: Weight,
    spec: BehaviorSpec,
}

struct Stream {
    weight: Weight,
    spec: BehaviorSpec,
    gap: Duration,
    until: Time,
}

/// A generated workload: every call the simulator will receive.
pub struct SimInput {
    pub kind: SimKind,
    policy: PolicySpec,
    pub cfg: SimConfig,
    arrivals: Vec<Arrival>,
    streams: Vec<Stream>,
}

impl SimInput {
    pub fn generate(kind: SimKind, seed: u64, size: Size) -> SimInput {
        let mut rng = Rng::new(seed);
        match kind {
            SimKind::Steady => steady(&mut rng, seed, size),
            SimKind::Churn => churn(&mut rng, seed, size),
        }
    }

    /// Scheduled arrivals (stream jobs come on top).
    pub fn arrivals(&self) -> usize {
        self.arrivals.len()
    }
}

/// `sim_steady`: ~10⁴ long-lived tasks arriving once — 90 % CPU-bound
/// across 12 weight classes plus 3 infeasible heavy weights (so the
/// §2.1 clamp is live) at t = 0, and 10 % interactive think/burst tasks
/// spread over the first 5 % of the horizon. (Arriving at t = 0 too,
/// they would wait out one full round of 10⁴ tasks for their first
/// burst, and that start-up artefact would set the response p99.)
fn steady(rng: &mut Rng, seed: u64, size: Size) -> SimInput {
    let n = size.tasks;
    let interactive = n / 10;
    // A fixed count: each heavy weight is a bucket of its own, so the
    // count would otherwise move the per-pick scan cost with the seed.
    let heavy = 3;
    let stagger = size.horizon.as_nanos() / 20;
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(n);
    for i in 0..n {
        let mut at = Time::ZERO;
        let (name, w, spec) = if i < heavy {
            ("heavy", rng.range(20_000, 100_000), BehaviorSpec::Inf)
        } else if i < heavy + interactive {
            at = Time(1 + rng.below(stagger));
            let spec = BehaviorSpec::Interact {
                think: Duration::from_millis(rng.range(300, 1_500)),
                burst: Duration::from_micros(rng.range(100, 500)),
            };
            // Demand within entitlement, as for the paper's interactive
            // applications: a weight-1 task's share of 10⁴ hogs is far
            // below even a short burst per second.
            ("int", rng.pick(&[8, 16, 32]), spec)
        } else {
            ("hog", rng.pick(&STEADY_CLASSES), BehaviorSpec::Inf)
        };
        arrivals.push(Arrival {
            at,
            name,
            weight: weight(w),
            spec,
        });
    }
    // Mix the classes across task ids.
    for i in (1..arrivals.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        arrivals.swap(i, j);
    }
    let horizon = size.horizon;
    SimInput {
        kind: SimKind::Steady,
        policy: PolicySpec::sfs().with_quantum(Duration::from_millis(10)),
        cfg: SimConfig {
            cpus: CPUS,
            duration: horizon,
            ctx_switch: Duration::from_micros(5),
            sample_every: horizon / 16,
            track_gms: false,
            seed,
            lean: false,
        },
        arrivals,
        streams: Vec::new(),
    }
}

/// `sim_churn`: short finite jobs in same-tick waves with rotating
/// weight classes, alongside sequential job streams, on a 4-shard SFS.
/// The horizon is sized from the generated demand so every job drains.
fn churn(rng: &mut Rng, seed: u64, size: Size) -> SimInput {
    let jobs = size.tasks;
    let waves = (jobs / 500).max(4);
    let lens: Vec<u64> = (0..jobs).map(|_| rng.range(100, 1_000)).collect();
    let work_us: u64 = lens.iter().sum();
    // Waves offer ~70 % of the machine over the arrival window; the
    // streams and the tail after it leave room for the backlog to drain.
    let window_us = work_us * 10 / (7 * CPUS as u64);
    let horizon = Duration::from_micros(window_us * 5 / 3);
    // Evenly spaced waves with up to a quarter gap of jitter either
    // way: uniform random times would cluster differently per seed, and
    // the backlog (turnaround, memory) with them.
    let gap = window_us / waves as u64;
    let times: Vec<u64> = (0..waves as u64)
        .map(|w| w * gap + gap / 4 + rng.below(gap / 2 + 1))
        .collect();
    let mut arrivals = Vec::with_capacity(jobs);
    let mut next = 0usize;
    for (w, &t) in times.iter().enumerate() {
        let end = jobs * (w + 1) / waves;
        let class = CHURN_CLASSES[w % CHURN_CLASSES.len()];
        while next < end {
            arrivals.push(Arrival {
                at: Time(t * 1_000),
                name: "job",
                weight: weight(class),
                spec: BehaviorSpec::Finite(Duration::from_micros(lens[next])),
            });
            next += 1;
        }
    }
    let until = Time(horizon.as_nanos() * 4 / 5);
    // The streams' load is the same for every seed; only their job
    // lengths and gaps are drawn (±20 % around 2.5 ms and 1 ms).
    let streams = (0..8)
        .map(|i| Stream {
            weight: weight([1, 2, 4][i % 3]),
            spec: BehaviorSpec::Finite(Duration::from_micros(rng.range(2_000, 3_000))),
            gap: Duration::from_micros(rng.range(800, 1_200)),
            until,
        })
        .collect();
    SimInput {
        kind: SimKind::Churn,
        policy: "sfs:shards=4".parse().expect("valid policy spec"),
        cfg: SimConfig {
            cpus: CPUS,
            duration: horizon,
            ctx_switch: Duration::from_micros(5),
            sample_every: horizon / 16,
            track_gms: false,
            seed,
            lean: true,
        },
        arrivals,
        streams,
    }
}

/// The benchmark's instrumentation for one run.
#[derive(Clone, Copy)]
pub struct Mode {
    /// Wrap the policy in a [`Probe`].
    pub probe: bool,
    /// Stream a Perfetto recording (sim_churn's recorder); off only for
    /// the recorder-cost comparison run.
    pub record: bool,
}

pub struct SimRun {
    /// Wall seconds inside `Simulator::run`.
    pub run_s: f64,
    /// Thread CPU seconds inside `Simulator::run`.
    pub run_cpu_s: f64,
    pub report: SimReport,
    pub probe: Option<ProbeReport>,
    pub sink: Option<SinkTally>,
}

struct Prepared {
    sim: Simulator,
    rec: Option<TraceRecorder>,
    probe: Option<Arc<Mutex<Option<ProbeReport>>>>,
    sink: Option<Arc<Mutex<SinkTally>>>,
}

/// Everything `setup_s` times: policy build, `Simulator::new`, and
/// scheduling every arrival and stream.
fn prepare(input: &SimInput, mode: Mode) -> Prepared {
    let mut sched = input.policy.build(CPUS);
    let mut probe = None;
    if mode.probe {
        let (wrapped, out) = Probe::wrap(sched, None);
        sched = wrapped;
        probe = Some(out);
    }
    let mut sim = Simulator::new(input.cfg.clone(), sched);
    let mut rec = None;
    let mut sink = None;
    if mode.record {
        let meta = TraceMeta {
            substrate: "sim".into(),
            scenario: "sim_churn".into(),
            policy: input.policy.to_string(),
            cpus: CPUS,
            tenants: Vec::new(),
        };
        let (s, out) = TallySink::new(PerfettoStream::new(meta.clone(), ByteCounter(0)));
        let r = TraceRecorder::streaming(meta, Box::new(s));
        sim = sim.with_recorder(r.clone());
        rec = Some(r);
        sink = Some(out);
    }
    for a in &input.arrivals {
        sim.schedule_arrival(a.at, a.name, a.weight, a.spec.clone());
    }
    for s in &input.streams {
        sim.add_stream(
            Time::ZERO,
            "stream",
            s.weight,
            s.spec.clone(),
            s.gap,
            s.until,
        );
    }
    Prepared {
        sim,
        rec,
        probe,
        sink,
    }
}

/// One set-up alone, in thread CPU seconds; the simulator is dropped
/// unrun.
pub fn setup_only(input: &SimInput, mode: Mode) -> f64 {
    let c0 = thread_cpu_ns();
    let p = prepare(input, mode);
    let s = (thread_cpu_ns() - c0) as f64 / 1e9;
    drop(p);
    s
}

/// Sets the simulator up from `input` and runs it (timed as `run_s`
/// and `run_cpu_s`).
pub fn run_once(input: &SimInput, mode: Mode) -> SimRun {
    let p = prepare(input, mode);

    let c1 = thread_cpu_ns();
    let t1 = Instant::now();
    let report = p.sim.run();
    let run_s = t1.elapsed().as_secs_f64();
    let run_cpu_s = (thread_cpu_ns() - c1) as f64 / 1e9;

    if let Some(r) = &p.rec {
        r.finish();
        assert!(r.sink_error().is_none(), "trace sink failed");
    }
    SimRun {
        run_s,
        run_cpu_s,
        report,
        probe: p.probe.and_then(take_slot),
        sink: p.sink.map(take_slot),
    }
}

fn take_slot<T: Default>(slot: Arc<Mutex<T>>) -> T {
    std::mem::take(&mut *slot.lock().expect("instrumentation slot poisoned"))
}

/// Everything two runs of one input must agree on.
#[derive(PartialEq, Debug)]
pub struct Fingerprint {
    pub engine_events: u64,
    pub ctx_switches: u64,
    pub stats: SchedStats,
    /// Per-task service in nanoseconds; lean runs report the total.
    pub service_ns: Vec<u64>,
}

pub fn fingerprint(r: &SimReport) -> Fingerprint {
    let service_ns = match &r.summary {
        Some(s) => vec![s.service.as_nanos(), s.tasks, s.exited, s.completions],
        None => r.tasks.iter().map(|t| t.service.as_nanos()).collect(),
    };
    Fingerprint {
        engine_events: r.engine_events,
        ctx_switches: r.ctx_switches,
        stats: r.sched_stats,
        service_ns,
    }
}

pub fn total_service_ns(r: &SimReport) -> u64 {
    match &r.summary {
        Some(s) => s.service.as_nanos(),
        None => r.tasks.iter().map(|t| t.service.as_nanos()).sum(),
    }
}

/// `proportional_error` over the CPU-bound tasks (sim_steady).
pub fn share_error(r: &SimReport) -> f64 {
    let (svc, w): (Vec<f64>, Vec<f64>) = r
        .tasks
        .iter()
        .filter(|t| t.name != "int")
        .map(|t| (t.service.as_secs_f64(), t.weight as f64))
        .unzip();
    proportional_error(&svc, &w, r.cpus)
}

/// Interactive response times in simulated milliseconds, pooled over
/// every interactive task.
pub fn responses_ms(r: &SimReport) -> Vec<f64> {
    let mut out = Vec::new();
    for t in r.tasks.iter().filter(|t| t.name == "int") {
        if let Some(s) = &t.responses {
            out.extend(samples(s));
        }
    }
    out
}

/// Every observation of a [`Summary`], read back through its exact
/// nearest ranks (it exposes percentiles, not its sample vector).
fn samples(s: &Summary) -> impl Iterator<Item = f64> + '_ {
    let n = s.count();
    (0..n).map(move |k| {
        if n == 1 {
            s.percentile(0.0)
        } else {
            s.percentile(100.0 * k as f64 / (n - 1) as f64)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Entry;

    fn small(kind: SimKind) -> SimInput {
        let size = match kind {
            SimKind::Steady => Size {
                tasks: 400,
                horizon: Duration::from_secs(4),
            },
            SimKind::Churn => Size {
                tasks: 4_000,
                horizon: Duration::ZERO,
            },
        };
        let mut input = SimInput::generate(kind, 7, size);
        // Per-task service is what the comparison needs; lean mode
        // would fold it into one total.
        input.cfg.lean = false;
        input
    }

    /// The pass-through wrapper must not change the program it measures:
    /// a defaulted method falling back (say, per-task `attach` in place
    /// of `arrive_batch`) would change the §2.1 readjustment count.
    #[test]
    fn wrapper_leaves_both_sim_workloads_unchanged() {
        for kind in [SimKind::Steady, SimKind::Churn] {
            let input = small(kind);
            let record = kind == SimKind::Churn;
            let plain = run_once(
                &input,
                Mode {
                    probe: false,
                    record,
                },
            );
            let wrapped = run_once(
                &input,
                Mode {
                    probe: true,
                    record,
                },
            );
            let (a, b) = (fingerprint(&plain.report), fingerprint(&wrapped.report));
            assert_eq!(a, b, "{kind:?}: wrapper changed the run");
            assert!(
                a.service_ns.len() > 100,
                "{kind:?}: per-task service compared"
            );
            assert!(
                a.stats.readjust_calls > 0,
                "{kind:?}: readjustment exercised"
            );

            let probe = wrapped.probe.expect("probe report");
            assert!(probe.invariants_ok);
            let calls = |e: Entry| probe.spans[e as usize].calls;
            // `picks` counts only the calls that returned a task.
            assert!(calls(Entry::PickNext) >= a.stats.picks);
            assert!(calls(Entry::Arrive) > 0 && calls(Entry::PutPrev) > 0);
            if kind == SimKind::Steady {
                assert!(calls(Entry::Wake) > 0, "interactive wakes reach the policy");
            }
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let fp = |seed| {
            let input = SimInput::generate(
                SimKind::Churn,
                seed,
                Size {
                    tasks: 2_000,
                    horizon: Duration::ZERO,
                },
            );
            fingerprint(
                &run_once(
                    &input,
                    Mode {
                        probe: false,
                        record: false,
                    },
                )
                .report,
            )
        };
        assert_eq!(fp(3), fp(3));
        assert_ne!(fp(3), fp(4));
    }

    #[test]
    fn churn_drains_and_the_sink_sees_every_exit() {
        let input = SimInput::generate(
            SimKind::Churn,
            5,
            Size {
                tasks: 4_000,
                horizon: Duration::ZERO,
            },
        );
        let run = run_once(
            &input,
            Mode {
                probe: false,
                record: true,
            },
        );
        let s = run.report.summary.expect("lean");
        assert_eq!(s.exited, s.tasks);
        let sink = run.sink.expect("recorded");
        assert_eq!(sink.turnaround_ns.len() as u64, s.exited);
        assert!(sink.bytes > 0 && sink.events > s.tasks);
    }
}
