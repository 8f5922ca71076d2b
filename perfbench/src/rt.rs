//! The two real-thread workloads on the `sfs-rt` executor.
//!
//! Every timestamp is nanoseconds since one shared `Instant` (the
//! probe's epoch when traced), so stamps taken on different threads
//! subtract directly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration as StdDuration, Instant};

use sfs_core::policy::PolicySpec;
use sfs_core::sched::SchedStats;
use sfs_core::task::{weight, TaskId};
use sfs_core::time::Duration;
use sfs_metrics::proportional_error;
use sfs_rt::{Executor, RtConfig, TaskCtx, TaskHandle};

use crate::probe::{Probe, ProbeReport, RtMarks};
use crate::util::{process_cpu_ns, thread_cpu_ns, Reservoir, Rng};

pub const CPUS: u32 = 2;
/// Weights of the CPU-bound tasks in `rt_interactive`; 16 is
/// infeasible on two CPUs and is clamped to one.
pub const HOG_WEIGHTS: [u64; 4] = [1, 2, 4, 16];
const INTERACTIVE: usize = 4;
const INTERACTIVE_WEIGHT: u64 = 4;
/// Open-loop wake rate, well below saturation.
const WAKES_PER_S: u64 = 800;
const BURST: StdDuration = StdDuration::from_micros(100);
/// `rt_handoff`: two rings of this many tasks, one token each, so the
/// tokens can never merge.
const RING: usize = 8;
/// Latency samples each ring task keeps per window: a uniform
/// subsample, always full, so the benchmark's own memory does not vary
/// with throughput. Every ring task hops equally often, so the pooled
/// samples stay uniform.
const RESERVOIR: usize = 1_024;

fn cfg() -> RtConfig {
    RtConfig {
        cpus: CPUS,
        timer_interval: Duration::from_millis(1),
    }
}

fn sfs_spec() -> PolicySpec {
    PolicySpec::sfs().with_quantum(Duration::from_millis(10))
}

fn handoff_spec() -> PolicySpec {
    "sfs:quantum=10ms,shards=2"
        .parse()
        .expect("valid policy spec")
}

/// About a microsecond of work the optimiser cannot remove.
fn spin_unit() {
    let mut x = 1u64;
    for i in 0..64u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// A CPU-bound task: it holds its virtual CPU until preempted. Every
/// few microseconds it also yields the *host* core (not the virtual
/// CPU), so on a host with as many cores as virtual CPUs the generator
/// and a woken task's thread are not left queued behind spinning hogs
/// by the host scheduler; the executor still sees an always-runnable
/// task.
fn hog(ctx: &TaskCtx) {
    let mut n = 0u32;
    while !ctx.stopped() {
        spin_unit();
        ctx.checkpoint();
        n = n.wrapping_add(1);
        if n.is_multiple_of(16) {
            thread::yield_now();
        }
    }
}

/// One interactive task's mailbox: the generator stamps `called_ns`,
/// then sets `token`, then calls `wake_task`.
#[derive(Default)]
struct Slot {
    token: AtomicBool,
    called_ns: AtomicU64,
    resumed: AtomicU64,
    latency_ns: Mutex<Vec<f64>>,
    pick_to_resume_ns: Mutex<Vec<f64>>,
}

/// The `rt_interactive` task set on its executor.
struct InteractiveSet {
    ex: Executor,
    hogs: Vec<TaskHandle>,
    slots: Vec<(TaskId, Arc<Slot>, TaskHandle)>,
    probe: Option<Arc<Mutex<Option<ProbeReport>>>>,
}

/// Spawns the `rt_interactive` task set on a fresh executor.
fn interactive_setup(epoch: Instant, marks: Option<Arc<RtMarks>>) -> InteractiveSet {
    let mut sched = sfs_spec().build(CPUS);
    let mut probe = None;
    if let Some(m) = &marks {
        let (wrapped, out) = Probe::wrap(sched, Some(Arc::clone(m)));
        sched = wrapped;
        probe = Some(out);
    }
    let ex = Executor::new(cfg(), sched);
    let hogs = HOG_WEIGHTS
        .iter()
        .map(|&w| ex.spawn("hog", weight(w), hog))
        .collect();
    let mut slots = Vec::with_capacity(INTERACTIVE);
    for _ in 0..INTERACTIVE {
        let slot = Arc::new(Slot::default());
        let s = Arc::clone(&slot);
        let m = marks.clone();
        let h = ex.spawn("int", weight(INTERACTIVE_WEIGHT), move |ctx| {
            let mut lat = Vec::new();
            let mut p2r = Vec::new();
            loop {
                ctx.block_on_token(&s.token);
                if ctx.stopped() {
                    break;
                }
                let now = ns_since(epoch);
                lat.push(now.saturating_sub(s.called_ns.load(Ordering::SeqCst)) as f64);
                if let Some(picked) = m.as_ref().and_then(|m| m.picked_at(ctx.id())) {
                    p2r.push(now.saturating_sub(picked) as f64);
                }
                s.resumed.fetch_add(1, Ordering::SeqCst);
                let t = Instant::now();
                while t.elapsed() < BURST {
                    spin_unit();
                    ctx.checkpoint();
                }
            }
            s.latency_ns.lock().expect("slot poisoned").extend(lat);
            s.pick_to_resume_ns
                .lock()
                .expect("slot poisoned")
                .extend(p2r);
        });
        slots.push((h.id(), slot, h));
    }
    InteractiveSet {
        ex,
        hogs,
        slots,
        probe,
    }
}

/// Results of one measured `rt_interactive` window.
pub struct InteractiveRun {
    pub window_s: f64,
    pub picks: u64,
    pub switches: u64,
    pub issued: u64,
    pub resumed: u64,
    pub latency_ns: Vec<f64>,
    pub wake_call_ns: Vec<f64>,
    pub lag_ns: Vec<f64>,
    pub pick_to_resume_ns: Vec<f64>,
    pub share_error: f64,
    pub healthy: bool,
    /// Policy counters over the executor's life, read at window end.
    pub stats: SchedStats,
    pub probe: Option<ProbeReport>,
}

/// Set-up CPU time of `rt_interactive` (executor + every spawn, on the
/// calling thread), with the tasks torn down again untimed.
pub fn interactive_setup_s() -> f64 {
    let c0 = thread_cpu_ns();
    let InteractiveSet {
        ex, hogs, slots, ..
    } = interactive_setup(Instant::now(), None);
    let s = (thread_cpu_ns() - c0) as f64 / 1e9;
    ex.stop();
    ex.wait();
    hogs.into_iter().for_each(TaskHandle::join);
    slots.into_iter().for_each(|(_, _, h)| h.join());
    s
}

/// The seeded wake schedule: due offsets (ns), one uniformly placed in
/// each period, so the mean rate is fixed and the gaps are jittered.
fn wake_schedule(seed: u64, window: StdDuration) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let period = 1_000_000_000 / WAKES_PER_S;
    let n = window.as_nanos() as u64 / period;
    (0..n).map(|k| k * period + rng.below(period)).collect()
}

pub fn interactive_run(seed: u64, window: StdDuration, traced: bool) -> InteractiveRun {
    let epoch = Instant::now();
    let marks = traced.then(|| Arc::new(RtMarks::new(epoch)));
    let InteractiveSet {
        ex,
        hogs,
        slots,
        probe,
    } = interactive_setup(epoch, marks);
    let schedule = wake_schedule(seed, window);

    let start_stats = ex.sched_stats();
    let start_switches = ex.switches();
    let start = ns_since(epoch);
    let mut wake_call_ns = Vec::with_capacity(schedule.len());
    let mut lag_ns = Vec::with_capacity(schedule.len());
    for (k, &due) in schedule.iter().enumerate() {
        let due = start + due;
        let now = ns_since(epoch);
        if due > now {
            thread::sleep(StdDuration::from_nanos(due - now));
        }
        // The next task in round-robin order whose last wake has been
        // consumed. When a host stall has left all four still pending,
        // the generator waits for one rather than merge two wakes into
        // one token; that wait is part of its reported lag. After a
        // second it gives up and merges them, which the resume check
        // then reports.
        let waiting = Instant::now();
        let (id, slot, _) = loop {
            let idle = (0..INTERACTIVE)
                .map(|i| &slots[(k + i) % INTERACTIVE])
                .find(|(_, s, _)| !s.token.load(Ordering::SeqCst));
            match idle {
                Some(s) => break s,
                None if waiting.elapsed() > StdDuration::from_secs(1) => {
                    break &slots[k % INTERACTIVE]
                }
                None => thread::sleep(StdDuration::from_micros(50)),
            }
        };
        let called = ns_since(epoch);
        slot.called_ns.store(called, Ordering::SeqCst);
        slot.token.store(true, Ordering::SeqCst);
        let t = Instant::now();
        ex.wake_task(*id);
        wake_call_ns.push(t.elapsed().as_nanos() as f64);
        lag_ns.push(called.saturating_sub(due) as f64);
    }
    let window_s = (ns_since(epoch) - start) as f64 / 1e9;
    let stats = ex.sched_stats();
    let picks = stats.picks - start_stats.picks;
    let switches = ex.switches() - start_switches;

    // Let every issued wake be consumed before stopping.
    let issued = schedule.len() as u64;
    let resumed = || -> u64 {
        slots
            .iter()
            .map(|(_, s, _)| s.resumed.load(Ordering::SeqCst))
            .sum()
    };
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while resumed() < issued && Instant::now() < deadline {
        thread::sleep(StdDuration::from_millis(1));
    }
    ex.stop();
    ex.wait();
    let services: Vec<f64> = hogs
        .into_iter()
        .map(|h| h.join_service().as_secs_f64())
        .collect();
    let mut latency_ns = Vec::new();
    let mut pick_to_resume_ns = Vec::new();
    let mut resumed_total = 0;
    for (_, slot, h) in slots {
        h.join();
        resumed_total += slot.resumed.load(Ordering::SeqCst);
        latency_ns.extend(slot.latency_ns.lock().expect("slot poisoned").drain(..));
        pick_to_resume_ns.extend(
            slot.pick_to_resume_ns
                .lock()
                .expect("slot poisoned")
                .drain(..),
        );
    }
    let healthy = ex.reaped() == 0 && ex.invariant_violations() == 0;
    let weights: Vec<f64> = HOG_WEIGHTS.iter().map(|&w| w as f64).collect();
    let share_error = proportional_error(&services, &weights, CPUS);
    drop(ex);
    let probe = probe.and_then(|p| p.lock().expect("probe slot poisoned").take());
    InteractiveRun {
        window_s,
        picks,
        switches,
        issued,
        resumed: resumed_total,
        latency_ns,
        wake_call_ns,
        lag_ns,
        pick_to_resume_ns,
        share_error,
        healthy,
        stats,
        probe,
    }
}

/// Shared state of the two `rt_handoff` token rings.
struct Ring {
    tokens: Vec<AtomicBool>,
    set_ns: Vec<AtomicU64>,
    ids: Vec<AtomicU64>,
    done: AtomicBool,
    parked: AtomicU64,
    hop_ns: Mutex<Vec<f64>>,
    wake_call_ns: Mutex<Vec<f64>>,
    hops: AtomicU64,
}

impl Ring {
    fn next(me: usize) -> usize {
        let base = me / RING * RING;
        base + (me + 1 - base) % RING
    }
}

fn handoff_setup(epoch: Instant, time_wakes: bool) -> (Executor, Vec<TaskHandle>, Arc<Ring>) {
    let n = 2 * RING;
    let ring = Arc::new(Ring {
        tokens: (0..n).map(|_| AtomicBool::new(false)).collect(),
        set_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        ids: (0..n).map(|_| AtomicU64::new(0)).collect(),
        done: AtomicBool::new(false),
        parked: AtomicU64::new(0),
        hop_ns: Mutex::new(Vec::new()),
        wake_call_ns: Mutex::new(Vec::new()),
        hops: AtomicU64::new(0),
    });
    let ex = Executor::from_spec(cfg(), &handoff_spec());
    let handles: Vec<TaskHandle> = (0..n)
        .map(|me| {
            let r = Arc::clone(&ring);
            ex.spawn("ring", weight(1), move |ctx| {
                let mut hops = Reservoir::new(RESERVOIR, me as u64);
                let mut calls = Reservoir::new(RESERVOIR, !(me as u64));
                loop {
                    ctx.block_on_token(&r.tokens[me]);
                    // Stop comes only after both tokens are parked (or
                    // before any was injected), so this return held none.
                    if ctx.stopped() {
                        break;
                    }
                    if r.done.load(Ordering::SeqCst) {
                        r.parked.fetch_add(1, Ordering::SeqCst);
                        break;
                    }
                    let now = ns_since(epoch);
                    hops.push(now.saturating_sub(r.set_ns[me].load(Ordering::SeqCst)) as f64);
                    let next = Ring::next(me);
                    r.set_ns[next].store(ns_since(epoch), Ordering::SeqCst);
                    r.tokens[next].store(true, Ordering::SeqCst);
                    let id = TaskId(r.ids[next].load(Ordering::SeqCst));
                    let t = time_wakes.then(Instant::now);
                    ctx.wake_task(id);
                    if let Some(t) = t {
                        calls.push(t.elapsed().as_nanos() as f64);
                    }
                }
                r.hops.fetch_add(hops.seen(), Ordering::SeqCst);
                r.hop_ns.lock().expect("ring poisoned").extend(hops.samples);
                r.wake_call_ns
                    .lock()
                    .expect("ring poisoned")
                    .extend(calls.samples);
            })
        })
        .collect();
    for (slot, h) in ring.ids.iter().zip(&handles) {
        slot.store(h.id().0, Ordering::SeqCst);
    }
    (ex, handles, ring)
}

/// Set-up CPU time of `rt_handoff` (executor + every spawn, on the
/// calling thread).
pub fn handoff_setup_s() -> f64 {
    let c0 = thread_cpu_ns();
    let (ex, handles, _) = handoff_setup(Instant::now(), false);
    let s = (thread_cpu_ns() - c0) as f64 / 1e9;
    ex.stop();
    ex.wait();
    handles.into_iter().for_each(TaskHandle::join);
    s
}

pub struct HandoffRun {
    pub window_s: f64,
    /// CPU seconds of every thread of the process over the window.
    pub cpu_s: f64,
    pub picks: u64,
    /// Completed hops (the latency samples are a subsample of these).
    pub hops: u64,
    pub switches: u64,
    pub hop_ns: Vec<f64>,
    pub wake_call_ns: Vec<f64>,
    /// Policy counters over the executor's life, read at window end.
    pub stats: SchedStats,
    /// Both tokens were parked and none was left in flight.
    pub tokens_conserved: bool,
    pub healthy: bool,
}

pub fn handoff_run(window: StdDuration, traced: bool) -> HandoffRun {
    let epoch = Instant::now();
    let (ex, handles, ring) = handoff_setup(epoch, traced);
    let start_stats = ex.sched_stats();
    let start_switches = ex.switches();
    let start_cpu = process_cpu_ns();
    let t0 = Instant::now();
    for first in [0, RING] {
        ring.set_ns[first].store(ns_since(epoch), Ordering::SeqCst);
        ring.tokens[first].store(true, Ordering::SeqCst);
        ex.wake_task(handles[first].id());
    }
    thread::sleep(window);
    let end_stats = ex.sched_stats();
    let switches = ex.switches() - start_switches;
    let window_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - start_cpu) as f64 / 1e9;
    ring.done.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while ring.parked.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
        thread::sleep(StdDuration::from_millis(1));
    }
    let tokens_conserved = ring.parked.load(Ordering::SeqCst) == 2
        && ring.tokens.iter().all(|t| !t.load(Ordering::SeqCst));
    ex.stop();
    ex.wait();
    handles.into_iter().for_each(TaskHandle::join);
    let healthy = ex.reaped() == 0 && ex.invariant_violations() == 0;
    let hop_ns = std::mem::take(&mut *ring.hop_ns.lock().expect("ring poisoned"));
    let wake_call_ns = std::mem::take(&mut *ring.wake_call_ns.lock().expect("ring poisoned"));
    HandoffRun {
        window_s,
        cpu_s,
        picks: end_stats.picks - start_stats.picks,
        hops: ring.hops.load(Ordering::SeqCst),
        switches,
        hop_ns,
        wake_call_ns,
        stats: end_stats,
        tokens_conserved,
        healthy,
    }
}
