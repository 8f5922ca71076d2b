//! The benchmark's own instrumentation, wrapped around the program from
//! outside: a pass-through [`Scheduler`] that times every policy entry
//! point, and a [`ChunkSink`] that times the trace export and tallies
//! job turnaround from the event stream. Nothing here is compiled into
//! the program; spans and counts stay in memory until the run ends.

use std::cell::Cell;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sfs_core::fixed::Fixed;
use sfs_core::sched::{SchedStats, Scheduler, SwitchReason};
use sfs_core::task::{CpuId, TaskId, TenantId, Weight};
use sfs_core::time::{Duration, Time};
use sfs_trace::{ChunkSink, PerfettoStream, TaskMeta, TraceEvent};

/// The entry-point groups the per-layer report uses.
#[derive(Clone, Copy)]
pub enum Entry {
    PickNext,
    PutPrev,
    /// attach, attach_tenant, attach_batch, arrive_batch.
    Arrive,
    /// wake, wake_batch.
    Wake,
    /// detach, reap.
    Detach,
    /// time_slice, wake_preempts, charged_surplus, steal_candidate,
    /// adjusted_weight_of.
    Query,
}

impl Entry {
    pub const ALL: [Entry; 6] = [
        Entry::PickNext,
        Entry::PutPrev,
        Entry::Arrive,
        Entry::Wake,
        Entry::Detach,
        Entry::Query,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Entry::PickNext => "pick_next",
            Entry::PutPrev => "put_prev",
            Entry::Arrive => "arrive",
            Entry::Wake => "wake",
            Entry::Detach => "detach",
            Entry::Query => "query",
        }
    }
}

/// Timing every call would double the cost of the cheapest entry
/// points, so a random one call in `SAMPLE` (on average) is timed and
/// each group's time is extrapolated from its timed calls; calls are
/// always counted exactly. Random, not every `SAMPLE`-th, so a periodic
/// call pattern cannot alias with the sampling.
const SAMPLE: u64 = 8;

/// Calls to one entry-point group, and the time of the sampled ones.
#[derive(Clone, Copy, Default, Debug)]
pub struct Span {
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: u64,
}

impl Span {
    /// Estimated total nanoseconds over all calls.
    pub fn ns(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        self.timed_ns as f64 * self.calls as f64 / self.timed as f64
    }
}

/// Cost of an empty timed span (`Instant::now` then `elapsed`), taken
/// off every sampled span so `ns` estimates the policy's own time.
fn timer_overhead_ns() -> u64 {
    static CAL: OnceLock<u64> = OnceLock::new();
    *CAL.get_or_init(|| {
        let mut v: Vec<u64> = (0..1001)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(&t);
                t.elapsed().as_nanos() as u64
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

/// What a [`Probe`] hands back when the substrate drops it.
#[derive(Debug)]
pub struct ProbeReport {
    pub spans: [Span; 6],
    /// `check_invariants` on the wrapped policy passed at the end.
    pub invariants_ok: bool,
    /// rt only: nanoseconds from the wrapper's `wake(id)` to
    /// `pick_next` returning that id.
    pub wake_to_pick_ns: Vec<f64>,
}

impl ProbeReport {
    pub fn total_ns(&self) -> f64 {
        self.spans.iter().map(Span::ns).sum()
    }
}

/// Per-task wake and pick stamps shared with rt task bodies, in
/// nanoseconds since `epoch` (0 = none pending). Task ids index the
/// lanes directly; the rt workloads spawn far fewer tasks than lanes.
pub struct RtMarks {
    pub epoch: Instant,
    wake: Vec<AtomicU64>,
    pick: Vec<AtomicU64>,
}

impl RtMarks {
    pub const LANES: usize = 256;

    pub fn new(epoch: Instant) -> RtMarks {
        let lanes = || (0..Self::LANES).map(|_| AtomicU64::new(0)).collect();
        RtMarks {
            epoch,
            wake: lanes(),
            pick: lanes(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The last time `pick_next` returned `id`.
    pub fn picked_at(&self, id: TaskId) -> Option<u64> {
        let v = self.pick.get(id.0 as usize)?.load(Ordering::Acquire);
        (v != 0).then_some(v)
    }
}

/// A pass-through [`Scheduler`] that forwards **every** trait method,
/// defaulted ones included, so the wrapped policy sees exactly the call
/// sequence it would see unwrapped (falling back to a default — say,
/// per-task `attach` instead of `arrive_batch` — would change the
/// number of §2.1 readjustments and so the program being measured).
pub struct Probe {
    inner: Box<dyn Scheduler>,
    spans: [Cell<Span>; 6],
    timer_ns: u64,
    /// xorshift64 state for the sampling draw.
    draw: Cell<u64>,
    marks: Option<Arc<RtMarks>>,
    wake_to_pick_ns: Vec<f64>,
    out: Arc<Mutex<Option<ProbeReport>>>,
}

impl Probe {
    /// Wraps `inner`; its report lands in the returned slot when the
    /// substrate drops the scheduler at the end of the run.
    pub fn wrap(
        inner: Box<dyn Scheduler>,
        marks: Option<Arc<RtMarks>>,
    ) -> (Box<dyn Scheduler>, Arc<Mutex<Option<ProbeReport>>>) {
        let out = Arc::new(Mutex::new(None));
        let probe = Probe {
            inner,
            spans: Default::default(),
            timer_ns: timer_overhead_ns(),
            draw: Cell::new(0x9E37_79B9_7F4A_7C15),
            marks,
            wake_to_pick_ns: Vec::new(),
            out: Arc::clone(&out),
        };
        (Box::new(probe), out)
    }

    /// Counts a call into `e`; returns its start time if sampled.
    fn enter(&self, e: Entry) -> Option<Instant> {
        let cell = &self.spans[e as usize];
        let mut s = cell.get();
        s.calls += 1;
        cell.set(s);
        let mut x = self.draw.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.draw.set(x);
        // Every group's first call is timed, so a group of a few calls
        // still gets an estimate.
        (s.timed == 0 || x.is_multiple_of(SAMPLE)).then(Instant::now)
    }

    fn leave(&self, e: Entry, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = (t0.elapsed().as_nanos() as u64).saturating_sub(self.timer_ns);
            let cell = &self.spans[e as usize];
            let mut s = cell.get();
            s.timed += 1;
            s.timed_ns += ns;
            cell.set(s);
        }
    }

    fn mark_wake(&self, id: TaskId) {
        if let Some(m) = &self.marks {
            if let Some(lane) = m.wake.get(id.0 as usize) {
                lane.store(m.now_ns(), Ordering::Release);
            }
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let inner = &self.inner;
        let invariants_ok = catch_unwind(AssertUnwindSafe(|| inner.check_invariants())).is_ok();
        let report = ProbeReport {
            spans: std::array::from_fn(|i| self.spans[i].get()),
            invariants_ok,
            wake_to_pick_ns: std::mem::take(&mut self.wake_to_pick_ns),
        };
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(report);
        }
    }
}

impl Scheduler for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cpus(&self) -> u32 {
        self.inner.cpus()
    }

    fn attach(&mut self, id: TaskId, w: Weight, now: Time) {
        let t0 = self.enter(Entry::Arrive);
        self.inner.attach(id, w, now);
        self.leave(Entry::Arrive, t0);
    }

    fn bind_tenant(&self, group: &str) -> Option<TenantId> {
        self.inner.bind_tenant(group)
    }

    fn attach_tenant(&mut self, id: TaskId, w: Weight, tenant: Option<TenantId>, now: Time) {
        let t0 = self.enter(Entry::Arrive);
        self.inner.attach_tenant(id, w, tenant, now);
        self.leave(Entry::Arrive, t0);
    }

    fn attach_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        let t0 = self.enter(Entry::Arrive);
        self.inner.attach_batch(batch, now);
        self.leave(Entry::Arrive, t0);
    }

    fn arrive_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        let t0 = self.enter(Entry::Arrive);
        self.inner.arrive_batch(batch, now);
        self.leave(Entry::Arrive, t0);
    }

    fn wake_batch(&mut self, ids: &[TaskId], now: Time) {
        for &id in ids {
            self.mark_wake(id);
        }
        let t0 = self.enter(Entry::Wake);
        self.inner.wake_batch(ids, now);
        self.leave(Entry::Wake, t0);
    }

    fn tenant_of(&self, id: TaskId) -> Option<TenantId> {
        self.inner.tenant_of(id)
    }

    fn detach(&mut self, id: TaskId, now: Time) {
        let t0 = self.enter(Entry::Detach);
        self.inner.detach(id, now);
        self.leave(Entry::Detach, t0);
    }

    fn reap(&mut self, id: TaskId, now: Time) {
        let t0 = self.enter(Entry::Detach);
        self.inner.reap(id, now);
        self.leave(Entry::Detach, t0);
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, now: Time) {
        self.inner.set_weight(id, w, now);
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.inner.weight_of(id)
    }

    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        let t0 = self.enter(Entry::Query);
        let r = self.inner.adjusted_weight_of(id);
        self.leave(Entry::Query, t0);
        r
    }

    fn wake(&mut self, id: TaskId, now: Time) {
        self.mark_wake(id);
        let t0 = self.enter(Entry::Wake);
        self.inner.wake(id, now);
        self.leave(Entry::Wake, t0);
    }

    fn pick_next(&mut self, cpu: CpuId, now: Time) -> Option<TaskId> {
        let t0 = self.enter(Entry::PickNext);
        let r = self.inner.pick_next(cpu, now);
        self.leave(Entry::PickNext, t0);
        if let (Some(m), Some(id)) = (&self.marks, r) {
            if let Some(lane) = m.pick.get(id.0 as usize) {
                let t = m.now_ns();
                lane.store(t, Ordering::Release);
                let woke = m.wake[id.0 as usize].swap(0, Ordering::AcqRel);
                if woke != 0 {
                    self.wake_to_pick_ns.push(t.saturating_sub(woke) as f64);
                }
            }
        }
        r
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, now: Time) {
        let t0 = self.enter(Entry::PutPrev);
        self.inner.put_prev(id, ran, reason, now);
        self.leave(Entry::PutPrev, t0);
    }

    fn time_slice(&self, id: TaskId) -> Duration {
        let t0 = self.enter(Entry::Query);
        let r = self.inner.time_slice(id);
        self.leave(Entry::Query, t0);
        r
    }

    fn wake_preempts(&self, woken: TaskId, running: TaskId, ran: Duration, now: Time) -> bool {
        let t0 = self.enter(Entry::Query);
        let r = self.inner.wake_preempts(woken, running, ran, now);
        self.leave(Entry::Query, t0);
        r
    }

    fn steal_candidate(&self) -> Option<TaskId> {
        let t0 = self.enter(Entry::Query);
        let r = self.inner.steal_candidate();
        self.leave(Entry::Query, t0);
        r
    }

    fn charged_surplus(&self, id: TaskId, ran: Duration, now: Time) -> Option<Fixed> {
        let t0 = self.enter(Entry::Query);
        let r = self.inner.charged_surplus(id, ran, now);
        self.leave(Entry::Query, t0);
        r
    }

    fn nr_runnable(&self) -> usize {
        self.inner.nr_runnable()
    }

    fn nr_tasks(&self) -> usize {
        self.inner.nr_tasks()
    }

    fn stats(&self) -> SchedStats {
        self.inner.stats()
    }

    fn virtual_time(&self) -> Option<Fixed> {
        self.inner.virtual_time()
    }

    fn check_invariants(&self) {
        self.inner.check_invariants();
    }
}

/// A writer that only counts bytes: the recorder's export path runs in
/// full, without disk I/O.
pub struct ByteCounter(pub u64);

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a [`TallySink`] saw over a whole recording.
#[derive(Default, Debug)]
pub struct SinkTally {
    /// Nanoseconds inside the wrapped `PerfettoStream`.
    pub sink_ns: u64,
    pub events: u64,
    pub bytes: u64,
    /// Arrival → exit of every task that exited, in nanoseconds.
    pub turnaround_ns: Vec<f64>,
}

/// Forwards every chunk to a [`PerfettoStream`] over a [`ByteCounter`],
/// timing the export, and tallies job turnaround (first `Wake` — the
/// arrival — to the `SliceEnd` with `Exited`) from the events.
pub struct TallySink {
    /// Taken by `finish`, which the recorder calls exactly once.
    stream: Option<PerfettoStream<ByteCounter>>,
    arrived_at: Vec<u64>,
    tally: SinkTally,
    out: Arc<Mutex<SinkTally>>,
}

impl TallySink {
    pub fn new(stream: PerfettoStream<ByteCounter>) -> (TallySink, Arc<Mutex<SinkTally>>) {
        let out = Arc::new(Mutex::new(SinkTally::default()));
        let sink = TallySink {
            stream: Some(stream),
            arrived_at: Vec::new(),
            tally: SinkTally::default(),
            out: Arc::clone(&out),
        };
        (sink, out)
    }

    fn scan(&mut self, events: &[TraceEvent]) {
        for ev in events {
            match *ev {
                TraceEvent::Wake { t, task } => {
                    let i = task.0 as usize;
                    if i >= self.arrived_at.len() {
                        self.arrived_at.resize(i + 1, u64::MAX);
                    }
                    if self.arrived_at[i] == u64::MAX {
                        self.arrived_at[i] = t;
                    }
                }
                TraceEvent::SliceEnd {
                    t,
                    task,
                    reason: SwitchReason::Exited,
                    ..
                } => {
                    if let Some(&a) = self.arrived_at.get(task.0 as usize) {
                        self.tally.turnaround_ns.push(t.saturating_sub(a) as f64);
                    }
                }
                _ => {}
            }
        }
    }
}

impl ChunkSink for TallySink {
    fn chunk(&mut self, new_tasks: &[TaskMeta], events: &[TraceEvent]) -> io::Result<()> {
        let Some(stream) = &mut self.stream else {
            return Err(io::Error::other("chunk after finish"));
        };
        let t0 = Instant::now();
        let r = stream.chunk(new_tasks, events);
        self.tally.sink_ns += t0.elapsed().as_nanos() as u64;
        self.tally.events += events.len() as u64;
        self.scan(events);
        r
    }

    fn finish(&mut self) -> io::Result<()> {
        let Some(mut stream) = self.stream.take() else {
            return Err(io::Error::other("finish called twice"));
        };
        let r = stream.finish();
        let mut tally = std::mem::take(&mut self.tally);
        tally.bytes = stream.into_inner().0;
        if let Ok(mut out) = self.out.lock() {
            *out = tally;
        }
        r
    }
}
