//! The scheduler counter tracks, computed once for both substrates.
//!
//! The simulator's periodic sample and the rt executor's timer tick
//! record the same picture of the policy through the same
//! [`Scheduler`] calls. [`CounterSample`] folds one run queue — or
//! every shard of a sharded executor in turn — into that picture.

use sfs_core::fixed::Fixed;
use sfs_core::sched::Scheduler;
use sfs_core::task::TaskId;
use sfs_core::time::{Duration, Time};

use crate::event::{CounterTrack, TraceEvent};

/// One sample of the scheduler counter tracks over one or more run
/// queues: virtual time `v`, the runnable count, the worst charged
/// surplus and the smallest adjusted weight φ among running tasks, and
/// the cumulative §2.1 readjustment counters.
#[derive(Debug, Default)]
pub struct CounterSample {
    /// Virtual time of the first queue that reports one.
    virtual_time: Option<f64>,
    runnable: usize,
    max_surplus: Option<f64>,
    min_phi: Option<f64>,
    /// (readjust calls, weights clamped), summed over the queues.
    readjust: (u64, u64),
}

impl CounterSample {
    /// Folds one run queue into the sample. `running` yields a
    /// `(slot, task, time on CPU)` triple per busy processor — the shape
    /// [`sfs_core::sched::select_preemption_victim`] takes — and
    /// surpluses are charged at `now`.
    pub fn add_queue(
        &mut self,
        sched: &dyn Scheduler,
        running: impl IntoIterator<Item = (usize, TaskId, Duration)>,
        now: Time,
    ) {
        if self.virtual_time.is_none() {
            self.virtual_time = sched.virtual_time().map(Fixed::to_f64);
        }
        self.runnable += sched.nr_runnable();
        let stats = sched.stats();
        self.readjust.0 += stats.readjust_calls;
        self.readjust.1 += stats.weights_clamped;
        for (_, id, ran) in running {
            if let Some(s) = sched.charged_surplus(id, ran, now) {
                let s = s.to_f64();
                self.max_surplus = Some(self.max_surplus.map_or(s, |m| m.max(s)));
            }
            if let Some(phi) = sched.adjusted_weight_of(id) {
                let phi = phi.to_f64();
                self.min_phi = Some(self.min_phi.map_or(phi, |m| m.min(phi)));
            }
        }
    }

    /// Emits the sample at `t`: each counter track that has a value, in
    /// track order, then a `Readjust` event with the work done since
    /// `last` if any readjustment ran. `last` holds the previous
    /// sample's cumulative counters and is advanced to this one's.
    pub fn emit(self, t: u64, last: &mut (u64, u64), mut out: impl FnMut(TraceEvent)) {
        let tracks = [
            (CounterTrack::VirtualTime, self.virtual_time),
            (CounterTrack::Runnable, Some(self.runnable as f64)),
            (CounterTrack::MaxRunSurplus, self.max_surplus),
            (CounterTrack::MinRunPhi, self.min_phi),
        ];
        for (track, value) in tracks {
            if let Some(value) = value {
                out(TraceEvent::Counter { t, track, value });
            }
        }
        let (calls, clamped) = self.readjust;
        if calls > last.0 {
            out(TraceEvent::Readjust {
                t,
                calls: calls - last.0,
                clamped: clamped.saturating_sub(last.1),
            });
        }
        *last = self.readjust;
    }
}
