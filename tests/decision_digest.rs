//! Golden decision digest: a fixed SFS scenario whose every dispatch is
//! pinned.
//!
//! The run is recorded, and the test folds its `(time, cpu, task)`
//! dispatch sequence — every `SliceBegin` — and the run's
//! [`SchedStats`] and engine counters into FNV-1a digests, compared
//! against constants. The scenario runs 16 CPUs with heavies that the
//! §2.1 readjustment must clamp, medium hogs, short jobs arriving and
//! exiting, and interactive tasks whose wakes go through victim
//! selection — once on global SFS and once on 4-shard SFS. A change
//! that only makes the policy cheaper (a different hasher, a faster
//! arithmetic path) must leave both digests exactly as they are; a
//! change that is meant to alter decisions must update the constants
//! and say why.

use sfs::prelude::*;
use sfs::trace::TraceMeta;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn scenario() -> Scenario {
    let cfg = SimConfig {
        cpus: 16,
        duration: Duration::from_millis(1_500),
        ctx_switch: Duration::from_micros(5),
        sample_every: Duration::from_millis(250),
        track_gms: false,
        seed: 20_001,
        lean: false,
    };
    let ms = Duration::from_millis;
    let mut s = Scenario::new("decision-digest", cfg)
        // Infeasible weights: each wants more than one CPU of sixteen,
        // so readjustment clamps them (and reclamps as the set churns).
        .task(TaskSpec::new("heavy", 400, BehaviorSpec::Inf).replicated(3))
        .task(TaskSpec::new("late-heavy", 900, BehaviorSpec::Inf).arrive_at(Time::from_millis(300)))
        .task(TaskSpec::new("hog", 3, BehaviorSpec::Inf).replicated(10))
        .task(TaskSpec::new("dhry", 1, BehaviorSpec::Dhrystone).replicated(6))
        .task(
            TaskSpec::new("quitter", 7, BehaviorSpec::Inf)
                .arrive_at(Time::from_millis(100))
                .stop_at(Time::from_millis(900)),
        )
        // Interactive tasks: short bursts after think time, so their
        // wakes run the preemption-victim search over all CPUs.
        .task(
            TaskSpec::new(
                "shell",
                2,
                BehaviorSpec::Interact {
                    think: ms(6),
                    burst: ms(1),
                },
            )
            .replicated(8),
        )
        .task(TaskSpec::new(
            "cc",
            2,
            BehaviorSpec::Compile {
                burst: ms(8),
                io: ms(3),
            },
        ).replicated(4));
    for i in 0..12u64 {
        s = s.task(
            TaskSpec::new(
                &format!("job{i}"),
                1 + i % 5,
                BehaviorSpec::Finite(ms(20 + 7 * i)),
            )
            .arrive_at(Time::from_millis(50 * i)),
        );
    }
    s
}

/// Runs the scenario under `spec` and returns
/// `(dispatches, dispatch digest, stats digest)`.
fn digest(spec: &str) -> (u64, u64, u64) {
    let policy: PolicySpec = spec.parse().expect("policy spec");
    let rec = TraceRecorder::new(TraceMeta::default());
    let report = scenario()
        .try_run_traced(policy.build(16), rec.clone())
        .expect("valid scenario");
    let (mut dispatches, mut seq) = (0, Fnv::new());
    for ev in rec.finish().events {
        if let TraceEvent::SliceBegin { t, cpu, task } = ev {
            dispatches += 1;
            seq.word(t);
            seq.word(u64::from(cpu));
            seq.word(task.0);
        }
    }
    let s = report.sched_stats;
    let mut st = Fnv::new();
    for v in [
        s.picks,
        s.vt_changes,
        s.full_resorts,
        s.nodes_moved,
        s.readjust_calls,
        s.weights_clamped,
        s.heuristic_picks,
        s.heuristic_scans,
        s.heuristic_audits,
        s.heuristic_hits,
        s.renormalizations,
        s.migrations,
        s.bucket_migrations,
        s.bucket_scans,
        s.weight_classes,
        s.events,
        s.event_steps,
        s.shard_steals,
        s.shard_rebalances,
        s.shard_wake_migrations,
        report.ctx_switches,
        report.engine_events,
    ] {
        st.word(v);
    }
    (dispatches, seq.0, st.0)
}

#[test]
fn global_sfs_decisions_are_pinned() {
    let got = digest("sfs:quantum=2ms");
    let want = (13_949, 0x8ca6_cde6_81b9_80db, 0xdf11_0128_9a80_e8aa);
    assert_eq!(got, want, "global SFS decisions changed: {got:#x?}");
}

#[test]
fn sharded_sfs_decisions_are_pinned() {
    let got = digest("sfs:quantum=2ms,shards=4");
    let want = (14_192, 0x9375_8f29_0c5e_5f72, 0x8ca2_40f2_2521_2487);
    assert_eq!(got, want, "4-shard SFS decisions changed: {got:#x?}");
}
