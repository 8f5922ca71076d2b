//! The metric lists (kept identical to `BENCHMARK.json`, which a test
//! checks), output checks, and the printed report: a human-readable
//! table, one self-describing `record` line, and the final result line.

use crate::util::{json_num, json_str};
use crate::Args;

/// `(name, unit, better)` of every end-to-end metric, printed by every
/// untraced run.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("events_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_us_p50", "us", "lower"),
    ("latency_us_p90", "us", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by every
/// traced run (zero where the workload does not run that layer).
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("core.sched.pick_next.calls", "count", "lower"),
    ("core.sched.pick_next.ns_mean", "ns", "lower"),
    ("core.sched.pick_next.busy_pct", "%", "lower"),
    ("core.sched.put_prev.calls", "count", "lower"),
    ("core.sched.put_prev.ns_mean", "ns", "lower"),
    ("core.sched.put_prev.busy_pct", "%", "lower"),
    ("core.sched.arrive.calls", "count", "lower"),
    ("core.sched.arrive.ns_mean", "ns", "lower"),
    ("core.sched.arrive.busy_pct", "%", "lower"),
    ("core.sched.wake.calls", "count", "lower"),
    ("core.sched.wake.ns_mean", "ns", "lower"),
    ("core.sched.wake.busy_pct", "%", "lower"),
    ("core.sched.detach.calls", "count", "lower"),
    ("core.sched.detach.ns_mean", "ns", "lower"),
    ("core.sched.detach.busy_pct", "%", "lower"),
    ("core.sched.query.calls", "count", "lower"),
    ("core.sched.query.ns_mean", "ns", "lower"),
    ("core.sched.query.busy_pct", "%", "lower"),
    ("core.sched.share_error", "fraction", "lower"),
    ("core.buckets.scans_per_pick", "1/pick", "lower"),
    ("core.buckets.migrations_per_event", "1/event", "lower"),
    ("core.queues.steps_per_event", "1/event", "lower"),
    ("core.readjust.calls_per_event", "1/event", "lower"),
    ("core.readjust.weights_clamped", "count", "lower"),
    ("core.shard.steals_per_kpick", "1/kpick", "lower"),
    ("core.shard.rebalances", "count", "lower"),
    ("core.shard.wake_migrations_per_kpick", "1/kpick", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.ctx_switches", "count", "lower"),
    ("sim.engine.self_ns_per_event", "ns", "lower"),
    ("trace.sink_ns_per_event", "ns", "lower"),
    ("trace.record_ns_per_event", "ns", "lower"),
    ("trace.bytes_per_event", "B", "lower"),
    ("trace.events_per_engine_event", "1/event", "lower"),
    ("rt.wake_call_ns_p50", "ns", "lower"),
    ("rt.wake_call_ns_p99", "ns", "lower"),
    ("rt.wake_to_pick_us_p50", "us", "lower"),
    ("rt.wake_to_pick_us_p99", "us", "lower"),
    ("rt.pick_to_resume_us_p50", "us", "lower"),
    ("rt.pick_to_resume_us_p99", "us", "lower"),
    ("rt.sched_ns_per_decision", "ns", "lower"),
    ("rt.switches_per_s", "1/s", "higher"),
    ("bench.generator_lag_us_p99", "us", "lower"),
    ("bench.wrapper_overhead_pct", "%", "lower"),
];

/// Metrics printed for the reader but not part of the result line:
/// they are undefined on some workloads, or may legitimately be zero.
const EXTRA: [(&str, &str); 5] = [
    ("latency_us_p99", "lower"),
    ("share_error", "lower"),
    ("failed_ratio", "lower"),
    ("generator_lag_us_p99", "lower"),
    ("hops_per_s", "higher"),
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    unit: &'static str,
    samples: Option<usize>,
    note: String,
    extra: bool,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
            note: String::new(),
            extra: false,
        }
    }

    /// A metric for the human table and the record only.
    pub fn extra(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            extra: true,
            ..Metric::new(name, value, unit)
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    pub fn note(mut self, s: &str) -> Metric {
        self.note = s.to_string();
        self
    }

    fn better(&self) -> &'static str {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _, _)| *n == self.name)
            .map(|&(_, _, b)| b)
            .or_else(|| EXTRA.iter().find(|(n, _)| *n == self.name).map(|&(_, b)| b))
            .unwrap_or("lower")
    }
}

pub struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Measured repetitions inside this run.
    pub reps: usize,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Prints the report; returns whether every output check passed.
    pub fn print(&self, workload: &str, args: &Args) -> bool {
        let listed: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut result = Vec::with_capacity(listed.len());
        for &(name, unit, _) in listed {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name && !m.extra)
                .unwrap_or_else(|| panic!("metric {name} not measured"));
            assert_eq!(m.unit, unit, "unit of {name}");
            result.push(m);
        }
        assert_eq!(
            result.len(),
            self.metrics.iter().filter(|m| !m.extra).count(),
            "a metric outside the listed set was measured"
        );
        let correct = self.checks.iter().all(|c| c.ok);

        println!(
            "perfbench {workload} seed={} seconds={} trace={} repetitions={}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            self.reps
        );
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("n={n}")).unwrap_or_default();
            let tag = if m.extra { " [not in result]" } else { "" };
            println!(
                "  {:<38} {:>16.6} {:<8} {:<6} {:>10}  {}{}",
                m.name,
                m.value,
                m.unit,
                m.better(),
                n,
                m.note,
                tag
            );
        }
        for c in &self.checks {
            let status = if c.ok { "ok" } else { "FAILED" };
            println!("  check {status:<6} {}  {}", c.name, c.detail);
        }
        println!("{}", self.record_json(workload, args, correct));

        let metrics: Vec<String> = result
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }

    /// One self-describing line: where, when and how it was measured,
    /// and every metric with its unit, direction and sample count.
    fn record_json(&self, workload: &str, args: &Args, correct: bool) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": {}, \"samples\": {}, \"in_result\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    json_str(m.better()),
                    m.samples.map_or("null".to_string(), |n| n.to_string()),
                    !m.extra
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    json_str(c.name),
                    c.ok,
                    json_str(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"record\": {{\"benchmark\": \"perfbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"repetitions\": {}, \"host\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"git_rev\": {}, \"date\": {}, \"correct\": {correct}, \"metrics\": [{}], \"checks\": [{}]}}}}",
            json_str(workload),
            args.seed,
            args.seconds,
            args.trace,
            self.reps,
            json_str(&host()),
            json_str(&cpu_model()),
            json_str(&git_rev()),
            json_str(&utc_now()),
            metrics.join(", "),
            checks.join(", ")
        )
    }
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; "unknown" outside a checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem / 60 % 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// metrics, in this order, with these units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let entries = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("key present");
            let body = &text[start..];
            let end = body.find(']').expect("list closes");
            body[..end]
                .lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        };
        let want = |list: &[(&str, &str, &str)], bound: bool| -> Vec<String> {
            list.iter()
                .map(|(n, u, b)| {
                    let mut s =
                        format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"");
                    if bound {
                        s.push_str(", \"bound\": ");
                    }
                    s
                })
                .collect()
        };
        let e2e = entries("end_to_end");
        let w = want(&END_TO_END, true);
        assert_eq!(e2e.len(), w.len());
        for (got, want) in e2e.iter().zip(&w) {
            assert!(got.starts_with(want.as_str()), "{got} vs {want}");
        }
        let per = entries("per_layer");
        let w = want(&PER_LAYER, false);
        assert_eq!(per.len(), w.len());
        for (got, want) in per.iter().zip(&w) {
            assert_eq!(got, &format!("{want}}}"));
        }
    }

    #[test]
    fn utc_date_shape() {
        let d = utc_now();
        assert_eq!(d.len(), 20, "{d}");
        assert!(d.starts_with("20") && d.ends_with('Z'));
    }
}
