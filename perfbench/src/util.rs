//! Small helpers: the seeded input generator, percentile and median
//! summaries, and JSON text output (the benchmark has no dependencies
//! beyond the program under test).

use std::fmt::Write as _;

/// SplitMix64: every workload input is drawn from one of these, seeded
/// from `--seed`, so the same seed always yields the same calls.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// A uniformly chosen element.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two i64 fields
    // on 64-bit Linux, the only target this benchmark builds for), and
    // both clock ids are valid for the calling thread and process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread, in nanoseconds. Unlike wall time it
/// excludes the time the host stole from this VM (paravirtual steal
/// accounting), so rates taken over it stay comparable while co-tenants
/// load the host.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// A uniform random subsample of at most `cap` observations (Algorithm
/// R), so a sample buffer's memory does not grow with throughput and
/// skew the peak-RSS metric.
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: Rng,
    pub samples: Vec<f64>,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            rng: Rng::new(seed),
            samples: Vec::with_capacity(cap),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.samples[j] = x;
            }
        }
    }

    /// Observations offered, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Lower quartile of a non-empty sample (nearest rank).
pub fn lower_quartile(xs: &[f64]) -> f64 {
    Dist::new(xs.to_vec()).pct(25.0)
}

/// A sorted sample for percentile queries.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut xs: Vec<f64>) -> Dist {
        xs.sort_by(f64::total_cmp);
        Dist { sorted: xs }
    }

    /// Nearest-rank percentile; 0.0 for an empty sample.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p)]
    }

    /// Samples strictly above the `p` percentile's rank.
    pub fn beyond(&self, p: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - 1 - self.rank(p)
    }

    fn rank(&self, p: f64) -> usize {
        let n = self.sorted.len();
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
    }
}

/// Renders a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number as JSON with every digit Rust keeps.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value");
    format!("{x:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.pct(50.0), 500.0);
        assert_eq!(d.pct(99.0), 990.0);
        assert_eq!(d.beyond(99.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1_000, 1);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples.len(), 1_000);
        assert_eq!(r.seen(), 100_000);
        let mid = Dist::new(r.samples.clone()).pct(50.0);
        assert!((40_000.0..60_000.0).contains(&mid), "median {mid}");
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x ^ i.wrapping_mul(3));
        }
        let (t1, p1) = (thread_cpu_ns(), process_cpu_ns());
        assert!(t1 > t0 && p1 > p0, "{x}");
        // Sub-millisecond resolution, unlike the tick-based schedstat.
        assert!(t1 - t0 < 50_000_000, "{}", t1 - t0);
    }

    #[test]
    fn json_text() {
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_num(3.0), "3.0");
    }
}
