//! Order statistics and a seeded generator.

/// Quantile `p` of `values` with linear interpolation between ranks
/// (NaN for an empty slice).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: the benchmark draws all of its inputs from this, so they
/// depend on the seed alone and not on the library's generators.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The CPU time this process has used so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). The in-process workloads time their
/// operations on this clock rather than on the wall clock: on a shared
/// virtual machine the host takes the virtual CPU away for a share of the
/// time that changes from minute to minute (a fifth to a third of a run's
/// wall time here while other tenants were busy), and the kernel leaves
/// that stolen time out of a process's CPU time. The timed calls neither
/// block nor sleep, so on an idle host the two clocks agree; threads the
/// library starts would be counted too.
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// FNV-1a, for comparing emitted artifacts without keeping them.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One whole pass over a workload's operations: its time and each
/// operation's latency, in seconds (CPU seconds for the in-process
/// workloads, see [`cpu_now`]).
pub struct Timed {
    pub secs: f64,
    pub latencies: Vec<f64>,
}

impl Timed {
    fn rate(&self) -> f64 {
        self.latencies.len() as f64 / self.secs
    }
}

/// Throughput and latency quantiles over a set of whole passes.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    /// Operations per second of the passes' time.
    pub rate: f64,
    pub p50_ms: f64,
    /// The workload's tail percentile.
    pub tail_ms: f64,
}

impl Figures {
    /// `tail` is the tail percentile as a fraction.
    fn of(passes: &[&Timed], tail: f64) -> Self {
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.latencies.iter().copied())
            .collect();
        let secs: f64 = passes.iter().map(|p| p.secs).sum();
        Figures {
            rate: latencies.len() as f64 / secs,
            p50_ms: quantile(&latencies, 0.5) * 1e3,
            tail_ms: quantile(&latencies, tail) * 1e3,
        }
    }
}

/// The passes of the faster half, leaving out its fastest tenth: the
/// passes ranked by rate from `len / 10` to `len / 2`, and at least
/// `min_passes` of them. Interference from other tenants only slows a
/// pass down, so the slower half is left out; the fastest tenth is left
/// out too, because on a shared host it holds short bursts of speed
/// that come in some runs and not in others.
fn faster_half(len: usize, min_passes: usize) -> std::ops::Range<usize> {
    let from = (len / 10).min(len.saturating_sub(min_passes));
    from..(len / 2).max(from + min_passes).min(len)
}

/// The figures of the faster half of the passes by rate, without its
/// fastest tenth (see [`faster_half`]), taking at least enough passes to
/// hold `min_ops` operations: throughput is their operations over their
/// summed time, and p50 and the tail are taken over their
/// operations pooled. Every figure comes from passes that ran whole.
/// Prints them beside the median pass's figures and every pass's rate,
/// in run order.
pub fn fast_passes(workload: &str, passes: &[Timed], min_ops: usize, tail: f64) -> Figures {
    let mut sorted: Vec<&Timed> = passes.iter().collect();
    sorted.sort_by(|a, b| b.rate().total_cmp(&a.rate()));
    let per_pass = sorted[0].latencies.len().max(1);
    let range = faster_half(passes.len(), min_ops.div_ceil(per_pass).max(1));
    let fast = Figures::of(&sorted[range.clone()], tail);
    let rates: Vec<String> = passes.iter().map(|p| format!("{:.0}", p.rate())).collect();
    println!(
        "{workload}: reported (passes {range:?} of {} by rate) {fast:?}; median pass {:?}; pass rates {}",
        passes.len(),
        Figures::of(&sorted[passes.len() / 2..][..1], tail),
        rates.join(" ")
    );
    fast
}

/// The mean of a run's set-up times over the faster half without its
/// fastest tenth, as for the passes. Prints them all, in run order.
pub fn fast_setup(workload: &str, times: &[f64]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ms: Vec<String> = times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    println!("{workload}: set-ups (ms) {}", ms.join(" "));
    mean(&sorted[faster_half(times.len(), 1)])
}

/// Whether set-up `done` of `reps` is due `elapsed` into a run of
/// `run`: set-ups are spread evenly over the run, so they meet the
/// host's slow and fast phases as the passes do.
pub fn setup_due(
    done: usize,
    reps: usize,
    elapsed: std::time::Duration,
    run: std::time::Duration,
) -> bool {
    done < reps && elapsed.as_secs_f64() >= run.as_secs_f64() * done as f64 / reps as f64
}
