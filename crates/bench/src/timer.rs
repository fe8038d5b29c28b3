//! The one timing helper the hand-rolled benches (`train`, `comm`,
//! `kernels`) share.

use std::time::Instant;

/// How [`time`] samples a closure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampling {
    /// Target wall time of one sample, in seconds.
    pub sample_secs: f64,
    /// Upper bound on calls per sample.
    pub max_calls: usize,
    /// Calls per sample when the warm-up call reads as zero time.
    pub calls_if_instant: usize,
    /// Samples taken; the fastest wins.
    pub samples: usize,
}

impl Sampling {
    /// Whole training iterations: ~0.5 s per sample, at most 8 calls per
    /// sample, 5 samples.
    pub const STEP: Sampling = Sampling {
        sample_secs: 0.5,
        max_calls: 8,
        calls_if_instant: 4,
        samples: 5,
    };

    /// Single kernels: ~60 ms per sample, at most 50 calls per sample,
    /// 7 samples.
    pub const KERNEL: Sampling = Sampling {
        sample_secs: 0.06,
        max_calls: 50,
        calls_if_instant: 16,
        samples: 7,
    };
}

/// Seconds per call of `f`: the *minimum* over `sampling.samples`
/// samples after one warm-up call. The min, not the mean, is the
/// noise-robust estimator on a shared machine — interference only ever
/// adds time, so the fastest sample is the closest to the true cost.
pub fn time<F: FnMut()>(sampling: Sampling, mut f: F) -> f64 {
    let warm = Instant::now();
    f();
    let once = warm.elapsed().as_secs_f64();
    let per_sample = if once <= 0.0 {
        sampling.calls_if_instant
    } else {
        ((sampling.sample_secs / once) as usize).clamp(1, sampling.max_calls)
    };
    let mut best = f64::INFINITY;
    for _ in 0..sampling.samples {
        let start = Instant::now();
        for _ in 0..per_sample {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / per_sample as f64);
    }
    best
}
