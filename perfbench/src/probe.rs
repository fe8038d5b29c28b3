//! Roofline probe: this machine's FMA peak per core and its streaming
//! memory bandwidth, measured in the same process as the workloads so
//! kernel throughput is never compared with a figure from another box.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Independent accumulator chains: enough to cover FMA latency times
/// the FMA ports of current x86 cores.
const CHAINS: usize = 12;
/// Measured rounds of each probe; the median is reported.
const ROUNDS: usize = 5;
/// Elements per stream array: 3 × 32 MiB, larger than the caches.
const STREAM_LEN: usize = 8 << 20;

/// The machine's measured ceilings.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// FMA throughput of one core, GFLOP/s (median over cores and rounds).
    pub fma_gflops: f64,
    /// Triad bandwidth of one core, GB/s (2 reads + 1 write counted).
    pub stream_gbps: f64,
}

/// Runs both probes (about 1.5 s).
pub fn measure() -> Roofline {
    Roofline {
        fma_gflops: fma_gflops(),
        stream_gbps: stream_gbps(),
    }
}

/// `iters` rounds of `x = x·m + c` over `CHAINS` independent vector
/// accumulators of the widest FMA the CPU has; returns a value that
/// depends on every lane, and the flops of one round.
fn fma_kernel(iters: u64) -> (f32, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked just above.
            return (unsafe { fma_avx512(iters) }, (CHAINS * 16 * 2) as f64);
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU supports AVX2 and FMA, checked just above.
            return (unsafe { fma_avx2(iters) }, (CHAINS * 8 * 2) as f64);
        }
    }
    let m = black_box(0.999_999_9f32);
    let c = black_box(1e-7f32);
    let mut acc: [f32; CHAINS] = std::array::from_fn(|i| i as f32 * 1e-3);
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(m, c);
        }
    }
    (acc.iter().sum(), (CHAINS * 2) as f64)
}

/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_avx512(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_reduce_add_ps, _mm512_set1_ps};
    let m = _mm512_set1_ps(black_box(0.999_999_9f32));
    let c = _mm512_set1_ps(black_box(1e-7f32));
    let mut acc: [_; CHAINS] = std::array::from_fn(|i| _mm512_set1_ps(i as f32 * 1e-3));
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm512_fmadd_ps(*a, m, c);
        }
    }
    acc.into_iter().map(|a| _mm512_reduce_add_ps(a)).sum()
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let m = _mm256_set1_ps(black_box(0.999_999_9f32));
    let c = _mm256_set1_ps(black_box(1e-7f32));
    let mut acc: [_; CHAINS] = std::array::from_fn(|i| _mm256_set1_ps(i as f32 * 1e-3));
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_ps(*a, m, c);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = 0.0;
    for a in acc {
        // SAFETY: `lanes` holds the 8 floats the store writes.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), a) };
        sum += lanes.iter().sum::<f32>();
    }
    sum
}

/// One core's FMA rate: the kernel sized to ~0.1 s, run on every core at
/// once so turbo and shared-core effects are those of a loaded machine.
fn fma_gflops() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let (_, flops_per_iter) = black_box(fma_kernel(100_000));
    let per_iter = t.elapsed().as_secs_f64() / 100_000.0;
    let iters = ((0.1 / per_iter) as u64).max(1_000);
    let mut rates = Vec::with_capacity(cores * ROUNDS);
    for _ in 0..ROUNDS {
        let barrier = Barrier::new(cores);
        let round: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cores)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let t = Instant::now();
                        black_box(fma_kernel(black_box(iters)));
                        iters as f64 * flops_per_iter / t.elapsed().as_secs_f64() / 1e9
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        rates.extend(round);
    }
    median(&rates)
}

/// Triad `a = b + s·c` over arrays larger than the caches, one core.
fn stream_gbps() -> f64 {
    let b = vec![1.0f32; STREAM_LEN];
    let c = vec![2.0f32; STREAM_LEN];
    let mut a = vec![0.0f32; STREAM_LEN];
    let s = black_box(0.5f32);
    let bytes = (3 * STREAM_LEN * std::mem::size_of::<f32>()) as f64;
    let mut rates = Vec::with_capacity(ROUNDS);
    // The first pass faults the pages in and is not counted.
    for round in 0..=ROUNDS {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        let dt = t.elapsed().max(Duration::from_nanos(1));
        if round > 0 {
            rates.push(bytes / dt.as_secs_f64() / 1e9);
        }
    }
    median(&rates)
}
