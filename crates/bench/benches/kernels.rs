//! The kernel-engine benchmark: blocked/packed kernels vs the naive
//! scalar reference, plus worker-pool scaling. Results are printed and
//! written to `BENCH_kernels.json` at the repo root, so the measured
//! speedups quoted in README/DESIGN stay reproducible from one command
//! (`scripts/bench_kernels.sh`).

use criterion::black_box;
use mepipe_bench::timer::{time, Sampling};
use mepipe_tensor::{
    init::{rng, uniform},
    ops::{
        causal_attention_backward_in, causal_attention_heads_backward_in,
        causal_attention_heads_in, causal_attention_in, cross_entropy_in, matmul_dgrad_in,
        matmul_in, matmul_packed_in, matmul_wgrad_in, naive, rmsnorm_in, AttentionGrads,
        PackedWeight,
    },
    KernelPool, Tensor,
};

fn gflops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    2.0 * (m * n * k) as f64 / secs / 1e9
}

fn main() {
    let serial = KernelPool::serial();
    let mut json = String::from("{\n");

    // --- Matmul trio: naive vs kernel engine, single thread. The trio
    // packs B on every call; `packed_s` is the forward GEMM on a weight
    // image packed beforehand, as the training runtime runs it. ---
    println!("== matmul: naive scalar vs blocked/packed kernel (1 worker) ==");
    json.push_str("  \"matmul\": [\n");
    let mut first = true;
    for n in [256usize, 512] {
        let mut r = rng(1);
        let a = uniform(n, n, 1.0, &mut r);
        let b = uniform(n, n, 1.0, &mut r);
        let dc = uniform(n, n, 1.0, &mut r);
        let t_naive = time(Sampling::KERNEL, || {
            black_box(naive::matmul(&a, &b));
        });
        let t_kernel = time(Sampling::KERNEL, || {
            black_box(matmul_in(&serial, &a, &b));
        });
        let t_dgrad = time(Sampling::KERNEL, || {
            black_box(matmul_dgrad_in(&serial, &dc, &b));
        });
        let t_wgrad = time(Sampling::KERNEL, || {
            black_box(matmul_wgrad_in(&serial, &a, &dc));
        });
        let image = PackedWeight::forward(&b);
        let t_packed = time(Sampling::KERNEL, || {
            black_box(matmul_packed_in(&serial, &a, &image));
        });
        let speedup = t_naive / t_kernel;
        println!(
            "  {n}x{n}x{n}: naive {:.1} ms ({:.2} GF/s) | kernel {:.1} ms ({:.2} GF/s) | {speedup:.2}x | dgrad {:.1} ms | wgrad {:.1} ms | prepacked {:.1} ms",
            t_naive * 1e3,
            gflops(n, n, n, t_naive),
            t_kernel * 1e3,
            gflops(n, n, n, t_kernel),
            t_dgrad * 1e3,
            t_wgrad * 1e3,
            t_packed * 1e3,
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"shape\": {n}, \"naive_s\": {t_naive:.6}, \"kernel_s\": {t_kernel:.6}, \"dgrad_s\": {t_dgrad:.6}, \"wgrad_s\": {t_wgrad:.6}, \"packed_s\": {t_packed:.6}, \"speedup\": {speedup:.2}, \"kernel_gflops\": {:.2}}}",
            gflops(n, n, n, t_kernel)
        ));
    }
    // 1024 is kernel-only: the naive loop would dominate the bench's
    // wall-clock for a number the 512 point already establishes.
    {
        let n = 1024usize;
        let mut r = rng(1);
        let a = uniform(n, n, 1.0, &mut r);
        let b = uniform(n, n, 1.0, &mut r);
        let t_kernel = time(Sampling::KERNEL, || {
            black_box(matmul_in(&serial, &a, &b));
        });
        println!(
            "  {n}x{n}x{n}: kernel {:.1} ms ({:.2} GF/s) (naive skipped at this size)",
            t_kernel * 1e3,
            gflops(n, n, n, t_kernel)
        );
        json.push_str(&format!(
            ",\n    {{\"shape\": {n}, \"kernel_s\": {t_kernel:.6}, \"kernel_gflops\": {:.2}}}\n  ],\n",
            gflops(n, n, n, t_kernel)
        ));
    }

    // --- Worker scaling at 512, fixed grain => bit-identical results.
    // 512³ sits below the engine's parallel break-even floor, so the
    // pool is ignored there: the row here documents that multi-worker
    // no longer *loses* to single-worker at sub-break-even shapes
    // (scaling pins to ~1.0x instead of the old 0.9x). ---
    println!("== matmul 512 worker scaling ==");
    json.push_str("  \"worker_scaling_512\": [\n");
    let mut r = rng(2);
    let a = uniform(512, 512, 1.0, &mut r);
    let b = uniform(512, 512, 1.0, &mut r);
    let mut base = 0.0f64;
    for (i, workers) in [1usize, 2, 4].into_iter().enumerate() {
        let pool = KernelPool::new(workers);
        let t = time(Sampling::KERNEL, || {
            black_box(matmul_in(&pool, &a, &b));
        });
        if workers == 1 {
            base = t;
        }
        println!(
            "  workers={workers}: {:.1} ms ({:.2}x vs 1 worker)",
            t * 1e3,
            base / t
        );
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    {{\"workers\": {workers}, \"kernel_s\": {t:.6}, \"scaling\": {:.2}}}",
            base / t
        ));
    }
    json.push_str("\n  ],\n");

    // --- Fused attention vs naive (explicit transposes). ---
    println!("== causal attention t=256 d=64 prefix=512 ==");
    let mut r = rng(3);
    let (t_len, d, offset) = (256usize, 64usize, 256usize);
    let q = uniform(t_len, d, 1.0, &mut r);
    let k = uniform(offset + t_len, d, 1.0, &mut r);
    let v = uniform(offset + t_len, d, 1.0, &mut r);
    let dout = uniform(t_len, d, 1.0, &mut r);
    let t_fwd_naive = time(Sampling::KERNEL, || {
        black_box(naive::causal_attention(&q, &k, &v, offset));
    });
    let t_fwd = time(Sampling::KERNEL, || {
        black_box(causal_attention_in(&serial, &q, &k, &v, offset));
    });
    let (_, saved) = causal_attention_in(&serial, &q, &k, &v, offset);
    let (_, probs) = naive::causal_attention(&q, &k, &v, offset);
    let t_bwd_naive = time(Sampling::KERNEL, || {
        black_box(naive::causal_attention_backward(&dout, &q, &k, &v, &probs));
    });
    let t_bwd = time(Sampling::KERNEL, || {
        black_box(causal_attention_backward_in(
            &serial, &dout, &q, &k, &v, &saved,
        ));
    });
    println!(
        "  fwd: naive {:.2} ms | fused {:.2} ms ({:.2}x)   bwd: naive {:.2} ms | fused {:.2} ms ({:.2}x)",
        t_fwd_naive * 1e3,
        t_fwd * 1e3,
        t_fwd_naive / t_fwd,
        t_bwd_naive * 1e3,
        t_bwd * 1e3,
        t_bwd_naive / t_bwd,
    );
    json.push_str(&format!(
        "  \"attention\": {{\"t\": {t_len}, \"d\": {d}, \"offset\": {offset}, \"fwd_naive_s\": {t_fwd_naive:.6}, \"fwd_fused_s\": {t_fwd:.6}, \"bwd_naive_s\": {t_bwd_naive:.6}, \"bwd_fused_s\": {t_bwd:.6}}},\n"
    ));

    // --- One layer-slice of multi-head attention at the fine_uds shape
    // (16-token slices of a hidden-64, 4-head model, last slice of a
    // 128-token sequence): every head read in place, dK/dV accumulated
    // into whole-sample buffers. ---
    let (t_len, width, heads, offset) = (16usize, 64usize, 4usize, 112usize);
    println!("== multi-head slice attention t={t_len} h={width} heads={heads} offset={offset} ==");
    let mut r = rng(5);
    let c = offset + t_len;
    let q = uniform(t_len, width, 1.0, &mut r);
    let k = uniform(c, width, 1.0, &mut r);
    let v = uniform(c, width, 1.0, &mut r);
    let dout = uniform(t_len, width, 1.0, &mut r);
    let t_fwd = time(Sampling::KERNEL, || {
        black_box(causal_attention_heads_in(
            &serial, &q, &k, &v, offset, heads,
        ));
    });
    let (_, saved) = causal_attention_heads_in(&serial, &q, &k, &v, offset, heads);
    let mut dq = Tensor::zeros(t_len, width);
    let mut dk = Tensor::zeros(c, width);
    let mut dv = Tensor::zeros(c, width);
    let t_bwd = time(Sampling::KERNEL, || {
        let grads = AttentionGrads {
            dq: &mut dq,
            dk: &mut dk,
            dv: &mut dv,
        };
        causal_attention_heads_backward_in(&serial, &dout, &q, &k, &v, &saved, grads);
    });
    println!(
        "  fwd {:.1} us | bwd {:.1} us (all heads)",
        t_fwd * 1e6,
        t_bwd * 1e6
    );
    json.push_str(&format!(
        "  \"attention_heads\": {{\"t\": {t_len}, \"h\": {width}, \"heads\": {heads}, \"offset\": {offset}, \"fwd_s\": {t_fwd:.8}, \"bwd_s\": {t_bwd:.8}}},\n"
    ));

    // --- RMSNorm and cross-entropy (pooled row kernels). ---
    let mut r = rng(4);
    let x = uniform(512, 1024, 1.0, &mut r);
    let w = Tensor::from_vec(1, 1024, vec![1.0; 1024]);
    let t_rms = time(Sampling::KERNEL, || {
        black_box(rmsnorm_in(&serial, &x, &w));
    });
    let logits = uniform(512, 1024, 1.0, &mut r);
    let targets: Vec<usize> = (0..512).map(|i| i % 1024).collect();
    let t_ce = time(Sampling::KERNEL, || {
        black_box(cross_entropy_in(&serial, &logits, &targets));
    });
    println!(
        "== rmsnorm 512x1024: {:.2} ms | cross-entropy 512x1024: {:.2} ms ==",
        t_rms * 1e3,
        t_ce * 1e3
    );
    json.push_str(&format!(
        "  \"rmsnorm_512x1024_s\": {t_rms:.6},\n  \"cross_entropy_512x1024_s\": {t_ce:.6}\n}}\n"
    ));

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(out, &json).expect("write BENCH_kernels.json");
    println!("wrote {out}");
}
