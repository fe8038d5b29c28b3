//! Per-layer micro-timings, taken from outside each crate through its
//! public functions: tensor kernels on a training workload's exact slice
//! shapes, and the planner's cost model, generators and simulator on
//! every candidate of a search grid.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mepipe_core::svpp::{Mepipe, SvppConfig};
use mepipe_core::Synth;
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::{config::TransformerConfig, memory, ExecutionCost};
use mepipe_schedule::generator::ScheduleGenerator;
use mepipe_sim::{simulate, ModelCost, SimConfig};
use mepipe_strategy::{enumerate_candidates, Method};
use mepipe_tensor::{init, ops, Tensor, TensorArena};

use crate::probe::Roofline;
use crate::report::Report;
use crate::stats::median;

/// Wall time spent timing one kernel call shape.
const KERNEL_BUDGET: Duration = Duration::from_millis(60);
/// Calls are batched into samples of at least this long, so timer
/// resolution does not matter for microsecond kernels.
const MIN_SAMPLE: Duration = Duration::from_micros(500);

/// Median seconds per call of `f`, over samples filling `budget`.
pub fn time_call<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().max(Duration::from_nanos(1));
    let per_sample = (MIN_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_sample {
            black_box(f());
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(per_sample));
    }
    median(&samples)
}

fn random(rows: usize, cols: usize, seed: u64) -> Tensor {
    init::uniform(rows, cols, 1.0, &mut init::rng(seed))
}

/// Times the tensor kernels one decoder layer runs per slice, single
/// threaded, at `cfg`'s shapes cut into `slices` slices, with an arena
/// installed as on a stage thread.
pub fn tensor_kernels(cfg: &TransformerConfig, slices: usize, roof: &Roofline, r: &mut Report) {
    let mut arena = TensorArena::new();
    let _scope = arena.install();
    let t = cfg.seq_len / slices;
    let (h, f) = (cfg.hidden, cfg.ffn_hidden);
    // (k, n, uses per layer): q/k/v/o, gate/up, down.
    let shapes = [(h, h, 4.0), (h, f, 2.0), (f, h, 1.0)];
    let mut flops = 0.0;
    let mut secs = [0.0f64; 3];
    for (i, &(k, n, uses)) in shapes.iter().enumerate() {
        let x = random(t, k, 1 + i as u64);
        let w = random(k, n, 11 + i as u64);
        let dy = random(t, n, 21 + i as u64);
        flops += uses * 2.0 * (t * k * n) as f64;
        secs[0] += uses * time_call(KERNEL_BUDGET, || ops::matmul(&x, &w));
        secs[1] += uses * time_call(KERNEL_BUDGET, || ops::matmul_dgrad(&dy, &w));
        secs[2] += uses * time_call(KERNEL_BUDGET, || ops::matmul_wgrad(&x, &dy));
    }
    let gf = |s: f64| flops / s / 1e9;
    let total = 3.0 * flops / secs.iter().sum::<f64>() / 1e9;
    r.set("tensor.gemm_gflops", total);
    r.set("tensor.gemm_peak_frac", total / roof.fma_gflops);
    let kinds = [
        ("tensor.gemm_fwd_gflops", "tensor.gemm_fwd_peak_frac"),
        ("tensor.gemm_dgrad_gflops", "tensor.gemm_dgrad_peak_frac"),
        ("tensor.gemm_wgrad_gflops", "tensor.gemm_wgrad_peak_frac"),
    ];
    for ((rate, frac), s) in kinds.into_iter().zip(secs) {
        r.set(rate, gf(s));
        r.set(frac, gf(s) / roof.fma_gflops);
    }

    // Attention per slice, all heads, averaged over the slice positions
    // (later slices attend over a longer prefix).
    let hd = cfg.head_dim();
    let mut fwd = 0.0;
    let mut bwd = 0.0;
    for s in 0..slices {
        let offset = s * t;
        let q = random(t, hd, 31);
        let k = random(offset + t, hd, 32);
        let v = random(offset + t, hd, 33);
        let dout = random(t, hd, 34);
        let (_, saved) = ops::causal_attention(&q, &k, &v, offset);
        fwd += time_call(KERNEL_BUDGET, || ops::causal_attention(&q, &k, &v, offset));
        bwd += time_call(KERNEL_BUDGET, || {
            ops::causal_attention_backward(&dout, &q, &k, &v, &saved)
        });
    }
    let per_slice_us = |secs: f64| secs * cfg.heads as f64 / slices as f64 * 1e6;
    r.set("tensor.attn_fwd_us", per_slice_us(fwd));
    r.set("tensor.attn_bwd_us", per_slice_us(bwd));

    let x = random(t, h, 41);
    let norm_w = Tensor::from_vec(1, h, vec![1.0; h]);
    r.set(
        "tensor.rmsnorm_us",
        time_call(KERNEL_BUDGET, || ops::rmsnorm(&x, &norm_w)) * 1e6,
    );
    let gate = random(t, f, 42);
    r.set(
        "tensor.silu_us",
        time_call(KERNEL_BUDGET, || ops::silu(&gate)) * 1e6,
    );
    let logits = random(t, cfg.vocab, 43);
    let targets: Vec<usize> = (0..t).map(|i| (i * 7919) % cfg.vocab).collect();
    r.set(
        "tensor.xent_us",
        time_call(KERNEL_BUDGET, || ops::cross_entropy(&logits, &targets)) * 1e6,
    );
}

/// Times the planner's public building blocks once per candidate of the
/// search grid of every method at each global batch size: the cost
/// model, the schedule generator (with the memory knob the search would
/// give it) and the simulator.
pub fn planner(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    batches: &[usize],
    r: &mut Report,
) {
    let usable = cluster.accelerator.usable_memory_bytes();
    let mut cost_s = Vec::new();
    let mut synth_s = Vec::new();
    let mut svpp_s = Vec::new();
    let mut template_s = Vec::new();
    let mut sim_s = Vec::new();
    let (mut sim_ops, mut sim_total) = (0usize, 0.0f64);
    for &gbs in batches {
        for method in Method::all() {
            for cand in enumerate_candidates(method, model, cluster, gbs) {
                let t = Instant::now();
                let cost = ExecutionCost::new(*model, cand.spec, cluster);
                cost_s.push(t.elapsed().as_secs_f64());
                let Ok(cost) = cost else { continue };
                let dims = cand.dims();
                let units = memory::max_in_flight_units(model, &cand.spec, usable);
                let floor = SvppConfig::from_dims(&dims).min_warmup();
                let t = Instant::now();
                let (schedule, bucket) = match method {
                    Method::Mepipe if units >= floor => {
                        let f = units.min(SvppConfig::from_dims(&dims).max_warmup());
                        (Mepipe::new().warmup_cap(f).generate(&dims), &mut svpp_s)
                    }
                    Method::Synth if units >= floor => {
                        (Synth::new().cap(units).generate(&dims), &mut synth_s)
                    }
                    // Below the floor the search rejects the candidate
                    // before generating anything.
                    Method::Mepipe | Method::Synth => continue,
                    _ => (method.generate(&dims), &mut template_s),
                };
                bucket.push(t.elapsed().as_secs_f64());
                let Ok(schedule) = schedule else { continue };
                let fine = matches!(
                    method,
                    Method::Mepipe | Method::DualPipe | Method::Blocks | Method::Synth
                );
                let sim_cost = if fine {
                    ModelCost::new(cost)
                } else {
                    ModelCost::new_coarse(cost)
                };
                let config = SimConfig {
                    dynamic_wgrad: !matches!(method, Method::Dapple | Method::Vpp),
                    ..SimConfig::default()
                };
                let t = Instant::now();
                let sim = simulate(&schedule, &sim_cost, &config);
                let dt = t.elapsed().as_secs_f64();
                black_box(sim.ok());
                sim_s.push(dt);
                sim_ops += schedule.workers.iter().map(Vec::len).sum::<usize>();
                sim_total += dt;
            }
        }
    }
    let ms = |v: &[f64]| median(v) * 1e3;
    r.set("model.cost_ms", ms(&cost_s));
    r.set("core.synth_generate_ms", ms(&synth_s));
    r.set("core.svpp_generate_ms", ms(&svpp_s));
    r.set("schedule.generate_ms", ms(&template_s));
    r.set("sim.simulate_ms", ms(&sim_s));
    r.set("sim.ops_per_s", sim_ops as f64 / sim_total.max(1e-12));
    println!(
        "planner grid: {} candidates, {} generated, {} simulated",
        cost_s.len(),
        synth_s.len() + svpp_s.len() + template_s.len(),
        sim_s.len()
    );
}
