//! The profiler: measures real per-op compute times and memory on the CPU
//! substrate and packages them as a simulator cost model.
//!
//! The paper's implementation has three components (Section 6): "(1) a
//! profiler that measures the computation time and memory consumption for
//! each forward and backward pass; (2) an SVPP scheduler ...; (3) an
//! execution engine". This module is component (1): it runs each slice's
//! forward, input-gradient and weight-gradient passes standalone on one
//! model chunk, takes the fastest of several trials (standard
//! noise-rejection for wall-clock profiling), and measures the retained
//! activation bytes exactly. The result implements
//! [`mepipe_sim::SimCost`], closing the loop: profile → schedule →
//! simulate → execute on the same numbers.

use std::time::Instant;

use mepipe_schedule::ir::{Op, OpKind};
use mepipe_sim::SimCost;
use mepipe_tensor::{init, KernelPool, Tensor, TensorArena};

use crate::{
    layer::{apply_wgrads, backward_input_slice, forward_slice, Kv, WeightImages},
    params::ModelParams,
};

/// Measured per-slice costs of one pipeline chunk.
#[derive(Debug, Clone)]
pub struct ProfiledCosts {
    /// Forward time per slice index, seconds.
    pub forward: Vec<f64>,
    /// Input-gradient backward time per slice index, seconds.
    pub backward_input: Vec<f64>,
    /// Weight-gradient time (slice-independent — dense GEMMs only).
    pub wgrad: f64,
    /// Weight-gradient GEMMs per unit.
    pub wgrad_units: usize,
    /// Bytes retained per in-flight forward unit.
    pub activation_bytes: f64,
    /// Extra bytes retained per unit with deferred weight work.
    pub deferred_bytes: f64,
    /// Boundary tensor bytes (per inter-stage transfer).
    pub boundary_bytes: usize,
    /// Assumed transfer time per hop, seconds (configurable by caller).
    pub transfer_time: f64,
}

/// Profiles one chunk of `layers_per_chunk` layers at slice granularity
/// with single-threaded kernels.
///
/// # Panics
///
/// Panics if the model has fewer layers than `layers_per_chunk` or the
/// sequence does not divide into `slices`.
pub fn profile_chunk(
    model: &ModelParams,
    layers_per_chunk: usize,
    slices: usize,
    trials: usize,
) -> ProfiledCosts {
    profile_chunk_in(
        KernelPool::shared_serial(),
        model,
        layers_per_chunk,
        slices,
        trials,
    )
}

/// [`profile_chunk`] with the kernels on `pool` — profile with the same
/// pool the runtime will execute with, so the simulator's cost model
/// reflects kernel-level parallelism.
///
/// # Panics
///
/// Panics if the model has fewer layers than `layers_per_chunk` or the
/// sequence does not divide into `slices`.
pub fn profile_chunk_in(
    pool: &KernelPool,
    model: &ModelParams,
    layers_per_chunk: usize,
    slices: usize,
    trials: usize,
) -> ProfiledCosts {
    let cfg = &model.cfg;
    assert!(
        layers_per_chunk <= model.cfg.layers,
        "chunk larger than model"
    );
    assert_eq!(cfg.seq_len % slices, 0, "slices must divide the sequence");
    assert!(trials > 0, "need at least one trial");
    let ts = cfg.seq_len / slices;
    let mut rng = init::rng(0xC0FFEE);
    // Trials reuse the same shapes, so a local arena makes every trial
    // after the first allocation-free — matching how the runtime itself
    // executes, which is what the profiled times should reflect.
    let mut arena = TensorArena::new();
    let _arena_scope = arena.install();
    // Weight images, packed in the first trial and reused after it, as a
    // pipeline stage reuses them across the slices of an iteration.
    let mut images = WeightImages::new(model.layers.len());

    let mut forward = vec![f64::INFINITY; slices];
    let mut backward_input = vec![f64::INFINITY; slices];
    let mut wgrad = f64::INFINITY;
    let mut activation_bytes = 0.0f64;

    for _ in 0..trials {
        // Fresh caches per trial; slices must run in order for the KV
        // prefixes to exist.
        let mut kvs: Vec<Kv> = (0..layers_per_chunk).map(|_| Kv::default()).collect();
        let mut saves: Vec<Vec<crate::layer::LayerFwdSaved>> = Vec::new();
        let mut inputs: Vec<Tensor> = Vec::new();
        for (sl, slot) in forward.iter_mut().enumerate() {
            let x = init::uniform(ts, cfg.hidden, 1.0, &mut rng);
            let t0 = Instant::now();
            let mut cur = x.clone();
            let mut per_layer = Vec::with_capacity(layers_per_chunk);
            for (li, kv) in kvs.iter_mut().enumerate() {
                let w = images.forward(model, li);
                let (y, sv) =
                    forward_slice(pool, &model.layers[li], w, &cur, kv, sl * ts, cfg.heads);
                per_layer.push(sv);
                cur = y;
            }
            *slot = slot.min(t0.elapsed().as_secs_f64());
            activation_bytes = activation_bytes
                .max(per_layer.iter().map(|s| s.bytes()).sum::<usize>() as f64 + x.bytes() as f64);
            saves.push(per_layer);
            inputs.push(x);
        }
        // Backwards in reverse slice order, timing Bi and W separately.
        let mut dkvs: Vec<Kv> = (0..layers_per_chunk).map(|_| Kv::default()).collect();
        for sl in (0..slices).rev() {
            let dy = init::uniform(ts, cfg.hidden, 1.0, &mut rng);
            let mut gemms = Vec::new();
            let t0 = Instant::now();
            let mut cur = dy;
            for li in (0..layers_per_chunk).rev() {
                let out = backward_input_slice(
                    pool,
                    &model.layers[li],
                    images.dgrad(model, li),
                    &saves[sl][li],
                    &kvs[li],
                    &mut dkvs[li],
                    &cur,
                );
                cur = out.dx;
                gemms.push((li, out.wgrads));
            }
            backward_input[sl] = backward_input[sl].min(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let mut grads: Vec<_> = model.layers[..layers_per_chunk]
                .iter()
                .map(|l| l.zero_grads())
                .collect();
            for (li, g) in &gemms {
                apply_wgrads(pool, &mut grads[*li], g);
            }
            wgrad = wgrad.min(t1.elapsed().as_secs_f64());
        }
    }

    let boundary_bytes = ts * cfg.hidden * std::mem::size_of::<f32>();
    ProfiledCosts {
        forward,
        backward_input,
        wgrad,
        wgrad_units: 7 * layers_per_chunk,
        activation_bytes,
        deferred_bytes: 2.0 * (ts * cfg.hidden * std::mem::size_of::<f32>()) as f64,
        boundary_bytes,
        transfer_time: 0.0,
    }
}

impl SimCost for ProfiledCosts {
    fn duration(&self, _stage: usize, op: Op) -> f64 {
        match op.kind {
            OpKind::Forward => self.forward[op.slice],
            OpKind::BackwardInput => self.backward_input[op.slice],
            OpKind::Backward => self.backward_input[op.slice] + self.wgrad,
            OpKind::BackwardWeight => self.wgrad,
        }
    }

    fn transfer_time(&self, _from: usize, _to: usize) -> f64 {
        self.transfer_time
    }

    fn wgrad_time(&self, _stage: usize, _op: Op) -> f64 {
        self.wgrad
    }

    fn wgrad_units(&self) -> usize {
        self.wgrad_units
    }

    fn activation_bytes(&self) -> f64 {
        self.activation_bytes
    }

    fn deferred_bytes(&self) -> f64 {
        self.deferred_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_core::svpp::Mepipe;
    use mepipe_model::config::TransformerConfig;
    use mepipe_schedule::generator::{Dims, ScheduleGenerator};
    use mepipe_sim::engine::{simulate, SimConfig};

    fn profiled() -> ProfiledCosts {
        let cfg = TransformerConfig {
            seq_len: 256,
            ..TransformerConfig::tiny(2)
        };
        let model = ModelParams::init(cfg, 5);
        profile_chunk(&model, 2, 4, 3)
    }

    #[test]
    fn profile_measures_the_slice_imbalance() {
        // The attention prefix grows with the slice index, so the *real*
        // measured time of the last slice exceeds the first — the very
        // imbalance Section 5's scheduling absorbs.
        let p = profiled();
        assert_eq!(p.forward.len(), 4);
        assert!(p.forward.iter().all(|&t| t > 0.0));
        assert!(
            p.forward[3] > p.forward[0],
            "slice 3 ({}) should cost more than slice 0 ({})",
            p.forward[3],
            p.forward[0]
        );
        assert!(p.backward_input[3] > p.backward_input[0]);
    }

    #[test]
    fn wgrad_is_cheaper_than_backward() {
        let p = profiled();
        assert!(p.wgrad > 0.0);
        assert!(p.wgrad < p.backward_input[3] * 1.5);
    }

    #[test]
    fn profiled_costs_drive_the_simulator() {
        let p = profiled();
        let sch = Mepipe::new().generate(&Dims::new(2, 4).slices(4)).unwrap();
        let r = simulate(
            &sch,
            &p,
            &SimConfig {
                dynamic_wgrad: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.makespan > 0.0);
        assert!(r.bubble_ratio() < 0.9);
        assert!(r.peak_activation_bytes[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "slices must divide")]
    fn bad_slice_count_panics() {
        let cfg = TransformerConfig {
            seq_len: 250,
            ..TransformerConfig::tiny(2)
        };
        let model = ModelParams::init(cfg, 5);
        profile_chunk(&model, 2, 4, 1);
    }
}
