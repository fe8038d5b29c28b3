//! Optimizers: plain SGD and Adam.

use mepipe_tensor::Tensor;

use crate::params::{LayerParams, ModelParams};

/// Plain SGD: `w ← w − lr · g`.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Applies one step to a tensor. An empty gradient — a parameter a
    /// stage's gradient shard did not write — leaves the weight as it is.
    pub fn step_tensor(&self, w: &mut Tensor, g: &Tensor) {
        if g.is_empty() {
            return;
        }
        for (a, b) in w.data_mut().iter_mut().zip(g.data()) {
            *a -= self.lr * b;
        }
    }

    /// Applies one step to a layer.
    pub fn step_layer(&self, p: &mut LayerParams, g: &LayerParams) {
        for (w, gr) in p.tensors_mut().into_iter().zip(g.tensors()) {
            self.step_tensor(w, gr);
        }
    }

    /// Applies one step to the full model given its gradients: a full
    /// set, or one stage's shard (see [`ModelGrads`]).
    pub fn step_model(&self, m: &mut ModelParams, g: &ModelGrads) {
        self.step_tensor(&mut m.embedding, &g.embedding);
        for (lp, lg) in m.layers.iter_mut().zip(&g.layers) {
            self.step_layer(lp, lg);
        }
        self.step_tensor(&mut m.final_norm, &g.final_norm);
        self.step_tensor(&mut m.head, &g.head);
    }
}

/// Adam state and step for one tensor collection (kept simple: one `m`/`v`
/// pair per tensor, bias correction included).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Epsilon.
    pub eps: f32,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Fresh Adam state for `num_tensors` parameter tensors.
    pub fn new(lr: f32, num_tensors: usize) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: vec![Vec::new(); num_tensors],
            v: vec![Vec::new(); num_tensors],
        }
    }

    /// Advances the shared step counter (call once per iteration, before
    /// the per-tensor updates).
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Updates tensor `idx` with gradient `g`.
    ///
    /// # Panics
    ///
    /// Panics if `begin_step` was never called or `idx` is out of range.
    pub fn step_tensor(&mut self, idx: usize, w: &mut Tensor, g: &Tensor) {
        assert!(self.step > 0, "call begin_step first");
        let m = &mut self.m[idx];
        let v = &mut self.v[idx];
        if m.is_empty() {
            m.resize(w.len(), 0.0);
            v.resize(w.len(), 0.0);
        }
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((wv, gv), (mv, vv)) in w
            .data_mut()
            .iter_mut()
            .zip(g.data())
            .zip(m.iter_mut().zip(v.iter_mut()))
        {
            *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
            *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            let mhat = *mv / bc1;
            let vhat = *vv / bc2;
            *wv -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

/// Gradients matching a [`ModelParams`] layout.
///
/// A *full* set has every tensor at its parameter's shape. A *shard* —
/// what one pipeline stage produces — allocates only the parameters the
/// stage wrote and leaves every other tensor empty (`0×0`). Every
/// gradient tensor is allocated zeroed and then only accumulated into, so
/// no element is ever `-0.0`; that is what makes [`ModelGrads::merge`]'s
/// "move, then add" bitwise equal to summing full sets from zero.
#[derive(Debug, Clone, Default)]
pub struct ModelGrads {
    /// Embedding gradient.
    pub embedding: Tensor,
    /// Per-layer gradients.
    pub layers: Vec<LayerParams>,
    /// Final-norm gradient.
    pub final_norm: Tensor,
    /// Head gradient.
    pub head: Tensor,
}

impl ModelGrads {
    /// Zeroed gradients for a model.
    pub fn zeros(model: &ModelParams) -> Self {
        Self {
            embedding: Tensor::zeros(model.embedding.rows(), model.embedding.cols()),
            layers: model.layers.iter().map(LayerParams::zero_grads).collect(),
            final_norm: Tensor::zeros(1, model.final_norm.cols()),
            head: Tensor::zeros(model.head.rows(), model.head.cols()),
        }
    }

    /// An empty shard for a model of `layers` decoder layers: nothing
    /// written, nothing allocated.
    pub fn empty(layers: usize) -> Self {
        Self {
            layers: vec![LayerParams::default(); layers],
            ..Self::default()
        }
    }

    /// Every gradient tensor: embedding, each layer's, final norm, head.
    pub fn tensors(&self) -> impl Iterator<Item = &Tensor> {
        std::iter::once(&self.embedding)
            .chain(self.layers.iter().flat_map(LayerParams::tensors))
            .chain([&self.final_norm, &self.head])
    }

    /// Every gradient tensor, mutably, in [`tensors`](Self::tensors) order.
    pub fn tensors_mut(&mut self) -> impl Iterator<Item = &mut Tensor> {
        std::iter::once(&mut self.embedding)
            .chain(self.layers.iter_mut().flat_map(LayerParams::tensors_mut))
            .chain([&mut self.final_norm, &mut self.head])
    }

    /// Folds a shard into this set: a tensor only `shard` wrote moves in,
    /// one both wrote is added (`self += shard`). Folding stage shards in
    /// stage order into [`empty`](Self::empty) is bitwise the sum of the
    /// full per-stage sets from [`zeros`](Self::zeros), in that order.
    pub fn merge(&mut self, mut shard: ModelGrads) {
        for (acc, g) in self.tensors_mut().zip(shard.tensors_mut()) {
            if acc.is_empty() {
                std::mem::swap(acc, g);
            } else if !g.is_empty() {
                acc.add_assign(g);
            }
        }
    }

    /// Scales every gradient in place — e.g. the `1/replicas` averaging
    /// step of data parallelism.
    pub fn scale(&mut self, s: f32) {
        self.tensors_mut().for_each(|t| t.scale(s));
    }

    /// Maximum absolute difference to another gradient set.
    pub fn max_abs_diff(&self, other: &ModelGrads) -> f32 {
        self.tensors()
            .zip(other.tensors())
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_model::config::TransformerConfig;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut w = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        let g = Tensor::from_vec(1, 2, vec![0.5, -0.5]);
        Sgd { lr: 0.1 }.step_tensor(&mut w, &g);
        assert_eq!(w.data(), &[0.95, -0.95]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise (w - 3)^2 with Adam.
        let mut w = Tensor::from_vec(1, 1, vec![0.0]);
        let mut adam = Adam::new(0.1, 1);
        for _ in 0..500 {
            adam.begin_step();
            let g = Tensor::from_vec(1, 1, vec![2.0 * (w.at(0, 0) - 3.0)]);
            adam.step_tensor(0, &mut w, &g);
        }
        assert!((w.at(0, 0) - 3.0).abs() < 0.05, "w = {}", w.at(0, 0));
    }

    #[test]
    fn model_grads_shapes_match() {
        let m = ModelParams::init(TransformerConfig::tiny(2), 1);
        let g = ModelGrads::zeros(&m);
        assert_eq!(g.layers.len(), 2);
        assert_eq!(g.head.rows(), m.head.rows());
        assert_eq!(g.max_abs_diff(&ModelGrads::zeros(&m)), 0.0);
    }
}
