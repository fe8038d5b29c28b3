//! Model parameters, gradients and their partitioning into chunks.

use mepipe_model::config::TransformerConfig;
use mepipe_tensor::{init, Tensor};
use rand::rngs::StdRng;

/// Weights of one decoder layer (all tensors empty by default).
#[derive(Debug, Clone, Default)]
pub struct LayerParams {
    /// Query projection `[h, h]`.
    pub wq: Tensor,
    /// Key projection `[h, h]`.
    pub wk: Tensor,
    /// Value projection `[h, h]`.
    pub wv: Tensor,
    /// Output projection `[h, h]`.
    pub wo: Tensor,
    /// SwiGLU gate `[h, ffn]`.
    pub wg: Tensor,
    /// SwiGLU up `[h, ffn]`.
    pub wu: Tensor,
    /// SwiGLU down `[ffn, h]`.
    pub wd: Tensor,
    /// Pre-attention RMSNorm weight `[1, h]`.
    pub norm1: Tensor,
    /// Pre-MLP RMSNorm weight `[1, h]`.
    pub norm2: Tensor,
}

impl LayerParams {
    /// Xavier-initialised layer.
    pub fn init(cfg: &TransformerConfig, rng: &mut StdRng) -> Self {
        let h = cfg.hidden;
        let f = cfg.ffn_hidden;
        Self {
            wq: init::xavier(h, h, rng),
            wk: init::xavier(h, h, rng),
            wv: init::xavier(h, h, rng),
            wo: init::xavier(h, h, rng),
            wg: init::xavier(h, f, rng),
            wu: init::xavier(h, f, rng),
            wd: init::xavier(f, h, rng),
            norm1: Tensor::from_vec(1, h, vec![1.0; h]),
            norm2: Tensor::from_vec(1, h, vec![1.0; h]),
        }
    }

    /// Zeroed gradients of the same shapes.
    pub fn zero_grads(&self) -> LayerParams {
        LayerParams {
            wq: Tensor::zeros(self.wq.rows(), self.wq.cols()),
            wk: Tensor::zeros(self.wk.rows(), self.wk.cols()),
            wv: Tensor::zeros(self.wv.rows(), self.wv.cols()),
            wo: Tensor::zeros(self.wo.rows(), self.wo.cols()),
            wg: Tensor::zeros(self.wg.rows(), self.wg.cols()),
            wu: Tensor::zeros(self.wu.rows(), self.wu.cols()),
            wd: Tensor::zeros(self.wd.rows(), self.wd.cols()),
            norm1: Tensor::zeros(1, self.norm1.cols()),
            norm2: Tensor::zeros(1, self.norm2.cols()),
        }
    }

    /// Every weight tensor, in declaration order.
    pub fn tensors(&self) -> [&Tensor; 9] {
        [
            &self.wq,
            &self.wk,
            &self.wv,
            &self.wo,
            &self.wg,
            &self.wu,
            &self.wd,
            &self.norm1,
            &self.norm2,
        ]
    }

    /// Every weight tensor, mutably, in declaration order.
    pub fn tensors_mut(&mut self) -> [&mut Tensor; 9] {
        [
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.wo,
            &mut self.wg,
            &mut self.wu,
            &mut self.wd,
            &mut self.norm1,
            &mut self.norm2,
        ]
    }

    /// Maximum absolute difference across all weights.
    pub fn max_abs_diff(&self, other: &LayerParams) -> f32 {
        self.tensors()
            .into_iter()
            .zip(other.tensors())
            .map(|(a, b)| a.max_abs_diff(b))
            .fold(0.0, f32::max)
    }
}

/// The full model: embedding, decoder layers, final norm, output head.
#[derive(Debug, Clone)]
pub struct ModelParams {
    /// Architecture.
    pub cfg: TransformerConfig,
    /// Token embedding `[vocab, h]`.
    pub embedding: Tensor,
    /// Decoder layers.
    pub layers: Vec<LayerParams>,
    /// Final RMSNorm `[1, h]`.
    pub final_norm: Tensor,
    /// Output head `[h, vocab]`.
    pub head: Tensor,
}

impl ModelParams {
    /// Deterministically initialised model.
    pub fn init(cfg: TransformerConfig, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let layers = (0..cfg.layers)
            .map(|_| LayerParams::init(&cfg, &mut rng))
            .collect();
        Self {
            embedding: init::uniform(cfg.vocab, cfg.hidden, 0.05, &mut rng),
            layers,
            final_norm: Tensor::from_vec(1, cfg.hidden, vec![1.0; cfg.hidden]),
            head: init::xavier(cfg.hidden, cfg.vocab, &mut rng),
            cfg,
        }
    }

    /// Layer index range `[start, end)` of global chunk `g` when the model
    /// is split into `total_chunks` equal chunks.
    ///
    /// # Panics
    ///
    /// Panics if layers don't divide evenly.
    pub fn chunk_layer_range(&self, g: usize, total_chunks: usize) -> (usize, usize) {
        assert_eq!(
            self.cfg.layers % total_chunks,
            0,
            "{} layers not divisible into {total_chunks} chunks",
            self.cfg.layers
        );
        let per = self.cfg.layers / total_chunks;
        (g * per, (g + 1) * per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic() {
        let cfg = TransformerConfig::tiny(4);
        let a = ModelParams::init(cfg, 9);
        let b = ModelParams::init(cfg, 9);
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.layers[3].wd, b.layers[3].wd);
        let c = ModelParams::init(cfg, 10);
        assert!(a.embedding.max_abs_diff(&c.embedding) > 0.0);
    }

    #[test]
    fn chunk_ranges_tile_the_model() {
        let m = ModelParams::init(TransformerConfig::tiny(8), 1);
        let mut covered = [false; 8];
        for g in 0..4 {
            let (a, b) = m.chunk_layer_range(g, 4);
            for slot in covered.iter_mut().take(b).skip(a) {
                assert!(!*slot);
                *slot = true;
            }
        }
        assert!(covered.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn uneven_chunks_panic() {
        let m = ModelParams::init(TransformerConfig::tiny(6), 1);
        m.chunk_layer_range(0, 4);
    }

    #[test]
    fn grad_buffers_match_shapes() {
        let cfg = TransformerConfig::tiny(2);
        let m = ModelParams::init(cfg, 1);
        let g = m.layers[0].zero_grads();
        assert_eq!(g.wq.rows(), cfg.hidden);
        assert_eq!(g.wd.rows(), cfg.ffn_hidden);
        assert_eq!(g.norm1.cols(), cfg.hidden);
    }
}
