//! The gradient-merge oracle. `run_iteration` builds its gradients by
//! moving each stage's gradient shard into place and adding only where
//! two stages wrote the same tensor. That must be bitwise the dense
//! formula: zeroed full-model gradients plus, in stage order, every
//! stage's full gradient set (zero wherever the stage wrote nothing),
//! over the same stages run one by one through `run_stage`.

use mepipe_comm::{build_transport, TransportConfig};
use mepipe_core::svpp::Mepipe;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::{Dims, ScheduleGenerator};
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::DualPipe;
use mepipe_tensor::{init::synthetic_tokens, Tensor};
use mepipe_train::{
    optim::{ModelGrads, Sgd},
    params::ModelParams,
    reference::add_grads,
    PipelineRuntime, WgradMode,
};

const STAGES: usize = 2;

fn bits<'a>(tensors: impl Iterator<Item = &'a Tensor>) -> Vec<u32> {
    tensors
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

fn weights(m: &ModelParams) -> impl Iterator<Item = &Tensor> {
    std::iter::once(&m.embedding)
        .chain(m.layers.iter().flat_map(|l| l.tensors()))
        .chain([&m.final_norm, &m.head])
}

/// A shard as the full gradient set a stage used to return: its written
/// tensors, zeros everywhere else.
fn dense(shard: &ModelGrads, model: &ModelParams) -> ModelGrads {
    let mut full = ModelGrads::zeros(model);
    for (f, s) in full.tensors_mut().zip(shard.tensors()) {
        if !s.is_empty() {
            *f = s.clone();
        }
    }
    full
}

/// Which tensors of a shard are written, in `ModelGrads::tensors` order.
fn written(shard: &ModelGrads) -> Vec<bool> {
    shard.tensors().map(|t| !t.is_empty()).collect()
}

/// Runs every stage through `run_stage` on one in-process transport and
/// returns their shards in stage order.
fn stage_shards(
    rt: &PipelineRuntime,
    schedule: &Schedule,
    batch: &[Vec<usize>],
) -> Vec<ModelGrads> {
    let transport = build_transport(&TransportConfig::in_proc(), STAGES, 64).expect("transport");
    let transport = transport.as_ref();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STAGES)
            .map(|s| {
                scope.spawn(move || {
                    let ep = transport.endpoint(s).expect("endpoint");
                    rt.run_stage(schedule, s, batch, WgradMode::DrainOnWait, None, ep)
                        .expect("stage run")
                        .grads
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stage thread"))
            .collect()
    })
}

/// Checks the merge oracle for one schedule and returns each stage's
/// written-tensor mask.
fn check(schedule: &Schedule, virtual_chunks: usize, seed: u64) -> Vec<Vec<bool>> {
    let cfg = TransformerConfig {
        seq_len: 32,
        ..TransformerConfig::tiny(4)
    };
    let model = ModelParams::init(cfg, seed);
    let batch: Vec<Vec<usize>> = (0..schedule.meta.micro_batches)
        .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, seed + i as u64))
        .collect();
    let rt = PipelineRuntime::new(model.clone(), STAGES, virtual_chunks);
    let merged = rt
        .run_iteration(schedule, &batch, WgradMode::DrainOnWait, None)
        .expect("iteration")
        .grads;

    let shards = stage_shards(&rt, schedule, &batch);
    let mut want = ModelGrads::zeros(&model);
    for shard in &shards {
        add_grads(&mut want, &dense(shard, &model), 1.0);
    }
    assert_eq!(
        bits(merged.tensors()),
        bits(want.tensors()),
        "merged gradients differ"
    );

    // The per-stage SGD step of `mepipe-worker job` takes the shard; it
    // must move every weight exactly as the dense set would.
    for shard in &shards {
        let (mut a, mut b) = (model.clone(), model.clone());
        Sgd { lr: 0.1 }.step_model(&mut a, shard);
        Sgd { lr: 0.1 }.step_model(&mut b, &dense(shard, &model));
        assert_eq!(
            bits(weights(&a)),
            bits(weights(&b)),
            "shard SGD step differs"
        );
    }
    shards.iter().map(written).collect()
}

/// Tensor mask `[embedding, 4 layers × 9, final_norm, head]`.
fn mask(embedding: bool, layers: [bool; 4], last: bool) -> Vec<bool> {
    std::iter::once(embedding)
        .chain(layers.into_iter().flat_map(|l| [l; 9]))
        .chain([last, last])
        .collect()
}

#[test]
fn interleaved_mepipe_shards_merge_bitwise() {
    // v = 2 over 4 layers: stage 0 runs blocks 0 and 2, stage 1 blocks 1
    // and 3; the stages write disjoint tensors.
    let schedule = Mepipe::new()
        .generate(&Dims::new(STAGES, 4).virtual_chunks(2).slices(2))
        .unwrap();
    let masks = check(&schedule, 2, 61);
    assert_eq!(masks[0], mask(true, [true, false, true, false], false));
    assert_eq!(masks[1], mask(false, [false, true, false, true], true));
}

#[test]
fn dualpipe_shards_merge_bitwise() {
    // Bidirectional placement: both stages hold every block and run the
    // embedding and the loss head, so every tensor is written twice and
    // the merge adds in stage order.
    let schedule = DualPipe::new()
        .generate(&Dims::new(STAGES, 4).virtual_chunks(2).slices(2))
        .unwrap();
    let masks = check(&schedule, 2, 62);
    assert_eq!(masks[0], mask(true, [true; 4], true));
    assert_eq!(masks[1], mask(true, [true; 4], true));
}
