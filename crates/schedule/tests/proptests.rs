//! Property tests for the schedule machinery.

use proptest::prelude::*;

use mepipe_schedule::{
    deps::dependencies,
    exec::{execute, UnitCost},
    generate::{default_caps, dependents, greedy_generate},
    generator::{Dapple, Dims, GPipe, ScheduleGenerator, TeraPipe},
    ir::{ChunkPlacement, Op, OpKind, ScheduleMeta},
    validate::{peak_in_flight, validate},
};

fn meta(
    p: usize,
    v: usize,
    s: usize,
    n: usize,
    split: bool,
    placement: ChunkPlacement,
) -> ScheduleMeta {
    ScheduleMeta {
        name: "prop".into(),
        stages: p,
        virtual_chunks: v,
        slices: s,
        micro_batches: n,
        split_backward: split,
        placement,
    }
}

/// A shape-valid meta for any placement: V-shaped and bidirectional
/// placements are pinned to `v = 2`, bidirectional to an even `n`.
fn any_meta(
    p: usize,
    v: usize,
    s: usize,
    n: usize,
    split: bool,
    placement: ChunkPlacement,
) -> ScheduleMeta {
    let (v, n) = match placement {
        ChunkPlacement::VShape => (2, n),
        ChunkPlacement::Bidirectional => (2, n + n % 2),
        _ => (v, n),
    };
    let m = meta(p, v, s, n, split, placement);
    m.check_shape().unwrap();
    m
}

/// Every op a schedule of `m` holds, with the stage it runs on.
fn valid_ops(m: &ScheduleMeta) -> Vec<(usize, Op)> {
    let backward = if m.split_backward {
        OpKind::BackwardInput
    } else {
        OpKind::Backward
    };
    let mut kinds = vec![OpKind::Forward, backward];
    if m.split_backward {
        kinds.push(OpKind::BackwardWeight);
    }
    let mut ops = Vec::new();
    for w in 0..m.stages {
        for mb in 0..m.micro_batches {
            let chunks: Vec<usize> = match m.chunk_of_mb(mb) {
                Some(c) => vec![c],
                None => (0..m.virtual_chunks).collect(),
            };
            for sl in 0..m.slices {
                for &c in &chunks {
                    for &k in &kinds {
                        ops.push((w, Op::new(k, mb, sl, c)));
                    }
                }
            }
        }
    }
    ops
}

const PLACEMENTS: [ChunkPlacement; 4] = [
    ChunkPlacement::Interleaved,
    ChunkPlacement::VShape,
    ChunkPlacement::Wave,
    ChunkPlacement::Bidirectional,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense op index maps every valid `(stage, op)` of a meta to its
    /// own slot in `0..op_slots()`, and fills the table exactly when
    /// every slot class is in use.
    #[test]
    fn op_index_is_one_to_one(
        p in 1usize..=6,
        v in 1usize..=4,
        s in 1usize..=4,
        n in 1usize..=6,
        split in proptest::bool::ANY,
        placement in proptest::sample::select(PLACEMENTS.to_vec()),
    ) {
        let m = any_meta(p, v, s, n, split, placement);
        let mut used = vec![false; m.op_slots()];
        let ops = valid_ops(&m);
        for &(w, op) in &ops {
            let i = m.op_index(w, op);
            prop_assert!(i < m.op_slots(), "{op} on {w} -> {i}");
            prop_assert!(!used[i], "{op} on {w} collides at slot {i}");
            used[i] = true;
        }
        if split && !m.bidirectional() {
            prop_assert_eq!(ops.len(), m.op_slots());
        }
    }

    /// `dependents` inverts `dependencies`: X's producers list X among
    /// their consumers and X's consumers list X among their producers.
    /// Weight ops are the one exception — `dependents` never yields them.
    #[test]
    fn dependents_invert_dependencies(
        p in 1usize..=6,
        v in 1usize..=4,
        s in 1usize..=4,
        n in 1usize..=6,
        split in proptest::bool::ANY,
        placement in proptest::sample::select(PLACEMENTS.to_vec()),
    ) {
        let m = any_meta(p, v, s, n, split, placement);
        let backward = if split { OpKind::BackwardInput } else { OpKind::Backward };
        for (w, x) in valid_ops(&m) {
            if x.kind != OpKind::BackwardWeight {
                for d in dependencies(&m, w, x) {
                    prop_assert!(
                        dependents(&m, d.stage, d.op, backward).contains(&(w, x)),
                        "{} on {} feeds {x} on {w} but does not list it", d.op, d.stage
                    );
                }
            }
            for (dw, y) in dependents(&m, w, x, backward) {
                prop_assert!(y.kind != OpKind::BackwardWeight);
                prop_assert!(
                    dependencies(&m, dw, y).iter().any(|d| d.stage == w && d.op == x),
                    "{x} on {w} lists {y} on {dw}, which does not depend on it"
                );
            }
        }
    }

    /// Every placement's (stage, chunk) ↔ global-position mapping is a
    /// bijection over the whole grid.
    #[test]
    fn placements_are_bijections(p in 1usize..=12, v in 1usize..=5) {
        for placement in [ChunkPlacement::Interleaved, ChunkPlacement::Wave] {
            for g in 0..p * v {
                let (w, c) = placement.stage_chunk_of(p, g);
                prop_assert!(w < p && c < v);
                prop_assert_eq!(placement.global_pos(p, w, c), g);
            }
        }
        // VShape only at v = 2.
        for g in 0..p * 2 {
            let (w, c) = ChunkPlacement::VShape.stage_chunk_of(p, g);
            prop_assert_eq!(ChunkPlacement::VShape.global_pos(p, w, c), g);
        }
    }

    /// The greedy generator is deterministic: identical inputs produce
    /// identical schedules.
    #[test]
    fn generation_is_deterministic(
        p in 1usize..=6,
        v in 1usize..=3,
        s in 1usize..=4,
        n in 1usize..=6,
        split in proptest::bool::ANY,
    ) {
        let m = meta(p, v, s, n, split, ChunkPlacement::Interleaved);
        let caps = default_caps(&m, v * p.max(s) + p.min(s));
        let a = greedy_generate(&m, &caps).unwrap();
        let b = greedy_generate(&m, &caps).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Wave placements generate valid executable schedules too.
    #[test]
    fn wave_generation_valid(p in 1usize..=6, v in 1usize..=4, n in 1usize..=6) {
        let m = meta(p, v, 1, n, false, ChunkPlacement::Wave);
        let caps = vec![(p * v).max(v); p];
        let sch = greedy_generate(&m, &caps).unwrap();
        validate(&sch).unwrap();
        execute(&sch, &UnitCost::ones()).unwrap();
    }

    /// Executing any baseline under any positive costs keeps busy time
    /// equal to the sum of op durations (no work lost or duplicated).
    #[test]
    fn execution_conserves_work(
        p in 1usize..=6,
        n in 1usize..=8,
        fwd in 0.5f64..3.0,
        bwd in 0.5f64..3.0,
    ) {
        let sch = Dapple.generate(&Dims::new(p, n)).unwrap();
        let cost = UnitCost { fwd, bwd, wgrad: 0.0 };
        let t = execute(&sch, &cost).unwrap();
        let expected = (fwd + bwd) * n as f64;
        for w in 0..p {
            prop_assert!((t.busy[w] - expected).abs() < 1e-6);
        }
        prop_assert!(t.makespan >= expected - 1e-6);
    }

    /// Peak in-flight decreases (weakly) from the first stage to the last
    /// for 1F1B-family schedules — the memory skew the paper discusses.
    #[test]
    fn dapple_memory_skew(p in 2usize..=8, n in 2usize..=12) {
        let sch = Dapple.generate(&Dims::new(p, n)).unwrap();
        let peaks = peak_in_flight(&sch);
        prop_assert!(peaks.windows(2).all(|w| w[0] >= w[1]), "{:?}", peaks);
    }

    /// GPipe's makespan formula holds exactly under unit costs.
    #[test]
    fn gpipe_makespan_formula(p in 1usize..=8, n in 1usize..=12) {
        let sch = GPipe.generate(&Dims::new(p, n)).unwrap();
        let t = execute(&sch, &UnitCost::ones()).unwrap();
        prop_assert!((t.makespan - (2 * n + 2 * (p - 1)) as f64).abs() < 1e-9);
    }

    /// TeraPipe's bubble formula holds exactly under unit costs.
    #[test]
    fn terapipe_bubble_formula(p in 1usize..=6, n in 1usize..=8, s in 1usize..=4) {
        let sch = TeraPipe.generate(&Dims::new(p, n).slices(s)).unwrap();
        let t = execute(&sch, &UnitCost::ones()).unwrap();
        let expected = (p as f64 - 1.0) / ((n * s) as f64 + p as f64 - 1.0);
        prop_assert!((t.bubble_ratio() - expected).abs() < 1e-9);
    }
}
