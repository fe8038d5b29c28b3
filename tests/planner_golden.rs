//! Planner golden values: what the cold strategy search picks on the
//! Figure 8 grid (Llama-2 13B on 64 RTX 4090s) and how much of the
//! solver's search tree it walks to get there.
//!
//! Every pick is pinned by label and by the exact bits of its simulated
//! iteration time and peak activation bytes, so a change to any
//! executor, generator or the solver that moves a single floating-point
//! result fails here. The solver counters pin the shape of the beam
//! search itself: a faster implementation must expand, prune and improve
//! exactly as often.

use mepipe::core::{SolverStats, SvppConfig, Synth};
use mepipe::hw::topology::ClusterSpec;
use mepipe::model::{config::TransformerConfig, memory};
use mepipe::strategy::{enumerate_candidates, Method, SearchEngine};

/// `(method, label, iteration_time bits, peak_activation_bytes bits)`.
type Pick = (&'static str, &'static str, u64, u64);
/// `(seeds_tried, nodes_expanded, nodes_pruned, improved)`.
type Counters = (usize, usize, usize, usize);

/// Per global batch size, every method's pick in `search_all` order.
#[rustfmt::skip]
const PICKS: [(usize, [Pick; 8]); 3] = [
    (32, [
        ("DAPPLE", "(8, 2, 1, ✗)", 0x400584c46db7f737, 0x4207700000000000),
        ("VPP", "(4, 4, 2, ✗)", 0x400b1551078f43e0, 0x42001d0000000000),
        ("ZB", "(8, 2, 1, ✗)", 0x4000c4240a8c0e59, 0x4209000000000000),
        ("ZBV", "(4, 4, 2, ✗)", 0x400c437a486805c3, 0x4200e50000000000),
        ("MEPipe", "(8, 8, 1, ✗)", 0x3ffa82c8c91fc7d2, 0x4206058000000000),
        ("DualPipe", "(8, 4, 1, ✗)", 0x3ffc034a590a2717, 0x4200680000000000),
        ("Blocks", "(8, 4, 1, ✗)", 0x3ffa051809e1fe4a, 0x4209000000000000),
        ("Synth", "(8, 8, 1, ✗)", 0x3ffa82c8c91fc7d2, 0x4206058000000000),
    ]),
    (64, [
        ("DAPPLE", "(8, 2, 1, ✗)", 0x4010067b5c6fe9c8, 0x4207700000000000),
        ("VPP", "(4, 2, 2, ✓)", 0x4014bfb2ee910595, 0x41d1300000000000),
        ("ZB", "(8, 2, 1, ✗)", 0x400b34b0602225e2, 0x420bee0000000000),
        ("ZBV", "(4, 4, 2, ✗)", 0x40161fe535fee948, 0x4200e50000000000),
        ("MEPipe", "(8, 4, 1, ✗)", 0x4006c7eb3eb561d0, 0x420bd50000000000),
        ("DualPipe", "(8, 4, 1, ✗)", 0x4009543c2bdd222c, 0x4200680000000000),
        ("Blocks", "(8, 4, 1, ✗)", 0x40067abe2dc90046, 0x420c6b0000000000),
        ("Synth", "(8, 4, 1, ✗)", 0x4006c7eb3eb561d0, 0x420bd50000000000),
    ]),
    (128, [
        ("DAPPLE", "(8, 2, 1, ✗)", 0x401a8eada797c615, 0x4207700000000000),
        ("VPP", "(4, 1, 2, ✓)", 0x402065df4ed4be55, 0x41e1300000000000),
        ("ZB", "(8, 2, 1, ✗)", 0x40180afd0a082868, 0x420bee0000000000),
        ("ZBV", "(4, 4, 2, ✗)", 0x4024c133a259886a, 0x4200e50000000000),
        ("MEPipe", "(8, 4, 1, ✗)", 0x4014e8f601650f9c, 0x420bd50000000000),
        ("DualPipe", "(8, 4, 1, ✗)", 0x4017fcb515469fa8, 0x4200680000000000),
        ("Blocks", "(8, 4, 1, ✗)", 0x4014b5913fbc8142, 0x420c6b0000000000),
        ("Synth", "(8, 4, 1, ✗)", 0x4014e8f601650f9c, 0x420bd50000000000),
    ]),
];

/// Per global batch size, the solver's summed counters and the hash of
/// its output (see [`solver_totals`]).
const SOLVER: [(usize, Counters, u64); 3] = [
    (32, (60, 1832, 48, 7), 0xb4c6_d29b_b4c9_3155),
    (64, (60, 2296, 103, 5), 0x0d70_da4d_34aa_7ef6),
    (128, (60, 2442, 92, 4), 0x35ed_de9c_fcf5_9c81),
];

fn picks(gbs: usize) -> Vec<(String, String, u64, u64)> {
    let model = TransformerConfig::llama2_13b();
    let cluster = ClusterSpec::rtx4090_cluster();
    SearchEngine::new()
        .search_all(&model, &cluster, gbs)
        .into_iter()
        .map(|(m, e)| {
            let e = e.unwrap_or_else(|| panic!("{} found no plan at GBS {gbs}", m.name()));
            (
                m.name().to_string(),
                e.candidate.label(),
                e.iteration_time.to_bits(),
                e.peak_activation_bytes.to_bits(),
            )
        })
        .collect()
}

/// Sums of the solver's counters over every distinct `(dims, cap)` the
/// search hands the `Synth` tier at `gbs`:
/// `(seeds_tried, nodes_expanded, nodes_pruned, improved)`, plus an
/// FNV-1a hash of every emitted op order folded with the bits of every
/// returned makespan.
fn solver_totals(gbs: usize) -> (Counters, u64) {
    let model = TransformerConfig::llama2_13b();
    let cluster = ClusterSpec::rtx4090_cluster();
    let usable = cluster.accelerator.usable_memory_bytes();
    let mut seen = Vec::new();
    let mut totals = (0, 0, 0, 0);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in enumerate_candidates(Method::Synth, &model, &cluster, gbs) {
        let dims = c.dims();
        let units = memory::max_in_flight_units(&model, &c.spec, usable);
        if units < SvppConfig::from_dims(&dims).min_warmup() {
            continue;
        }
        let key = (dims.p, dims.v, dims.s, dims.n, units);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let syn = Synth::new()
            .cap(units)
            .synthesize(&dims)
            .unwrap_or_else(|e| panic!("{dims}: {e}"));
        for ops in &syn.schedule.workers {
            for op in ops {
                mix(op.kind as u64);
                mix(op.micro_batch as u64);
                mix(op.slice as u64);
                mix(op.chunk as u64);
            }
            mix(u64::MAX);
        }
        mix(syn.stats.makespan.to_bits());
        let SolverStats {
            seeds_tried,
            nodes_expanded,
            nodes_pruned,
            improved,
            ..
        } = syn.stats;
        totals.0 += seeds_tried;
        totals.1 += nodes_expanded;
        totals.2 += nodes_pruned;
        totals.3 += usize::from(improved);
    }
    (totals, hash)
}

#[test]
fn picks_are_pinned() {
    for (gbs, want) in PICKS {
        let got = picks(gbs);
        let got: Vec<(&str, &str, u64, u64)> = got
            .iter()
            .map(|(m, l, t, p)| (m.as_str(), l.as_str(), *t, *p))
            .collect();
        assert_eq!(got, want, "GBS {gbs} picks drifted");
    }
}

#[test]
fn solver_search_tree_is_pinned() {
    for (gbs, counters, hash) in SOLVER {
        assert_eq!(solver_totals(gbs), (counters, hash), "GBS {gbs}");
    }
}
