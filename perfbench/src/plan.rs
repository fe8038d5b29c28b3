//! The planner workload: one closed-loop client issuing cold
//! `SearchEngine::new().search_all(llama2_13b, rtx4090_cluster, gbs)`
//! calls, the Figure 8 grid, over seed-shuffled cycles of its batch
//! sizes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mepipe_hw::topology::ClusterSpec;
use mepipe_model::config::TransformerConfig;
use mepipe_strategy::{enumerate_candidates, Evaluated, Method, SearchEngine};

use crate::meta::CpuTimes;
use crate::report::Report;
use crate::stats::{median, percentile, summarize};
use crate::{derive_seed, layers, probe};

/// Global batch sizes of the Figure 8 grid.
const GBS: [usize; 3] = [32, 64, 128];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 10;

type Picks = Vec<(Method, Option<Evaluated>)>;

/// Per-method pick: label and iteration-time bits, for exact comparison.
fn fingerprint(picks: &Picks) -> Vec<Option<(String, u64)>> {
    picks
        .iter()
        .map(|(_, e)| {
            e.as_ref()
                .map(|e| (e.candidate.label(), e.iteration_time.to_bits()))
        })
        .collect()
}

fn pick(picks: &Picks, m: Method) -> Option<&Evaluated> {
    picks
        .iter()
        .find(|(x, _)| *x == m)
        .and_then(|(_, e)| e.as_ref())
}

/// The known-good GBS-128 result: MEPipe picks (8, 4, 1, ✗) at 5228 ms,
/// 1.15× over ZB's 6011 ms.
fn matches_golden(picks: &Picks) -> bool {
    let (Some(me), Some(zb)) = (pick(picks, Method::Mepipe), pick(picks, Method::Zb)) else {
        return false;
    };
    me.candidate.label() == "(8, 4, 1, ✗)"
        && (me.iteration_time * 1e3).round() == 5228.0
        && (zb.iteration_time * 1e3).round() == 6011.0
        && format!("{:.2}", zb.iteration_time / me.iteration_time) == "1.15"
}

/// `GBS` in a seed-derived order (Fisher–Yates).
fn shuffled(seed: u64) -> [usize; 3] {
    let mut order = GBS;
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = derive_seed(state, i as u64);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Runs the workload for `seconds` (whole cycles of the batch sizes) and
/// fills `r` with the end-to-end metrics, or the per-layer ones when
/// `traced`.
pub fn run(seed: u64, seconds: Duration, traced: bool, r: &mut Report) {
    let roof = traced.then(probe::measure);
    let mut setup_s = Vec::new();
    let mut golden_ok = true;
    for _ in 0..SETUPS {
        r.attempted += 1;
        let t = Instant::now();
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let picks = SearchEngine::new().search_all(&model, &cluster, 128);
        setup_s.push(t.elapsed().as_secs_f64());
        golden_ok &= matches_golden(&picks);
    }
    let model = TransformerConfig::llama2_13b();
    let cluster = ClusterSpec::rtx4090_cluster();

    let mut times = Vec::new();
    let mut first: BTreeMap<usize, Vec<Option<(String, u64)>>> = BTreeMap::new();
    let mut peak = 0.0f64;
    let mut counts: Vec<[f64; 6]> = Vec::new();
    let cpu = CpuTimes::now();
    let start = Instant::now();
    let mut cycle = 0u64;
    while start.elapsed() < seconds || times.is_empty() {
        for gbs in shuffled(derive_seed(seed, 100 + cycle)) {
            r.attempted += 1;
            let t = Instant::now();
            let engine = SearchEngine::new();
            let picks = engine.search_all(&model, &cluster, gbs);
            times.push(t.elapsed().as_secs_f64());
            let Some(me) = pick(&picks, Method::Mepipe) else {
                eprintln!("perfbench: no MEPipe plan at GBS {gbs}");
                r.failed += 1;
                continue;
            };
            peak = peak.max(me.peak_activation_bytes);
            let fp = fingerprint(&picks);
            if *first.entry(gbs).or_insert_with(|| fp.clone()) != fp {
                eprintln!("perfbench: GBS {gbs} planned differently from its first run");
                r.failed += 1;
            }
            if gbs == 128 && !matches_golden(&picks) {
                golden_ok = false;
                r.failed += 1;
            }
            if traced {
                let st = engine.stats();
                let candidates: usize = Method::all()
                    .into_iter()
                    .map(|m| enumerate_candidates(m, &model, &cluster, gbs).len())
                    .sum();
                let lookups = (st.schedule_hits + st.schedule_misses).max(1);
                counts.push([
                    candidates as f64,
                    st.pre_discarded as f64,
                    st.bound_pruned as f64,
                    st.evaluated as f64,
                    st.evaluated as f64 / candidates.max(1) as f64,
                    st.schedule_hits as f64 / lookups as f64,
                ]);
            }
        }
        cycle += 1;
    }
    let steal = cpu.steal_percent_since();
    if !traced {
        r.set_rss_peak();
    }
    r.check(
        "GBS-128 MEPipe pick is (8, 4, 1, ✗) at 5228 ms, 1.15× over ZB's 6011 ms",
        golden_ok,
    );

    if let Some(roof) = roof {
        r.set("hw.fma_gflops", roof.fma_gflops);
        r.set("hw.stream_gbps", roof.stream_gbps);
        let names = [
            "strategy.candidates",
            "strategy.pre_discarded",
            "strategy.bound_pruned",
            "strategy.evaluated",
            "strategy.eval_share",
            "strategy.sched_cache_hit_rate",
        ];
        for (i, name) in names.into_iter().enumerate() {
            let v: Vec<f64> = counts.iter().map(|c| c[i]).collect();
            r.set(name, v.iter().sum::<f64>() / v.len().max(1) as f64);
        }
        layers::planner(&model, &cluster, &GBS, r);
        println!("traced loop: {} searches in {cycle} cycles", times.len());
    } else {
        times.sort_by(f64::total_cmp);
        let sum = summarize(&times);
        r.set("op_ms_p50", sum.median * 1e3);
        r.set("op_ms_p90", percentile(&times, 90.0) * 1e3);
        r.set("ops_per_s", 1.0 / sum.median);
        r.set("peak_act_bytes", peak);
        r.set("setup_s", median(&setup_s));
        println!(
            "searches {} in {cycle} cycles (q1 {:.3} ms, median {:.3} ms, q3 {:.3} ms{}); {steal:.2}% of CPU time stolen",
            sum.n,
            sum.q1 * 1e3,
            sum.median * 1e3,
            sum.q3 * 1e3,
            sum.tail
                .map_or(String::new(), |(p, v)| format!(", p{p} {:.3} ms", v * 1e3)),
        );
    }
}
