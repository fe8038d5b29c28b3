//! The training workloads: one closed-loop client issuing
//! `PipelineRuntime::train_step` calls under the MEPipe (SVPP) schedule
//! with weight gradients drained while stages wait.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mepipe_comm::{build_transport, Backend, CommError, TransportConfig};
use mepipe_core::svpp::Mepipe;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::{Dims, ScheduleGenerator};
use mepipe_schedule::ir::Schedule;
use mepipe_tensor::init::synthetic_tokens;
use mepipe_trace::{bubble, SpanKind};
use mepipe_train::{
    optim::Sgd, params::ModelParams, reference, PipelineRuntime, RunStats, WgradMode,
};

use crate::layers::{self, time_call};
use crate::meta::CpuTimes;
use crate::report::Report;
use crate::stats::{median, percentile, summarize};
use crate::{derive_seed, probe, STATE_DIR};

/// Learning rate of the SGD step each operation ends with.
const LR: f32 = 0.01;
/// Distinct token batches the loop cycles through.
const BATCHES: usize = 4;
/// Tolerance of the pipeline-vs-reference loss check (the one the
/// runtime's own property tests use).
const REFERENCE_TOL: f64 = 1e-4;
/// Names of the per-stage metrics; both training workloads run 2 stages.
const BUSY: [&str; 2] = ["train.busy_ms.s0", "train.busy_ms.s1"];
const IDLE: [&str; 2] = ["train.idle_ms.s0", "train.idle_ms.s1"];
const IDLE_SHARE: [&str; 2] = ["train.idle_share.s0", "train.idle_share.s1"];

/// One training workload.
pub struct TrainSpec {
    /// Workload name (as on the command line).
    pub name: &'static str,
    /// The model.
    pub cfg: TransformerConfig,
    /// Pipeline stages.
    pub stages: usize,
    /// Slices per sequence.
    pub slices: usize,
    /// Micro-batches per step.
    pub micro_batches: usize,
    /// Unix-domain sockets between the stage threads instead of
    /// in-process queues.
    pub uds: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// 16-token slices of a hidden-64 model over UDS: per-step overhead
/// (rendezvous, thread spawn, framing) dominates the kernels.
pub fn fine_uds() -> TrainSpec {
    TrainSpec {
        name: "fine_uds",
        cfg: TransformerConfig {
            seq_len: 128,
            ..TransformerConfig::tiny(4)
        },
        stages: 2,
        slices: 8,
        micro_batches: 4,
        uds: true,
        setups: 20,
    }
}

/// 128-token slices of a hidden-512 model over in-process queues: GEMM
/// throughput dominates.
pub fn coarse_inproc() -> TrainSpec {
    TrainSpec {
        name: "coarse_inproc",
        cfg: TransformerConfig {
            hidden: 512,
            layers: 4,
            ffn_hidden: 1024,
            heads: 8,
            kv_heads: 8,
            vocab: 256,
            seq_len: 256,
        },
        stages: 2,
        slices: 2,
        micro_batches: 4,
        uds: false,
        setups: 3,
    }
}

/// A runtime built and stepped once from scratch.
struct Setup {
    rt: PipelineRuntime,
    schedule: Schedule,
    first: RunStats,
    secs: f64,
    generate_secs: f64,
}

/// Model init, schedule generation, runtime build and the first
/// (cold-arena) step: the work a user pays before the steady state.
fn setup(
    spec: &TrainSpec,
    seed: u64,
    transport: &TransportConfig,
    batch: &[Vec<usize>],
) -> Result<Setup, CommError> {
    let start = Instant::now();
    let model = ModelParams::init(spec.cfg, derive_seed(seed, 0));
    let t = Instant::now();
    let schedule = Mepipe::new()
        .generate(&Dims::new(spec.stages, spec.micro_batches).slices(spec.slices))
        .expect("the workload's SVPP shape is valid");
    let generate_secs = t.elapsed().as_secs_f64();
    let mut rt = PipelineRuntime::new(model, spec.stages, 1).with_transport(transport.clone());
    let first = rt.train_step(&schedule, batch, WgradMode::DrainOnWait, LR)?;
    Ok(Setup {
        rt,
        schedule,
        first,
        secs: start.elapsed().as_secs_f64(),
        generate_secs,
    })
}

fn batches(spec: &TrainSpec, seed: u64) -> Vec<Vec<Vec<usize>>> {
    let cfg = &spec.cfg;
    (0..BATCHES)
        .map(|b| {
            (0..spec.micro_batches)
                .map(|m| {
                    let stream = 1 + (b * spec.micro_batches + m) as u64;
                    synthetic_tokens(cfg.seq_len + 1, cfg.vocab, derive_seed(seed, stream))
                })
                .collect()
        })
        .collect()
}

fn healthy(stats: &RunStats) -> bool {
    stats.loss.is_finite() && stats.oom.is_none()
}

/// Runs the workload for `seconds` and fills `r` with the end-to-end
/// metrics, or with the per-layer ones when `traced`. The output checks
/// run after the measurement, so their memory stays out of
/// `rss_peak_bytes`.
pub fn run(spec: &TrainSpec, seed: u64, seconds: Duration, traced: bool, r: &mut Report) {
    let roof = traced.then(probe::measure);
    let uds_dir = Path::new(STATE_DIR).join(format!("uds-{}", std::process::id()));
    let transport = TransportConfig {
        backend: if spec.uds {
            Backend::Uds(uds_dir.clone())
        } else {
            Backend::InProc
        },
        ..TransportConfig::default()
    };
    let batches = batches(spec, seed);

    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..spec.setups {
        // Only one runtime is alive at a time, as for a user.
        drop(last.take());
        r.attempted += 1;
        match setup(spec, seed, &transport, &batches[0]) {
            Ok(s) if healthy(&s.first) => {
                setups.push((s.secs, s.generate_secs, s.first.loss.to_bits()));
                last = Some(s);
            }
            Ok(_) => r.failed += 1,
            Err(e) => {
                eprintln!("perfbench: set-up step failed: {e}");
                r.failed += 1;
            }
        }
    }
    let Some(Setup {
        rt,
        schedule,
        first,
        ..
    }) = last
    else {
        r.check("a set-up completed", false);
        return;
    };
    let mut losses = vec![first.loss.to_bits()];
    if let Some(roof) = roof {
        r.set("hw.fma_gflops", roof.fma_gflops);
        r.set("hw.stream_gbps", roof.stream_gbps);
        let gen: Vec<f64> = setups.iter().map(|x| x.1).collect();
        r.set("core.svpp_generate_ms", median(&gen) * 1e3);
        traced_loop(rt, &schedule, &batches, seconds, &mut losses, r);
        let model = ModelParams::init(spec.cfg, derive_seed(seed, 0));
        let reference_s = time_call(Duration::ZERO, || {
            reference::batch_forward_backward(&model, &batches[0])
        });
        r.set("train.reference_ms", reference_s * 1e3);
        let mut rendezvous = Vec::new();
        for _ in 0..20 {
            match rendezvous_secs(&transport, spec.stages) {
                Ok(t) => rendezvous.push(t),
                Err(e) => {
                    eprintln!("perfbench: rendezvous failed: {e}");
                    r.failed += 1;
                }
            }
        }
        r.set("comm.rendezvous_ms", median(&rendezvous) * 1e3);
        layers::tensor_kernels(&spec.cfg, spec.slices, &roof, r);
    } else {
        let peak = first.peak_bytes.iter().copied().max().unwrap_or(0);
        untraced_loop(spec, rt, &schedule, &batches, seconds, peak, &mut losses, r);
        let setup_s: Vec<f64> = setups.iter().map(|x| x.0).collect();
        r.set("setup_s", median(&setup_s));
    }

    let first_bits = losses[0];
    r.check(
        "first-step loss bit-identical across set-ups",
        setups.iter().all(|x| x.2 == first_bits),
    );
    let first_loss = f64::from_bits(first_bits);
    let init = ModelParams::init(spec.cfg, derive_seed(seed, 0));
    let expected = reference::batch_forward_backward(&init, &batches[0]).loss;
    r.check(
        format!(
            "pipeline loss {first_loss} within {REFERENCE_TOL} of the single-device reference {expected}"
        ),
        (first_loss - expected).abs() <= REFERENCE_TOL,
    );
    if spec.uds {
        let inproc = PipelineRuntime::new(init, spec.stages, 1).run_iteration(
            &schedule,
            &batches[0],
            WgradMode::DrainOnWait,
            None,
        );
        r.check(
            "first-step loss over UDS bit-identical to in-process transport",
            inproc.is_ok_and(|st| st.loss.to_bits() == first_bits),
        );
    }
    let _ = std::fs::remove_dir_all(&uds_dir);
    check_loss_record(spec.name, seed, &losses, r);
}

/// `train_step` after `train_step` for `seconds`: the end-to-end
/// metrics. `peak` is the set-up step's activation peak.
#[allow(clippy::too_many_arguments)]
fn untraced_loop(
    spec: &TrainSpec,
    mut rt: PipelineRuntime,
    schedule: &Schedule,
    batches: &[Vec<Vec<usize>>],
    seconds: Duration,
    mut peak: usize,
    losses: &mut Vec<u64>,
    r: &mut Report,
) {
    let mut times = Vec::new();
    let cpu = CpuTimes::now();
    let start = Instant::now();
    let mut k = 1;
    while start.elapsed() < seconds {
        r.attempted += 1;
        let t = Instant::now();
        let res = rt.train_step(schedule, &batches[k % BATCHES], WgradMode::DrainOnWait, LR);
        let dt = t.elapsed().as_secs_f64();
        match res {
            Ok(st) if healthy(&st) => {
                times.push(dt);
                peak = peak.max(st.peak_bytes.iter().copied().max().unwrap_or(0));
                if losses.len() == k {
                    losses.push(st.loss.to_bits());
                }
            }
            res => {
                if let Err(e) = res {
                    eprintln!("perfbench: step {k} failed: {e}");
                }
                r.failed += 1;
            }
        }
        k += 1;
    }
    let steal = cpu.steal_percent_since();
    drop(rt);
    if times.is_empty() {
        r.check("a measured step completed", false);
        return;
    }
    r.set_rss_peak();
    times.sort_by(f64::total_cmp);
    let sum = summarize(&times);
    r.set("op_ms_p50", sum.median * 1e3);
    r.set("op_ms_p90", percentile(&times, 90.0) * 1e3);
    r.set("ops_per_s", 1.0 / sum.median);
    r.set("peak_act_bytes", peak as f64);
    let tokens_per_step = (spec.micro_batches * spec.cfg.seq_len) as f64;
    println!(
        "steps {} (q1 {:.3} ms, median {:.3} ms, q3 {:.3} ms{}); tokens/s {:.1} at {tokens_per_step} tokens/step; {steal:.2}% of CPU time stolen",
        sum.n,
        sum.q1 * 1e3,
        sum.median * 1e3,
        sum.q3 * 1e3,
        sum.tail
            .map_or(String::new(), |(p, v)| format!(", p{p} {:.3} ms", v * 1e3)),
        tokens_per_step / sum.median,
    );
}

/// Per-step observations of the traced run.
#[derive(Default)]
struct Traced {
    wall_plain: Vec<f64>,
    wall_traced: Vec<f64>,
    sgd: Vec<f64>,
    overhead: Vec<f64>,
    busy: [Vec<f64>; 2],
    idle: [Vec<f64>; 2],
    idle_share: [Vec<f64>; 2],
    f_us: Vec<f64>,
    b_us: Vec<f64>,
    w_us: Vec<f64>,
    drained: usize,
    wgemms_per_step: Vec<f64>,
    bubbles: [Vec<f64>; 4],
    comm: [Vec<f64>; 6],
    retries: u64,
    rejected: u64,
    arena_hits: u64,
    arena_misses: u64,
}

/// Alternates untraced and traced steps for `seconds`: layer counters
/// come from the untraced steps, spans from the traced ones, and the
/// difference of their medians is the tracing overhead. Each step is
/// `run_iteration` then a separately timed SGD step, which is exactly
/// what `train_step` does.
fn traced_loop(
    mut rt: PipelineRuntime,
    schedule: &Schedule,
    batches: &[Vec<Vec<usize>>],
    seconds: Duration,
    losses: &mut Vec<u64>,
    r: &mut Report,
) {
    let mut o = Traced::default();
    let start = Instant::now();
    let mut k = 1;
    while start.elapsed() < seconds || k <= 2 {
        let tracing = k % 2 == 0;
        rt = rt.with_tracing(tracing);
        r.attempted += 1;
        let t = Instant::now();
        let res = rt.run_iteration(
            schedule,
            &batches[k % BATCHES],
            WgradMode::DrainOnWait,
            None,
        );
        let iter_s = t.elapsed().as_secs_f64();
        let st = match res {
            Ok(st) if healthy(&st) => st,
            res => {
                if let Err(e) = res {
                    eprintln!("perfbench: step {k} failed: {e}");
                }
                r.failed += 1;
                k += 1;
                continue;
            }
        };
        let t = Instant::now();
        Sgd { lr: LR }.step_model(&mut rt.model, &st.grads);
        let sgd_s = t.elapsed().as_secs_f64();
        o.sgd.push(sgd_s);
        if losses.len() == k {
            losses.push(st.loss.to_bits());
        }
        if tracing {
            o.wall_traced.push(iter_s + sgd_s);
            record_spans(&st, &mut o);
        } else {
            o.wall_plain.push(iter_s + sgd_s);
            record_counters(&st, iter_s, &mut o);
        }
        k += 1;
    }

    let ms = |v: &[f64]| median(v) * 1e3;
    r.set("trace.overhead", ms(&o.wall_traced) - ms(&o.wall_plain));
    r.set("train.sgd_ms", ms(&o.sgd));
    r.set("train.iter_overhead_ms", ms(&o.overhead));
    for s in 0..2 {
        r.set(BUSY[s], ms(&o.busy[s]));
        r.set(IDLE[s], ms(&o.idle[s]));
        r.set(IDLE_SHARE[s], median(&o.idle_share[s]));
    }
    r.set("train.f_us", median(&o.f_us));
    r.set("train.b_us", median(&o.b_us));
    r.set("train.w_us", median(&o.w_us));
    let wgemms = median(&o.wgemms_per_step) * o.wall_plain.len() as f64;
    r.set("train.drain_share", o.drained as f64 / wgemms.max(1.0));
    for (name, v) in [
        "trace.bubble_warmup_ms",
        "trace.bubble_comm_stall_ms",
        "trace.bubble_dependency_ms",
        "trace.bubble_tail_ms",
    ]
    .into_iter()
    .zip(&o.bubbles)
    {
        r.set(name, median(v));
    }
    for (name, v) in [
        "comm.msgs_per_iter",
        "comm.bytes_per_iter",
        "comm.serialize_ms",
        "comm.deserialize_ms",
        "comm.recv_wait_ms",
        "comm.send_stall_ms",
    ]
    .into_iter()
    .zip(&o.comm)
    {
        r.set(name, median(v));
    }
    r.set("comm.retries", o.retries as f64);
    r.set("comm.rejected_checksums", o.rejected as f64);
    let lookups = (o.arena_hits + o.arena_misses).max(1);
    r.set(
        "tensor.arena_hit_rate",
        o.arena_hits as f64 / lookups as f64,
    );
    println!(
        "traced loop: {} untraced and {} traced steps",
        o.wall_plain.len(),
        o.wall_traced.len()
    );
}

/// Counters every step reports, tracing or not.
fn record_counters(st: &RunStats, iter_s: f64, o: &mut Traced) {
    let window = (0..st.busy_seconds.len())
        .map(|s| st.busy_seconds[s] + st.idle_seconds[s])
        .fold(0.0, f64::max);
    o.overhead.push(iter_s - window);
    for s in 0..2 {
        let (busy, idle) = (st.busy_seconds[s], st.idle_seconds[s]);
        o.busy[s].push(busy);
        o.idle[s].push(idle);
        o.idle_share[s].push(idle / (busy + idle).max(1e-12));
    }
    o.drained += st.drained_wgrads.iter().sum::<usize>();
    let ns_ms = |ns: u64| ns as f64 * 1e-6;
    let mut sums = [0.0f64; 6];
    for c in &st.comm {
        let l = c.total();
        sums[0] += l.tx_messages as f64;
        sums[1] += l.tx_bytes as f64;
        sums[2] += ns_ms(l.serialize_ns);
        sums[3] += ns_ms(l.deserialize_ns);
        sums[4] += ns_ms(c.recv_wait_ns);
        sums[5] += ns_ms(l.send_stall_ns);
        o.retries += l.retries;
        o.rejected += l.rejected_checksums;
    }
    for (v, s) in o.comm.iter_mut().zip(sums) {
        v.push(s);
    }
    for a in &st.arena {
        o.arena_hits += a.hits;
        o.arena_misses += a.misses;
    }
}

/// Span statistics and bubble attribution of one traced step.
fn record_spans(st: &RunStats, o: &mut Traced) {
    let Some(trace) = &st.trace else { return };
    let mut w_units: std::collections::BTreeMap<(usize, u32, u32, u32), u64> = Default::default();
    let mut wgemms = 0usize;
    for stage in &trace.stages {
        for s in &stage.spans {
            let us = s.duration_ns() as f64 * 1e-3;
            match s.kind {
                SpanKind::Forward => o.f_us.push(us),
                SpanKind::BackwardInput | SpanKind::Backward => o.b_us.push(us),
                SpanKind::BackwardWeight | SpanKind::WgradDrain => {
                    wgemms += 1;
                    *w_units
                        .entry((stage.stage, s.mb, s.slice, s.chunk))
                        .or_default() += s.duration_ns();
                }
                SpanKind::Send | SpanKind::RecvWait => {}
            }
        }
    }
    o.w_us.extend(w_units.values().map(|&ns| ns as f64 * 1e-3));
    o.wgemms_per_step.push(wgemms as f64);
    let report = bubble::attribute(trace);
    let mut sums = [0.0f64; 4];
    for b in &report.stages {
        sums[0] += b.idle.warmup;
        sums[1] += b.idle.comm_stall;
        sums[2] += b.idle.dependency;
        sums[3] += b.idle.tail;
    }
    for (v, s) in o.bubbles.iter_mut().zip(sums) {
        v.push(s * 1e3);
    }
}

/// Builds the workload's transport and claims every endpoint
/// concurrently, as each `run_iteration` does.
fn rendezvous_secs(transport: &TransportConfig, stages: usize) -> Result<f64, CommError> {
    let t = Instant::now();
    let fabric = build_transport(transport, stages, 8)?;
    let fabric = fabric.as_ref();
    std::thread::scope(|s| {
        let claims: Vec<_> = (0..stages)
            .map(|w| s.spawn(move || fabric.endpoint(w).map(|mut ep| ep.close())))
            .collect();
        claims
            .into_iter()
            .map(|h| h.join().expect("rendezvous thread panicked"))
            .collect::<Result<Vec<()>, CommError>>()
    })?;
    Ok(t.elapsed().as_secs_f64())
}

/// Compares this run's per-step loss bits with the longest earlier run
/// of the same workload, seed and source, then keeps the longer record.
fn check_loss_record(workload: &str, seed: u64, losses: &[u64], r: &mut Report) {
    let dir = PathBuf::from(STATE_DIR).join("losses");
    let path = dir.join(format!(
        "{workload}-{seed}-{:016x}.txt",
        crate::meta::source_digest()
    ));
    let earlier: Vec<u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| u64::from_str_radix(l, 16).ok())
        .collect();
    let common = earlier.len().min(losses.len());
    r.check(
        format!("loss bits of the first {common} steps match earlier runs with this seed"),
        earlier[..common] == losses[..common],
    );
    if losses.len() > earlier.len() {
        let text: String = losses.iter().map(|b| format!("{b:016x}\n")).collect();
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&tmp, text))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!(
                "perfbench: cannot keep the loss record {}: {e}",
                path.display()
            );
        }
    }
}
