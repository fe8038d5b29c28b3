//! The discrete-event execution engine.
//!
//! Semantics: every worker executes its schedule list strictly in order
//! (forwards, input-gradient/fused backwards); an op starts once its
//! producers have finished and any cross-stage tensor has arrived. Two
//! dynamic behaviours sit on top:
//!
//! * with [`SimConfig::dynamic_wgrad`] enabled, weight-gradient ops are
//!   *not* executed at their list position — they enter a FIFO
//!   [`WgradQueue`] when their input-gradient op completes and are drained
//!   GEMM-by-GEMM whenever the worker would otherwise idle, plus a final
//!   drain after the list is exhausted (Section 5);
//! * with a [`SimConfig::memory_limit_bytes`], activations are charged at
//!   forward start and the engine force-drains deferred weight work to
//!   make room before declaring OOM.

use mepipe_core::wgrad::WgradQueue;
use mepipe_schedule::ir::{Op, OpKind, Schedule};

use crate::{
    cost::SimCost,
    timeline::{Segment, SegmentKind},
};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Defer weight-gradient ops into an opportunistic queue instead of
    /// running them at their list positions.
    pub dynamic_wgrad: bool,
    /// Per-worker activation-memory cap in bytes (`None` = unbounded).
    pub memory_limit_bytes: Option<f64>,
    /// Add the data-parallel gradient synchronisation to iteration time.
    pub include_dp_sync: bool,
    /// Add the optimizer step to iteration time.
    pub include_optimizer: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            dynamic_wgrad: false,
            memory_limit_bytes: None,
            include_dp_sync: true,
            include_optimizer: true,
        }
    }
}

/// Result of one simulated iteration.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-worker timeline segments (compute, weight-drain), time-ordered.
    pub segments: Vec<Vec<Segment>>,
    /// Completion time of the last compute on any worker (excludes DP sync
    /// and optimizer).
    pub makespan: f64,
    /// Full iteration time (makespan + DP sync + optimizer when enabled).
    pub iteration_time: f64,
    /// Busy compute time per worker (including drained weight work).
    pub busy: Vec<f64>,
    /// Peak activation bytes per worker (including deferred-W retention).
    pub peak_activation_bytes: Vec<f64>,
    /// First worker that exceeded the memory cap even after force-drains,
    /// with the bytes it needed.
    pub oom: Option<(usize, f64)>,
}

impl SimResult {
    /// Mean idle fraction across workers over the makespan.
    pub fn bubble_ratio(&self) -> f64 {
        if self.makespan <= 0.0 || self.busy.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.busy.iter().map(|b| 1.0 - b / self.makespan).sum();
        (sum / self.busy.len() as f64).max(0.0)
    }

    /// Idle fraction of one worker.
    pub fn bubble_ratio_of(&self, stage: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        1.0 - self.busy[stage] / self.makespan
    }

    /// Compresses the result to the scalar summary the grid search keeps:
    /// timings, the mean bubble ratio, the worst worker's activation peak
    /// and the OOM verdict — everything except the per-worker timelines.
    pub fn summary(&self) -> SimSummary {
        SimSummary {
            iteration_time: self.iteration_time,
            makespan: self.makespan,
            bubble_ratio: self.bubble_ratio(),
            peak_activation_bytes: self
                .peak_activation_bytes
                .iter()
                .copied()
                .fold(0.0, f64::max),
            oom: self.oom,
        }
    }
}

/// Scalar summary of a [`SimResult`] — what search memoization retains
/// per evaluated candidate, a few dozen bytes instead of the full
/// per-worker segment timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    /// Full iteration time (makespan + enabled overheads).
    pub iteration_time: f64,
    /// Completion time of the last compute on any worker.
    pub makespan: f64,
    /// Mean idle fraction across workers.
    pub bubble_ratio: f64,
    /// Peak activation bytes on the most loaded worker.
    pub peak_activation_bytes: f64,
    /// OOM verdict: first worker over the cap and the bytes it needed.
    pub oom: Option<(usize, f64)>,
}

struct WorkerState {
    next: usize,
    free: f64,
    busy: f64,
    act_bytes: f64,
    peak_bytes: f64,
    queue: WgradQueue,
    segments: Vec<Segment>,
}

impl WorkerState {
    fn current_bytes(&self) -> f64 {
        self.act_bytes + self.queue.retained_bytes()
    }

    fn note_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.current_bytes());
    }
}

/// Simulates one iteration of `schedule` under `cost`.
///
/// Returns `Err` only on a malformed (deadlocking) schedule; OOM is
/// reported in-band via [`SimResult::oom`].
///
/// # Examples
///
/// ```
/// use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator};
/// use mepipe_sim::{engine::{simulate, SimConfig}, UniformSimCost};
///
/// let schedule = Dapple.generate(&Dims::new(4, 8)).unwrap();
/// let result = simulate(&schedule, &UniformSimCost::default(), &SimConfig::default()).unwrap();
/// // 1F1B at p=4, n=8 with balanced unit costs: bubble (p-1)/(p-1+n).
/// assert!((result.bubble_ratio() - 3.0 / 11.0).abs() < 1e-9);
/// ```
pub fn simulate(
    schedule: &Schedule,
    cost: &dyn SimCost,
    config: &SimConfig,
) -> Result<SimResult, String> {
    let meta = &schedule.meta;
    let nw = schedule.num_workers();
    let mut workers: Vec<WorkerState> = (0..nw)
        .map(|_| WorkerState {
            next: 0,
            free: 0.0,
            busy: 0.0,
            act_bytes: 0.0,
            peak_bytes: 0.0,
            queue: WgradQueue::new(),
            segments: Vec::new(),
        })
        .collect();
    // Finish time per op slot (`ScheduleMeta::op_index`), `None` until run.
    let mut finished: Vec<Option<f64>> = vec![None; meta.op_slots()];
    let mut oom: Option<(usize, f64)> = None;
    // Directed link occupancy, `link_free[from * nw + to]`: two tensors
    // crossing the same stage boundary in the same direction serialise
    // (the fabric is full duplex, so the two directions are independent).
    // This is what makes very fine slices pay for their per-message
    // latency on slow links.
    let mut link_free = vec![0.0f64; nw * nw];

    // Skip-set for dynamically deferred weight ops.
    let is_deferred_w = |op: &Op| config.dynamic_wgrad && op.kind == OpKind::BackwardWeight;

    let total_listed: usize = schedule
        .workers
        .iter()
        .map(|ops| ops.iter().filter(|o| !is_deferred_w(o)).count())
        .sum();
    let mut executed = 0usize;

    while executed < total_listed {
        // Select the globally earliest startable next op.
        let mut best: Option<(f64, usize)> = None;
        for (w, st) in workers.iter().enumerate() {
            let mut idx = st.next;
            while idx < schedule.workers[w].len() && is_deferred_w(&schedule.workers[w][idx]) {
                idx += 1;
            }
            if idx >= schedule.workers[w].len() {
                continue;
            }
            let op = schedule.workers[w][idx];
            let mut ready = st.free;
            let mut ok = true;
            for d in mepipe_schedule::deps::dependencies(meta, w, op) {
                // A dynamically deferred weight op never appears as a
                // producer of listed ops (only the optimizer needs it).
                match finished[meta.op_index(d.stage, d.op)] {
                    Some(t) => {
                        let arrival = if d.cross_stage {
                            let busy_until = link_free[d.stage * nw + w];
                            t.max(busy_until) + cost.transfer_time(d.stage, w)
                        } else {
                            t
                        };
                        ready = ready.max(arrival);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && best.is_none_or(|(bt, _)| ready < bt) {
                best = Some((ready, w));
            }
        }
        let (mut start, w) = best.ok_or_else(|| deadlock_message(schedule, &workers))?;
        // Advance past deferred weight ops in the list.
        while is_deferred_w(&schedule.workers[w][workers[w].next]) {
            workers[w].next += 1;
        }
        let op = schedule.workers[w][workers[w].next];

        // Fill the wait gap with queued weight-gradient GEMMs.
        if config.dynamic_wgrad && start > workers[w].free {
            let gap = start - workers[w].free;
            let (spent, _done) = workers[w].queue.drain_for(gap);
            if spent > 0.0 {
                let st = &mut workers[w];
                st.segments.push(Segment {
                    kind: SegmentKind::WgradDrain,
                    op: None,
                    start: st.free,
                    end: st.free + spent,
                });
                st.busy += spent;
                st.free += spent;
            }
        }

        // Memory admission for forwards.
        if op.kind == OpKind::Forward {
            let need = cost.activation_bytes();
            if let Some(limit) = config.memory_limit_bytes {
                let over = workers[w].current_bytes() + need - limit;
                if over > 0.0 {
                    let (spent, _done) = workers[w].queue.drain_for_bytes(over);
                    if spent > 0.0 {
                        let st = &mut workers[w];
                        st.segments.push(Segment {
                            kind: SegmentKind::WgradDrain,
                            op: None,
                            start: st.free.max(start),
                            end: st.free.max(start) + spent,
                        });
                        st.busy += spent;
                        st.free = st.free.max(start) + spent;
                        start = start.max(st.free);
                    }
                    if workers[w].current_bytes() + need > limit && oom.is_none() {
                        oom = Some((w, workers[w].current_bytes() + need));
                    }
                }
            }
            workers[w].act_bytes += need;
            workers[w].note_peak();
        }

        start = start.max(workers[w].free);
        let dur = cost.duration(w, op);
        let end = start + dur;
        {
            let st = &mut workers[w];
            st.segments.push(Segment {
                kind: SegmentKind::from_op(op.kind),
                op: Some(op),
                start,
                end,
            });
            st.busy += dur;
            st.free = end;
            st.next += 1;
        }
        finished[meta.op_index(w, op)] = Some(end);
        executed += 1;
        // Commit the link occupancy of every transfer this op consumed.
        for d in mepipe_schedule::deps::dependencies(meta, w, op) {
            if d.cross_stage {
                let t = finished[meta.op_index(d.stage, d.op)].expect("producer ran");
                let link = &mut link_free[d.stage * nw + w];
                *link = t.max(*link) + cost.transfer_time(d.stage, w);
            }
        }

        // Memory release / deferral at backward completion.
        match op.kind {
            OpKind::Backward => {
                workers[w].act_bytes -= cost.activation_bytes();
            }
            OpKind::BackwardInput if config.dynamic_wgrad => {
                // Activation + gradient retained until the W drain.
                workers[w].act_bytes -= cost.activation_bytes();
                let retained = cost.activation_bytes() + cost.deferred_bytes();
                let units = cost.wgrad_units();
                let w_time = cost.wgrad_time(w, op);
                workers[w].queue.enqueue(
                    op.with_kind(OpKind::BackwardWeight),
                    units,
                    w_time / units as f64,
                    retained,
                );
                workers[w].note_peak();
                // Deferred retention must also respect the cap — this is
                // the Section 5 observation that memory-pressed early
                // stages have to run their weight gradients eagerly.
                if let Some(limit) = config.memory_limit_bytes {
                    let over = workers[w].current_bytes() - limit;
                    if over > 0.0 {
                        let (spent, _done) = workers[w].queue.drain_for_bytes(over);
                        if spent > 0.0 {
                            let st = &mut workers[w];
                            st.segments.push(Segment {
                                kind: SegmentKind::WgradDrain,
                                op: None,
                                start: st.free,
                                end: st.free + spent,
                            });
                            st.busy += spent;
                            st.free += spent;
                        }
                    }
                }
            }
            OpKind::BackwardInput => {
                // Static split: the W op follows in the list; keep the
                // activation charged until it completes.
            }
            OpKind::BackwardWeight => {
                workers[w].act_bytes -= cost.activation_bytes();
            }
            OpKind::Forward => {}
        }
    }

    // Tail drain of any remaining deferred weight work.
    if config.dynamic_wgrad {
        for (w, st) in workers.iter_mut().enumerate() {
            let _ = w;
            if !st.queue.is_empty() {
                let (spent, _done) = st.queue.drain_all();
                st.segments.push(Segment {
                    kind: SegmentKind::WgradDrain,
                    op: None,
                    start: st.free,
                    end: st.free + spent,
                });
                st.busy += spent;
                st.free += spent;
            }
        }
    }

    let makespan = workers.iter().map(|s| s.free).fold(0.0, f64::max);
    let mut iteration_time = makespan;
    if config.include_dp_sync {
        iteration_time += cost.dp_sync_time();
    }
    if config.include_optimizer {
        iteration_time += cost.optimizer_time();
    }

    Ok(SimResult {
        segments: workers.iter().map(|s| s.segments.clone()).collect(),
        makespan,
        iteration_time,
        busy: workers.iter().map(|s| s.busy).collect(),
        peak_activation_bytes: workers.iter().map(|s| s.peak_bytes).collect(),
        oom,
    })
}

fn deadlock_message(schedule: &Schedule, workers: &[WorkerState]) -> String {
    for (w, st) in workers.iter().enumerate() {
        if st.next < schedule.workers[w].len() {
            return format!(
                "simulation deadlock at worker {w}: {}",
                schedule.workers[w][st.next]
            );
        }
    }
    "simulation deadlock with no pending ops (internal error)".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UniformSimCost;
    use mepipe_core::svpp::{Mepipe, Svpp};
    use mepipe_schedule::generator::{Dapple, Dims, GPipe, ScheduleGenerator, Zb};

    fn svpp_dims(p: usize, s: usize, n: usize) -> Dims {
        Dims::new(p, n).slices(s)
    }

    #[test]
    fn matches_static_executor_without_dynamics() {
        let sch = Dapple.generate(&Dims::new(4, 8)).unwrap();
        let cost = UniformSimCost::default();
        let r = simulate(&sch, &cost, &SimConfig::default()).unwrap();
        let t = mepipe_schedule::exec::execute(
            &sch,
            &mepipe_schedule::exec::UnitCost {
                fwd: 1.0,
                bwd: 2.0,
                wgrad: 0.0,
            },
        )
        .unwrap();
        assert!((r.makespan - t.makespan).abs() < 1e-9);
        assert!((r.bubble_ratio() - t.bubble_ratio()).abs() < 1e-9);
    }

    #[test]
    fn peak_memory_counts_in_flight_units() {
        let sch = GPipe.generate(&Dims::new(4, 8)).unwrap();
        let cost = UniformSimCost::default();
        let r = simulate(&sch, &cost, &SimConfig::default()).unwrap();
        // GPipe stage 0 holds all 8 micro-batches.
        assert_eq!(r.peak_activation_bytes[0], 8.0);
    }

    #[test]
    fn fine_grained_dynamic_wgrad_beats_static_with_comm_waits() {
        // The Section 5 claim: with communication waits in the pipeline,
        // draining weight GEMMs into the gaps shortens the iteration. At
        // GEMM granularity (units = 8) the gaps are actually fillable;
        // whole-op deferral (units = 1) can even lose to the static layout
        // because a 0.4-long gap cannot hold a 1.0-long W op.
        let sch = Zb.generate(&Dims::new(4, 8)).unwrap();
        let cost = UniformSimCost {
            comm: 0.4,
            wgrad_units: 8,
            ..Default::default()
        };
        let stat = simulate(
            &sch,
            &cost,
            &SimConfig {
                dynamic_wgrad: false,
                ..Default::default()
            },
        )
        .unwrap();
        let dynr = simulate(
            &sch,
            &cost,
            &SimConfig {
                dynamic_wgrad: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            dynr.makespan < stat.makespan + 1e-9,
            "dynamic {} vs static {}",
            dynr.makespan,
            stat.makespan
        );
    }

    #[test]
    fn finer_wgrad_units_fill_gaps_better() {
        let sch = Mepipe::new().generate(&svpp_dims(4, 2, 8)).unwrap();
        let coarse = UniformSimCost {
            comm: 0.3,
            wgrad_units: 1,
            ..Default::default()
        };
        let fine = UniformSimCost {
            comm: 0.3,
            wgrad_units: 8,
            ..Default::default()
        };
        let conf = SimConfig {
            dynamic_wgrad: true,
            ..Default::default()
        };
        let rc = simulate(&sch, &coarse, &conf).unwrap();
        let rf = simulate(&sch, &fine, &conf).unwrap();
        assert!(
            rf.makespan <= rc.makespan + 1e-9,
            "fine {} vs coarse {}",
            rf.makespan,
            rc.makespan
        );
    }

    #[test]
    fn memory_limit_triggers_forced_drain_or_oom() {
        let sch = GPipe.generate(&Dims::new(4, 8)).unwrap();
        let cost = UniformSimCost::default();
        let conf = SimConfig {
            memory_limit_bytes: Some(4.0),
            ..Default::default()
        };
        let r = simulate(&sch, &cost, &conf).unwrap();
        // GPipe cannot shed activations; it must OOM at the cap.
        let (worker, bytes) = r.oom.expect("gpipe at cap 4 must OOM");
        assert_eq!(worker, 0);
        assert!(bytes > 4.0);
    }

    #[test]
    fn svpp_fits_where_dapple_ooms() {
        let p = 4;
        let n = 8;
        // Budget of 6 slice units at s=4: DAPPLE needs p whole units = 16.
        let limit = 6.0;
        let da = Dapple.generate(&Dims::new(p, n)).unwrap();
        let da_cost = UniformSimCost {
            act_bytes: 4.0,
            ..Default::default()
        };
        let conf = SimConfig {
            memory_limit_bytes: Some(limit),
            ..Default::default()
        };
        let rd = simulate(&da, &da_cost, &conf).unwrap();
        assert!(rd.oom.is_some());
        // The SVPP variant with warmup budget f = 6 fits the 6-unit cap
        // (Section 4.2's memory-for-bubbles trade).
        let sv = Svpp::new()
            .warmup_cap(6)
            .generate(&svpp_dims(p, 4, n))
            .unwrap();
        let sv_cost = UniformSimCost {
            act_bytes: 1.0,
            ..Default::default()
        };
        let rs = simulate(&sv, &sv_cost, &conf).unwrap();
        assert!(rs.oom.is_none(), "peaks: {:?}", rs.peak_activation_bytes);
    }

    #[test]
    fn link_occupancy_serialises_back_to_back_transfers() {
        // Two micro-batches on a 2-stage pipeline with transfers slower
        // than compute: the second forward's tensor must queue behind the
        // first on the boundary link.
        let sch = Dapple.generate(&Dims::new(2, 2)).unwrap();
        let slow = UniformSimCost {
            comm: 3.0,
            ..Default::default()
        };
        let r = simulate(&sch, &slow, &SimConfig::default()).unwrap();
        // Stage 0: F0@0-1, F1@1-2. Transfer of F0 occupies [1,4]; F1's
        // transfer queues [4,7], so stage 1 starts F1 no earlier than 7.
        let f1_start = r.segments[1]
            .iter()
            .find(|s| s.op.map(|o| o.micro_batch) == Some(1) && s.kind == SegmentKind::Forward)
            .map(|s| s.start)
            .expect("F1 on stage 1");
        assert!(
            f1_start >= 7.0 - 1e-9,
            "F1 started at {f1_start}, link not serialised"
        );
    }

    #[test]
    fn iteration_time_includes_sync_when_enabled() {
        struct Synced(UniformSimCost);
        impl SimCost for Synced {
            fn duration(&self, s: usize, o: mepipe_schedule::ir::Op) -> f64 {
                self.0.duration(s, o)
            }
            fn transfer_time(&self, a: usize, b: usize) -> f64 {
                self.0.transfer_time(a, b)
            }
            fn wgrad_time(&self, s: usize, o: mepipe_schedule::ir::Op) -> f64 {
                self.0.wgrad_time(s, o)
            }
            fn wgrad_units(&self) -> usize {
                self.0.wgrad_units()
            }
            fn activation_bytes(&self) -> f64 {
                self.0.activation_bytes()
            }
            fn deferred_bytes(&self) -> f64 {
                self.0.deferred_bytes()
            }
            fn dp_sync_time(&self) -> f64 {
                2.5
            }
            fn optimizer_time(&self) -> f64 {
                1.5
            }
        }
        let sch = Dapple.generate(&Dims::new(2, 2)).unwrap();
        let cost = Synced(UniformSimCost::default());
        let with = simulate(&sch, &cost, &SimConfig::default()).unwrap();
        let without = simulate(
            &sch,
            &cost,
            &SimConfig {
                include_dp_sync: false,
                include_optimizer: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((with.iteration_time - without.iteration_time - 4.0).abs() < 1e-9);
        assert_eq!(with.makespan, without.makespan);
    }
}
