//! Static list-order execution timing.
//!
//! Given a schedule and per-op costs, compute when each op starts and
//! finishes if every worker executes its list strictly in order, starting
//! each op as soon as its producers (plus any cross-stage transfer) have
//! finished. This is the timing semantics every pipeline-parallel paper's
//! diagrams assume; the full simulator in `mepipe-sim` layers memory
//! tracking and dynamic weight-gradient draining on top.
//!
//! [`ListTiming`] is the incremental core: it places one op at a time and
//! keeps finish times in a dense table over the meta's op slots.
//! [`execute`] drives it over a whole schedule; the order solver in
//! `mepipe-core` drives it one decision at a time.

use crate::{
    deps::dependencies,
    ir::{Op, OpKind, Schedule, ScheduleMeta},
};

/// Pluggable per-op costs.
pub trait CostFn {
    /// Execution time of `op` on `stage`, in seconds (or abstract units).
    fn duration(&self, stage: usize, op: Op) -> f64;

    /// Transfer time for the tensor satisfying a cross-stage dependency.
    fn transfer(&self, from_stage: usize, to_stage: usize, op: Op) -> f64;
}

/// Uniform unit costs: every pass takes `fwd` (forwards) or `bwd`
/// (backwards) time units, transfers are free — the setting of the paper's
/// Table 3 analysis.
#[derive(Debug, Clone, Copy)]
pub struct UnitCost {
    /// Duration of one forward pass.
    pub fwd: f64,
    /// Duration of one fused or input-gradient backward pass.
    pub bwd: f64,
    /// Duration of one weight-gradient op.
    pub wgrad: f64,
}

impl UnitCost {
    /// Forward = 1, backward = 1, weight = 1 — pure slot counting.
    pub fn ones() -> Self {
        Self {
            fwd: 1.0,
            bwd: 1.0,
            wgrad: 1.0,
        }
    }

    /// The conventional 1F/2B weighting: backwards take twice as long.
    pub fn one_two() -> Self {
        Self {
            fwd: 1.0,
            bwd: 2.0,
            wgrad: 0.0,
        }
    }
}

impl CostFn for UnitCost {
    fn duration(&self, _stage: usize, op: Op) -> f64 {
        match op.kind {
            OpKind::Forward => self.fwd,
            OpKind::Backward | OpKind::BackwardInput => self.bwd,
            OpKind::BackwardWeight => self.wgrad,
        }
    }

    fn transfer(&self, _from: usize, _to: usize, _op: Op) -> f64 {
        0.0
    }
}

/// Timing of one executed op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placed {
    /// Worker the op ran on.
    pub stage: usize,
    /// The op.
    pub op: Op,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Full execution trace of a schedule.
#[derive(Debug, Clone)]
pub struct ExecTrace {
    /// All ops with their times, in completion order.
    pub placed: Vec<Placed>,
    /// Completion time of the whole iteration.
    pub makespan: f64,
    /// Busy time per worker.
    pub busy: Vec<f64>,
}

impl ExecTrace {
    /// Idle fraction of one worker over the iteration.
    pub fn bubble_ratio_of(&self, stage: usize) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        1.0 - self.busy[stage] / self.makespan
    }

    /// Mean idle fraction over all workers — the paper's "bubble ratio".
    pub fn bubble_ratio(&self) -> f64 {
        if self.busy.is_empty() {
            return 0.0;
        }
        let sum: f64 = (0..self.busy.len()).map(|w| self.bubble_ratio_of(w)).sum();
        sum / self.busy.len() as f64
    }

    /// Start/end lookup for one op on one stage.
    pub fn time_of(&self, stage: usize, op: Op) -> Option<(f64, f64)> {
        self.placed
            .iter()
            .find(|p| p.stage == stage && p.op == op)
            .map(|p| (p.start, p.end))
    }
}

/// Incremental list-order timing: when each placed op finished and when
/// each worker is next free. Ops are placed one at a time, each as the
/// next op of its worker's list.
#[derive(Debug, Clone)]
pub struct ListTiming {
    /// Finish time per op slot ([`ScheduleMeta::op_index`]); NaN until
    /// the op has run.
    finish: Vec<f64>,
    /// When each worker's last placed op ends.
    free: Vec<f64>,
}

impl ListTiming {
    /// Nothing placed yet.
    pub fn new(meta: &ScheduleMeta) -> Self {
        Self {
            finish: vec![f64::NAN; meta.op_slots()],
            free: vec![0.0; meta.stages],
        }
    }

    /// Whether `op` has run on `stage`.
    pub fn is_done(&self, meta: &ScheduleMeta, stage: usize, op: Op) -> bool {
        !self.finish[meta.op_index(stage, op)].is_nan()
    }

    /// Earliest start of `op` as worker `w`'s next op: after the worker is
    /// free and every producer's output (plus any transfer) has arrived.
    /// `None` while a producer has not run.
    pub fn ready_at(
        &self,
        meta: &ScheduleMeta,
        cost: &dyn CostFn,
        w: usize,
        op: Op,
    ) -> Option<f64> {
        let mut ready = self.free[w];
        for d in dependencies(meta, w, op) {
            let t = self.finish[meta.op_index(d.stage, d.op)];
            if t.is_nan() {
                return None;
            }
            let arrival = if d.cross_stage {
                t + cost.transfer(d.stage, w, op)
            } else {
                t
            };
            ready = ready.max(arrival);
        }
        Some(ready)
    }

    /// Runs `op` on `w` from `start` (at least [`ListTiming::ready_at`])
    /// and returns its duration.
    pub fn run(
        &mut self,
        meta: &ScheduleMeta,
        cost: &dyn CostFn,
        w: usize,
        op: Op,
        start: f64,
    ) -> f64 {
        let dur = cost.duration(w, op);
        let end = start + dur;
        self.finish[meta.op_index(w, op)] = end;
        self.free[w] = end;
        dur
    }

    /// When each worker's last placed op ends.
    pub fn free(&self) -> &[f64] {
        &self.free
    }

    /// When the last placed op ends.
    pub fn makespan(&self) -> f64 {
        self.free.iter().copied().fold(0.0, f64::max)
    }
}

/// Executes the schedule in strict per-worker list order.
///
/// Returns `Err` on deadlock (which [`crate::validate::validate`] would
/// also catch).
pub fn execute(schedule: &Schedule, cost: &dyn CostFn) -> Result<ExecTrace, String> {
    let meta = &schedule.meta;
    let nw = schedule.num_workers();
    let mut next = vec![0usize; nw];
    let mut busy = vec![0.0f64; nw];
    let mut timing = ListTiming::new(meta);
    let mut placed = Vec::with_capacity(schedule.num_ops());
    let total = schedule.num_ops();

    while placed.len() < total {
        // Pick, among workers whose next op is dependency-ready, the one
        // that can start earliest (deterministic tie-break by stage index).
        let mut best: Option<(f64, usize)> = None;
        for (w, ops) in schedule.workers.iter().enumerate() {
            let Some(&op) = ops.get(next[w]) else {
                continue;
            };
            if let Some(ready) = timing.ready_at(meta, cost, w, op) {
                if best.is_none_or(|(bt, _)| ready < bt) {
                    best = Some((ready, w));
                }
            }
        }
        let (start, w) = best.ok_or_else(|| {
            let (w, op) = (0..nw)
                .find(|&w| next[w] < schedule.workers[w].len())
                .map(|w| (w, schedule.workers[w][next[w]]))
                .expect("unfinished worker exists");
            format!("deadlock executing {op} on worker {w}")
        })?;
        let op = schedule.workers[w][next[w]];
        let dur = timing.run(meta, cost, w, op, start);
        placed.push(Placed {
            stage: w,
            op,
            start,
            end: timing.free()[w],
        });
        busy[w] += dur;
        next[w] += 1;
    }

    Ok(ExecTrace {
        placed,
        makespan: timing.makespan(),
        busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ChunkPlacement, ScheduleMeta};

    fn two_stage_two_mb() -> Schedule {
        let meta = ScheduleMeta {
            name: "t".into(),
            stages: 2,
            virtual_chunks: 1,
            slices: 1,
            micro_batches: 2,
            split_backward: false,
            placement: ChunkPlacement::Interleaved,
        };
        let f = |mb| Op::new(OpKind::Forward, mb, 0, 0);
        let b = |mb| Op::new(OpKind::Backward, mb, 0, 0);
        Schedule {
            meta,
            workers: vec![vec![f(0), f(1), b(0), b(1)], vec![f(0), b(0), f(1), b(1)]],
        }
    }

    #[test]
    fn gpipe_like_timing_is_exact() {
        // Stage0: F0@0-1 F1@1-2; Stage1: F0@1-2 B0@2-3; Stage0: B0@3-4;
        // Stage1: F1@2-3? F1 needs stage0 F1 done @2 and stage1 free @3
        // (after B0) -> F1@3-4, B1@4-5; stage0 B1@5-6. Makespan 6.
        let s = two_stage_two_mb();
        let t = execute(&s, &UnitCost::ones()).unwrap();
        assert_eq!(t.makespan, 6.0);
        assert_eq!(
            t.time_of(0, Op::new(OpKind::Backward, 1, 0, 0)),
            Some((5.0, 6.0))
        );
        assert_eq!(t.busy, vec![4.0, 4.0]);
        assert!((t.bubble_ratio() - (1.0 - 4.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn transfers_delay_downstream() {
        struct WithComm;
        impl CostFn for WithComm {
            fn duration(&self, _s: usize, _o: Op) -> f64 {
                1.0
            }
            fn transfer(&self, _f: usize, _t: usize, _o: Op) -> f64 {
                0.5
            }
        }
        let s = two_stage_two_mb();
        let t = execute(&s, &WithComm).unwrap();
        // Every cross-stage hop now adds 0.5.
        assert!(t.makespan > 6.0);
        let (start, _) = t.time_of(1, Op::new(OpKind::Forward, 0, 0, 0)).unwrap();
        assert_eq!(start, 1.5);
    }

    #[test]
    fn deadlock_is_reported() {
        let mut s = two_stage_two_mb();
        s.workers[1].swap(0, 1); // B0 before F0 on the last stage.
        let err = execute(&s, &UnitCost::ones()).unwrap_err();
        assert!(err.contains("deadlock"), "{err}");
    }
}
