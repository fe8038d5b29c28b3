//! Multi-head causal attention over a query *slice* and its key/value
//! prefix — the dataflow primitive of sequence pipeline parallelism.
//!
//! Under TeraPipe/MEPipe slicing, the forward of slice `i` consumes the
//! keys and values of every preceding slice (Section 4.1, Figure 3); the
//! backward of slice `i` produces gradient *contributions* to those
//! prefix keys/values, which the caller accumulates in reverse slice
//! order. This module implements exactly that contract for all heads of
//! a layer in one call:
//!
//! * forward: `q: [t, heads·d]` for the slice, `k, v: [c, heads·d]` for
//!   the whole prefix `c = offset + t`; causal masking inside the slice;
//! * backward: writes `dq: [t, heads·d]` and *accumulates* into
//!   `dk, dv`, which may be whole-sample buffers — only their first `c`
//!   rows are touched.
//!
//! Each head is a column block of those activations, read in place as a
//! strided view: no per-head copy of q, k, v or dOut is made, and no
//! per-head result is scattered back. Every contraction — scores
//! `Q·Kᵀ`, the value contraction `P·V`, and the gradient products
//! `dOut·Vᵀ`, `dS·K`, `dSᵀ·Q`, `Pᵀ·dOut` — runs through the packed GEMM
//! engine, with transposes absorbed by packing, and the engine's output
//! epilogue writes (or, for dK/dV, accumulates) `alpha·product` straight
//! into the head's columns of the destination. Only the softmax and
//! softmax-Jacobian row sweeps are fused here, and they run over each
//! row's causal prefix only: the engine computes full-width score rows,
//! including the non-causal upper triangle, and the sweeps zero that
//! tail. For the short, fat shapes attention produces (`t ≤ 128`,
//! `c ≤ seq_len`), the blocked GEMM runs several times faster than
//! per-row dot/axpy loops even counting the masked waste, which is why
//! the mask-after-GEMM layout wins.
//!
//! The single-head entry points ([`causal_attention`] and friends) are
//! the `heads = 1` call of the same kernel.

use crate::{
    arena,
    ops::{
        matmul::{gemm_into, Epilogue, View},
        vecops::{dot, fast_exp, max, sum},
    },
    pool::KernelPool,
    tensor::Tensor,
};

/// Forward-pass state kept for the backward pass.
#[derive(Debug, Clone)]
pub struct AttentionSaved {
    /// Post-softmax attention probabilities, head-major `[heads·t, c]`:
    /// rows `h·t..(h+1)·t` belong to head `h`.
    pub probs: Tensor,
    /// Token offset of the query slice within the sample.
    pub offset: usize,
    /// Number of heads the probabilities cover.
    pub heads: usize,
}

/// Gradient destinations of [`causal_attention_heads_backward_in`].
pub struct AttentionGrads<'a> {
    /// `[t, heads·d]`, overwritten with the query gradient.
    pub dq: &'a mut Tensor,
    /// `[≥ c, heads·d]`; the key-gradient contribution is added to its
    /// first `c` rows.
    pub dk: &'a mut Tensor,
    /// `[≥ c, heads·d]`; the value-gradient contribution is added to its
    /// first `c` rows.
    pub dv: &'a mut Tensor,
}

/// Causal attention forward for one head (single-threaded).
///
/// # Panics
///
/// Panics unless `k`/`v` cover exactly `offset + q.rows()` positions and
/// all head dimensions agree.
pub fn causal_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    offset: usize,
) -> (Tensor, AttentionSaved) {
    causal_attention_in(KernelPool::shared_serial(), q, k, v, offset)
}

/// Causal attention forward for one head on a worker pool.
///
/// # Panics
///
/// Panics unless `k`/`v` cover exactly `offset + q.rows()` positions and
/// all head dimensions agree.
pub fn causal_attention_in(
    pool: &KernelPool,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    offset: usize,
) -> (Tensor, AttentionSaved) {
    causal_attention_heads_in(pool, q, k, v, offset, 1)
}

/// One head's column block of a `[rows, heads·d]` activation, in place.
fn head<'a>(t: &'a Tensor, col: usize, trans: bool) -> View<'a> {
    View::new(&t.data()[col..], t.cols(), trans)
}

/// Multi-head causal attention forward on a worker pool: per head,
/// scores `Q·Kᵀ` → stable softmax over the causal prefix → `P·V` into
/// the head's columns of the `[t, heads·d]` output.
///
/// # Panics
///
/// Panics unless `heads` divides `q.cols()`, `k`/`v` cover exactly
/// `offset + q.rows()` positions and all widths agree.
pub fn causal_attention_heads_in(
    pool: &KernelPool,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    offset: usize,
    heads: usize,
) -> (Tensor, AttentionSaved) {
    let t = q.rows();
    let width = q.cols();
    let c = offset + t;
    assert!(
        heads > 0 && width.is_multiple_of(heads),
        "heads must divide the width"
    );
    assert_eq!(k.rows(), c, "key prefix must cover offset + slice");
    assert_eq!(v.rows(), c, "value prefix must cover offset + slice");
    assert_eq!(k.cols(), width, "key width mismatch");
    assert_eq!(v.cols(), width, "value width mismatch");
    let d = width / heads;
    let scale = 1.0 / (d as f32).sqrt();

    // Pre-scale a copy of q so the 1/√d factor is absorbed into the
    // score product (the backward still differentiates w.r.t. the
    // original q, so its chain-rule scale is unchanged). The copy is
    // kernel scratch, like a packing buffer: it never escapes.
    let (mut qs_buf, qs_off) = arena::acquire_scratch(t * width);
    let qs = &mut qs_buf[qs_off..][..t * width];
    for (s, &x) in qs.iter_mut().zip(q.data()) {
        *s = x * scale;
    }
    let qs = &*qs;
    let mut probs = Tensor::uninit(heads * t, c);
    let mut out = Tensor::uninit(t, width);
    for h in 0..heads {
        let col = h * d;
        let p = &mut probs.data_mut()[h * t * c..][..t * c];
        gemm_into(
            pool,
            [t, c, d],
            View::new(&qs[col..], width, false),
            head(k, col, true),
            p,
            c,
            Epilogue::STORE,
        );
        softmax_causal(p, c, offset);
        gemm_into(
            pool,
            [t, d, c],
            View::new(p, c, false),
            head(v, col, false),
            &mut out.data_mut()[col..],
            width,
            Epilogue::STORE,
        );
    }
    arena::release_scratch(t * width, qs_buf);
    (
        out,
        AttentionSaved {
            probs,
            offset,
            heads,
        },
    )
}

/// Row `i` of a `[t, c]` score block becomes the softmax of its causal
/// prefix `[0, offset + i]`; the rest of the row (scores of future keys
/// the GEMM filled in) is zeroed, so the `P·V` contraction and the
/// backward's `Pᵀ·dOut` see exact zeros there.
fn softmax_causal(block: &mut [f32], c: usize, offset: usize) {
    for (i, row) in block.chunks_exact_mut(c).enumerate() {
        let (prow, tail) = row.split_at_mut(offset + i + 1);
        let m = max(prow);
        for s in prow.iter_mut() {
            *s = fast_exp(*s - m);
        }
        let inv = 1.0 / sum(prow);
        for s in prow.iter_mut() {
            *s *= inv;
        }
        tail.fill(0.0);
    }
}

/// Backward of [`causal_attention`] (single-threaded): `(dq, dk, dv)`
/// with `dk`/`dv` spanning the whole prefix.
pub fn causal_attention_backward(
    dout: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttentionSaved,
) -> (Tensor, Tensor, Tensor) {
    causal_attention_backward_in(KernelPool::shared_serial(), dout, q, k, v, saved)
}

/// Backward of [`causal_attention_in`] on a worker pool: `(dq, dk, dv)`
/// with `dk`/`dv` spanning the prefix `c = offset + t`.
pub fn causal_attention_backward_in(
    pool: &KernelPool,
    dout: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttentionSaved,
) -> (Tensor, Tensor, Tensor) {
    let c = saved.offset + q.rows();
    let mut dq = Tensor::uninit(q.rows(), q.cols());
    let mut dk = Tensor::zeros(c, q.cols());
    let mut dv = Tensor::zeros(c, q.cols());
    let grads = AttentionGrads {
        dq: &mut dq,
        dk: &mut dk,
        dv: &mut dv,
    };
    causal_attention_heads_backward_in(pool, dout, q, k, v, saved, grads);
    (dq, dk, dv)
}

/// Backward of [`causal_attention_heads_in`] on a worker pool. Per
/// head: `dV += Pᵀ·dOut`; `dP = dOut·Vᵀ` and the softmax Jacobian
/// `dS = P ⊙ (dP − rowsum(P ⊙ dP))` in place over the causal prefix;
/// `dQ = scale·dS·K` and `dK += scale·dSᵀ·Q`. `k` and `v` may be whole
/// KV caches: only their first `c = offset + t` rows are read.
///
/// # Panics
///
/// Panics if any shape disagrees with the saved forward.
pub fn causal_attention_heads_backward_in(
    pool: &KernelPool,
    dout: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    saved: &AttentionSaved,
    grads: AttentionGrads<'_>,
) {
    let AttentionGrads { dq, dk, dv } = grads;
    let t = q.rows();
    let width = q.cols();
    let heads = saved.heads;
    let offset = saved.offset;
    let c = offset + t;
    let d = width / heads;
    assert_eq!(saved.probs.rows(), heads * t, "saved probabilities shape");
    assert_eq!(saved.probs.cols(), c, "saved probabilities shape");
    assert_eq!((dout.rows(), dout.cols()), (t, width), "dout shape");
    assert_eq!((dq.rows(), dq.cols()), (t, width), "dq shape");
    for (x, name) in [(k, "k"), (v, "v"), (&*dk, "dk"), (&*dv, "dv")] {
        assert!(x.rows() >= c, "{name} must cover offset + slice");
        assert_eq!(x.cols(), width, "{name} width mismatch");
    }
    let scale = 1.0 / (d as f32).sqrt();
    let accumulate = |alpha| Epilogue {
        alpha,
        accumulate: true,
    };
    let assign = |alpha| Epilogue {
        alpha,
        accumulate: false,
    };

    let mut ds = Tensor::uninit(t, c);
    for h in 0..heads {
        let col = h * d;
        let p = &saved.probs.data()[h * t * c..][..t * c];
        // dV += Pᵀ · dOut (the transpose is absorbed by packing).
        gemm_into(
            pool,
            [c, d, t],
            View::new(p, c, true),
            head(dout, col, false),
            &mut dv.data_mut()[col..],
            width,
            accumulate(1.0),
        );
        // dP = dOut · Vᵀ over the full width, then dS in place.
        gemm_into(
            pool,
            [t, c, d],
            head(dout, col, false),
            head(v, col, true),
            ds.data_mut(),
            c,
            Epilogue::STORE,
        );
        softmax_backward_causal(ds.data_mut(), p, c, offset);
        // dQ = scale · dS · K; dK += scale · dSᵀ · Q.
        gemm_into(
            pool,
            [t, d, c],
            View::new(ds.data(), c, false),
            head(k, col, false),
            &mut dq.data_mut()[col..],
            width,
            assign(scale),
        );
        gemm_into(
            pool,
            [c, d, t],
            View::new(ds.data(), c, true),
            head(q, col, false),
            &mut dk.data_mut()[col..],
            width,
            accumulate(scale),
        );
    }
}

/// The softmax Jacobian product over each row's causal prefix:
/// `dS = P ⊙ (dP − rowsum(P ⊙ dP))` in place on a `[t, c]` block of dP,
/// with the non-causal tail zeroed so the dQ/dK contractions see exact
/// zeros there.
fn softmax_backward_causal(ds: &mut [f32], probs: &[f32], c: usize, offset: usize) {
    for (i, (row, prow)) in ds
        .chunks_exact_mut(c)
        .zip(probs.chunks_exact(c))
        .enumerate()
    {
        let limit = offset + i + 1;
        let (dsrow, tail) = row.split_at_mut(limit);
        let prow = &prow[..limit];
        let ip = dot(prow, dsrow);
        for (s, &p) in dsrow.iter_mut().zip(prow) {
            *s = p * (*s - ip);
        }
        tail.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};
    use crate::ops::naive;

    /// Full-sequence attention must equal the concatenation of per-slice
    /// attention with KV prefixes — the core SPP correctness property.
    #[test]
    fn slice_forward_equals_full_forward() {
        let mut r = rng(31);
        let (t, d, s) = (8usize, 4usize, 4usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(t, d, 1.0, &mut r);
        let v = uniform(t, d, 1.0, &mut r);
        let (full, _) = causal_attention(&q, &k, &v, 0);
        let step = t / s;
        let mut parts = Vec::new();
        for i in 0..s {
            let qs = q.slice_rows(i * step, step);
            let kp = k.slice_rows(0, (i + 1) * step);
            let vp = v.slice_rows(0, (i + 1) * step);
            let (o, _) = causal_attention(&qs, &kp, &vp, i * step);
            parts.push(o);
        }
        let sliced = Tensor::vstack(&parts);
        assert!(full.max_abs_diff(&sliced) < 1e-5);
    }

    /// Gradients accumulated over slices must equal full-sequence
    /// gradients.
    #[test]
    fn slice_backward_equals_full_backward() {
        let mut r = rng(32);
        let (t, d, s) = (6usize, 4usize, 3usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(t, d, 1.0, &mut r);
        let v = uniform(t, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);
        let (_, saved) = causal_attention(&q, &k, &v, 0);
        let (dq_full, dk_full, dv_full) = causal_attention_backward(&dout, &q, &k, &v, &saved);

        let step = t / s;
        let mut dq_parts = Vec::new();
        let mut dk_acc = Tensor::zeros(t, d);
        let mut dv_acc = Tensor::zeros(t, d);
        for i in 0..s {
            let off = i * step;
            let qs = q.slice_rows(off, step);
            let kp = k.slice_rows(0, off + step);
            let vp = v.slice_rows(0, off + step);
            let (_, sv) = causal_attention(&qs, &kp, &vp, off);
            let (dq, dk, dv) =
                causal_attention_backward(&dout.slice_rows(off, step), &qs, &kp, &vp, &sv);
            dq_parts.push(dq);
            // Accumulate prefix contributions into the full-length buffers.
            for rr in 0..dk.rows() {
                for cc in 0..d {
                    dk_acc.set(rr, cc, dk_acc.at(rr, cc) + dk.at(rr, cc));
                    dv_acc.set(rr, cc, dv_acc.at(rr, cc) + dv.at(rr, cc));
                }
            }
        }
        assert!(dq_full.max_abs_diff(&Tensor::vstack(&dq_parts)) < 1e-5);
        assert!(dk_full.max_abs_diff(&dk_acc) < 1e-5);
        assert!(dv_full.max_abs_diff(&dv_acc) < 1e-5);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng(33);
        let (t, d) = (3usize, 2usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(t, d, 1.0, &mut r);
        let v = uniform(t, d, 1.0, &mut r);
        check_against_finite_differences(&q, &k, &v, 0);
    }

    #[test]
    fn gradients_match_finite_differences_at_odd_shapes_with_prefix() {
        // Non-square slice (t=5, d=3) at a nonzero offset: the KV prefix
        // spans 7 positions, exercising the partial-prefix gradient path
        // at shapes that straddle the kernel lane width.
        let mut r = rng(35);
        let (t, d, offset) = (5usize, 3usize, 2usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(offset + t, d, 1.0, &mut r);
        let v = uniform(offset + t, d, 1.0, &mut r);
        check_against_finite_differences(&q, &k, &v, offset);
    }

    fn check_against_finite_differences(q: &Tensor, k: &Tensor, v: &Tensor, offset: usize) {
        let (t, d) = (q.rows(), q.cols());
        let loss = |q: &Tensor, k: &Tensor, v: &Tensor| {
            let (o, _) = causal_attention(q, k, v, offset);
            o.data().iter().sum::<f32>()
        };
        let dout = Tensor::from_vec(t, d, vec![1.0; t * d]);
        let (_, saved) = causal_attention(q, k, v, offset);
        let (dq, dk, dv) = causal_attention_backward(&dout, q, k, v, &saved);
        let eps = 1e-3;
        let check = |name: &str, x: &Tensor, g: &Tensor, which: usize| {
            for rr in 0..x.rows() {
                for cc in 0..x.cols() {
                    let mut xp = x.clone();
                    xp.set(rr, cc, x.at(rr, cc) + eps);
                    let mut xm = x.clone();
                    xm.set(rr, cc, x.at(rr, cc) - eps);
                    let (lp, lm) = match which {
                        0 => (loss(&xp, k, v), loss(&xm, k, v)),
                        1 => (loss(q, &xp, v), loss(q, &xm, v)),
                        _ => (loss(q, k, &xp), loss(q, k, &xm)),
                    };
                    let num = (lp - lm) / (2.0 * eps);
                    assert!(
                        (num - g.at(rr, cc)).abs() < 2e-2,
                        "{name}({rr},{cc}): {num} vs {}",
                        g.at(rr, cc)
                    );
                }
            }
        };
        check("dq", q, &dq, 0);
        check("dk", k, &dk, 1);
        check("dv", v, &dv, 2);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut r = rng(34);
        let q = uniform(2, 2, 1.0, &mut r);
        let k = uniform(2, 2, 1.0, &mut r);
        let v1 = uniform(2, 2, 1.0, &mut r);
        // Changing the second value row must not affect the first output
        // row.
        let mut v2 = v1.clone();
        v2.set(1, 0, 99.0);
        let (o1, _) = causal_attention(&q, &k, &v1, 0);
        let (o2, _) = causal_attention(&q, &k, &v2, 0);
        assert_eq!(o1.row(0), o2.row(0));
        assert_ne!(o1.row(1), o2.row(1));
    }

    #[test]
    fn fused_kernels_match_naive_reference() {
        let mut r = rng(36);
        let (t, d, offset) = (9usize, 5usize, 3usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(offset + t, d, 1.0, &mut r);
        let v = uniform(offset + t, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);
        let (o_ref, probs_ref) = naive::causal_attention(&q, &k, &v, offset);
        let (o, saved) = causal_attention(&q, &k, &v, offset);
        assert!(o.max_abs_diff(&o_ref) < 1e-5);
        assert!(saved.probs.max_abs_diff(&probs_ref) < 1e-5);
        let (dq_r, dk_r, dv_r) = naive::causal_attention_backward(&dout, &q, &k, &v, &probs_ref);
        let (dq, dk, dv) = causal_attention_backward(&dout, &q, &k, &v, &saved);
        assert!(dq.max_abs_diff(&dq_r) < 1e-5);
        assert!(dk.max_abs_diff(&dk_r) < 1e-5);
        assert!(dv.max_abs_diff(&dv_r) < 1e-5);
    }

    #[test]
    fn multi_worker_attention_is_bit_identical() {
        let mut r = rng(37);
        let (t, d, offset) = (13usize, 6usize, 4usize);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(offset + t, d, 1.0, &mut r);
        let v = uniform(offset + t, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);
        let (o1, s1) = causal_attention(&q, &k, &v, offset);
        let (dq1, dk1, dv1) = causal_attention_backward(&dout, &q, &k, &v, &s1);
        for workers in [2, 4] {
            let pool = KernelPool::new(workers);
            let (o, s) = causal_attention_in(&pool, &q, &k, &v, offset);
            let (dq, dk, dv) = causal_attention_backward_in(&pool, &dout, &q, &k, &v, &s);
            assert_eq!(o1.data(), o.data());
            assert_eq!(s1.probs.data(), s.probs.data());
            assert_eq!(dq1.data(), dq.data());
            assert_eq!(dk1.data(), dk.data());
            assert_eq!(dv1.data(), dv.data());
        }
    }
}
