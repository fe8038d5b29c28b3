//! Matrix multiplication and its two gradient halves, on the blocked,
//! panel-packed kernel engine.
//!
//! For `C = A · B` with `A: [m,k]` (activations) and `B: [k,n]` (weights):
//!
//! * the *input gradient* `dA = dC · Bᵀ` is on the pipeline's critical
//!   path (it feeds the previous layer / previous stage);
//! * the *weight gradient* `dB = Aᵀ · dC` has no consumers until the
//!   optimizer step and can float — this is the GEMM MEPipe queues and
//!   drains opportunistically (Section 5).
//!
//! All three share one engine ([`gemm`]): the right-hand operand is
//! packed once into `NR`-wide column strips, each `MC`-row block of the
//! output packs its left-hand panel into `MR`-tall micro-panels, and a
//! register-tiled `MR×NR` micro-kernel accumulates along the inner
//! dimension with no per-element branches — written so the
//! autovectorizer emits SIMD for the `NR`-wide inner loop and keeps the
//! accumulator tile in registers. The transposed operands of the two
//! gradient halves are absorbed by the packing routines ([`View`]), so
//! no transposed temporary is ever materialised. Row blocks are
//! distributed over a [`KernelPool`] — unless the GEMM is below its
//! parallel break-even size ([`PAR_FLOP_FLOOR`]), where the spawn/join
//! overhead loses and the blocks run inline instead. Because every
//! output element is written by exactly one block and the accumulation
//! order along the inner dimension is fixed, results are bit-identical
//! across worker counts (and across the inline fallback).
//!
//! [`gemm_into`] exposes the same engine to other kernels: it writes
//! through an [`Epilogue`] (`dst = alpha·AB` or `dst += alpha·AB`) into
//! a strided column block of caller-owned storage, and its operands may
//! be column blocks too. That is how attention runs every head of a
//! layer in place, without copying heads out or scattering results back.
//! The same epilogue lets [`matmul_wgrad_acc_in`] add a weight gradient
//! straight into its accumulator.
//!
//! `matmul*` pack B on every call. A weight that is the B operand of many
//! GEMMs is packed once into a [`PackedWeight`] image per orientation
//! (forward or dgrad) and multiplied with [`matmul_packed_in`].
//!
//! The original scalar triple loops survive in [`crate::ops::naive`] as
//! the reference the parity proptests and the `kernels` bench run
//! against.

use crate::arena;
use crate::pool::{row_blocks, KernelPool};
use crate::tensor::Tensor;

/// Rows of one register tile (micro-panel height of the packed A).
const MR: usize = 6;
/// Columns of one register tile (strip width of the packed B); a
/// multiple of the widest SSE/AVX f32 lane count the autovectorizer
/// targets, and wide enough that the `MR × (NR/lanes)` accumulator
/// vectors form more independent FMA chains than the FMA unit's
/// latency×throughput product — with too few chains the micro-kernel is
/// latency-bound, not throughput-bound.
const NR: usize = 32;
/// Rows per cache block of C — also the parallel grain handed to the
/// pool, fixed so chunking (and thus accumulation grouping) never
/// depends on the worker count.
const MC: usize = 48;
/// Inner-dimension block: one `MC×KC` A panel (~48 KiB) plus one `KC×NR`
/// B strip (~8 KiB) stay cache-resident under the accumulator tile.
const KC: usize = 256;
/// FLOP count (`2·m·n·k`) below which [`gemm`] ignores the pool and runs
/// the row blocks inline. Fanning out pays a scoped-thread spawn plus a
/// join on every call (tens of microseconds) and splits a working set
/// that fits one core's cache across several; below this much
/// arithmetic those costs outweigh the parallel win — on the bench grid
/// multi-worker *lost* to single-worker up through 512³
/// (`2·512³ ≈ 2.7e8` FLOPs). Chunking is untouched (the grain stays
/// [`MC`]) and a 1-worker `for_each` visits blocks in index order, so
/// the inline path is bit-identical to the fanned-out one.
#[cfg(not(test))]
const PAR_FLOP_FLOOR: usize = 1 << 30;
/// Unit tests shrink the floor so test-sized shapes still exercise the
/// parallel path.
#[cfg(test)]
const PAR_FLOP_FLOOR: usize = 1 << 16;

/// A logical `[rows, cols]` operand over row-major storage with row
/// stride `stride`, optionally transposed. Packing reads through this
/// view, which is how the dgrad (`· Bᵀ`) and wgrad (`Aᵀ ·`) forms reuse
/// the one engine without materialising a transpose — and, with `data`
/// starting at a column offset and `stride` the full row width, how
/// attention reads one head's column block of a `[rows, heads·d]`
/// activation in place.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    stride: usize,
    trans: bool,
}

impl<'a> View<'a> {
    /// Storage whose logical element `(r, c)` is `data[r * stride + c]`
    /// (or `data[c * stride + r]` when `trans`).
    pub(crate) fn new(data: &'a [f32], stride: usize, trans: bool) -> Self {
        View {
            data,
            stride,
            trans,
        }
    }

    fn normal(t: &'a Tensor) -> Self {
        Self::new(t.data(), t.cols(), false)
    }

    fn transposed(t: &'a Tensor) -> Self {
        Self::new(t.data(), t.cols(), true)
    }
}

/// Packs the whole right-hand operand into `NR`-wide strips: strip `s`
/// holds, for each inner index `p`, the `NR` values `b[p, s*NR..]`
/// contiguously (zero-padded past `n`), so the micro-kernel streams it
/// linearly. Returns the backing buffer and the element offset of the
/// first strip: the strips are placed on a 64-byte boundary so every
/// vector load in the micro-kernel stays within one cache line —
/// `Vec<f32>` alone only guarantees 4-byte alignment, and a misaligned
/// base makes every B load a line-splitting access. The buffer comes
/// from the installed tensor arena when there is one (zeroed, so the
/// padding past `n` is zero either way); [`gemm_into`] and a dropped
/// [`PackedWeight`] return it there.
fn pack_b(b: View, k: usize, n: usize) -> (Vec<f32>, usize) {
    let strips = n.div_ceil(NR);
    let (mut buf, off) = arena::acquire_scratch(strips * k * NR);
    for s in 0..strips {
        let col0 = s * NR;
        let cols = NR.min(n - col0);
        let base = off + s * k * NR;
        if b.trans {
            for p in 0..k {
                let dst = &mut buf[base + p * NR..][..cols];
                for (jj, d) in dst.iter_mut().enumerate() {
                    *d = b.data[(col0 + jj) * b.stride + p];
                }
            }
        } else {
            for p in 0..k {
                let src = &b.data[p * b.stride + col0..][..cols];
                buf[base + p * NR..][..cols].copy_from_slice(src);
            }
        }
    }
    (buf, off)
}

/// Packs rows `i0..i0+mc`, inner indices `pk..pk+kc` of a transposed
/// left-hand operand into `MR`-tall micro-panels: panel `q` holds, for
/// each `p`, the `MR` values `a[i0+q*MR.., pk+p]` contiguously
/// (zero-padded past `mc`). In transposed storage those `MR` values are
/// already adjacent, so each is one short copy. (A row-major left operand
/// is never packed: [`micro_kernel_rows`] reads it in place.)
fn pack_a(a: View, i0: usize, mc: usize, pk: usize, kc: usize, buf: &mut Vec<f32>) {
    debug_assert!(a.trans, "row-major left operands are read in place");
    let panels = mc.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kc * MR, 0.0);
    for q in 0..panels {
        let r0 = i0 + q * MR;
        let rows = MR.min(i0 + mc - r0);
        let base = q * kc * MR;
        for p in 0..kc {
            let src = &a.data[(pk + p) * a.stride + r0..];
            let dst = &mut buf[base + p * MR..][..MR];
            // The constant-length copy of a full panel compiles to plain
            // vector moves; only the edge panel pays for a length.
            if rows == MR {
                dst.copy_from_slice(&src[..MR]);
            } else {
                dst[..rows].copy_from_slice(&src[..rows]);
            }
        }
    }
}

/// Fused multiply-add when the target has an FMA unit (one rounding,
/// `vfmadd` under AVX2/AVX-512), plain multiply-add otherwise. rustc
/// never contracts `a * b + c` on its own, so the fusion — which roughly
/// doubles micro-kernel throughput — has to be asked for explicitly.
/// Either form is deterministic for a given build.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        c + a * b
    }
}

/// The register-tiled inner loop: returns `init + Σ_p a_panel ⊗ b_strip`
/// over `kc` inner indices. Constant trip counts let the `NR`-wide loop
/// vectorize, and there are no data-dependent branches. The accumulator
/// is taken and returned *by value*: mutating it through a `&mut`
/// reference makes LLVM keep the in-memory copy coherent — one stack
/// store per FMA — where a local array lives purely in registers.
#[inline]
fn micro_kernel(ap: &[f32], bp: &[f32], init: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    let mut acc = init;
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &av) in acc.iter_mut().zip(a) {
            for (c, &bv) in accr.iter_mut().zip(b) {
                *c = fmadd(av, bv, *c);
            }
        }
    }
    acc
}

/// [`micro_kernel`] reading the left operand straight from `MR` source
/// rows instead of a packed panel. A row-major (non-transposed) left
/// operand already has each tile row contiguous over the inner indices,
/// so packing it would only copy data the broadcast loads can read in
/// place — skipping the copy removes the whole pack-A pass from the
/// `matmul`/`dgrad` hot path. Accumulation order is identical to the
/// packed kernel, so both paths produce bit-identical results. Each
/// `a_rows[r]` must hold exactly `bp.len() / NR` values.
#[inline]
fn micro_kernel_rows(a_rows: &[&[f32]; MR], bp: &[f32], init: [[f32; NR]; MR]) -> [[f32; NR]; MR] {
    let mut acc = init;
    for (p, b) in bp.chunks_exact(NR).enumerate() {
        for (accr, ar) in acc.iter_mut().zip(a_rows) {
            let av = ar[p];
            for (c, &bv) in accr.iter_mut().zip(b) {
                *c = fmadd(av, bv, *c);
            }
        }
    }
    acc
}

/// A packed right-hand operand: the `NR`-wide strips of a logical
/// `[k, n]` matrix, as laid out by [`pack_b`].
#[derive(Clone, Copy)]
struct Packed<'a> {
    strips: &'a [f32],
    k: usize,
    n: usize,
}

/// What the engine does with each finished output element `x` of the
/// product: `dst = alpha·x`, or `dst += alpha·x` with `accumulate`.
/// `alpha` multiplies the complete inner-dimension sum, so
/// `Epilogue { alpha, .. }` is bitwise the product followed by a
/// separate `scale(alpha)` pass (and `alpha = 1` is an exact store).
#[derive(Clone, Copy)]
pub(crate) struct Epilogue {
    /// Factor applied to the finished product.
    pub(crate) alpha: f32,
    /// Add into the destination instead of overwriting it.
    pub(crate) accumulate: bool,
}

impl Epilogue {
    /// Plain store of the product.
    pub(crate) const STORE: Epilogue = Epilogue {
        alpha: 1.0,
        accumulate: false,
    };

    fn is_store(self) -> bool {
        !self.accumulate && self.alpha == 1.0
    }

    #[inline(always)]
    fn apply(self, dst: &mut [f32], src: &[f32]) {
        if self.accumulate {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d += self.alpha * x;
            }
        } else {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = self.alpha * x;
            }
        }
    }
}

/// One `MC`-row block of the output, sweeping the shared packed B and
/// accumulating through the micro-kernel. Output row `i` of the block is
/// `c_rows[i * ldc..][..n]`, so the block may be a column slice of a
/// wider tensor. A transposed left operand is packed into `MR`-tall
/// micro-panels per `KC` block; a row-major one is read in place by
/// [`micro_kernel_rows`] (rows past the edge borrow a zero row, matching
/// the packed path's zero padding exactly).
///
/// Between `KC` passes the running sums live in the destination itself,
/// and the epilogue is applied as the last pass stores. An epilogue that
/// reads or scales the destination cannot share it with partial sums,
/// so a multi-pass sweep under such an epilogue runs into a scratch tile
/// first and applies the epilogue from there.
fn gemm_row_block(i0: usize, c_rows: &mut [f32], ldc: usize, a: View, b: Packed, epi: Epilogue) {
    let Packed { strips, k, n } = b;
    let mc = c_rows.len().div_ceil(ldc);
    if k > KC && !epi.is_store() {
        let (mut tile, off) = arena::acquire_scratch(mc * n);
        gemm_row_block(i0, &mut tile[off..][..mc * n], n, a, b, Epilogue::STORE);
        for (i, src) in tile[off..][..mc * n].chunks_exact(n).enumerate() {
            epi.apply(&mut c_rows[i * ldc..][..n], src);
        }
        arena::release_scratch(mc * n, tile);
        return;
    }
    let panels = mc.div_ceil(MR);
    // Upper bound over every KC block, so the one scratch buffer serves
    // the whole sweep (pack_a only ever resizes downward within it).
    let a_scratch = if a.trans { panels * KC.min(k) * MR } else { 0 };
    let mut a_buf = if a.trans {
        arena::acquire_scratch(a_scratch).0
    } else {
        Vec::new()
    };
    let zero_row = [0.0f32; KC];
    let mut pk = 0;
    while pk < k {
        let kc = KC.min(k - pk);
        // The epilogue only ever sees finished sums; a single-pass
        // sweep (kc == k) applies it directly.
        let store = if pk + kc == k { epi } else { Epilogue::STORE };
        if a.trans {
            pack_a(a, i0, mc, pk, kc, &mut a_buf);
        }
        for (s, j0) in (0..n).step_by(NR).enumerate() {
            let cols = NR.min(n - j0);
            let bs = &strips[s * k * NR + pk * NR..][..kc * NR];
            for q in 0..panels {
                let r0 = q * MR;
                let rows = MR.min(mc - r0);
                let full = rows == MR && cols == NR;
                let mut acc = [[0.0f32; NR]; MR];
                // On the first KC pass C holds no partial sums — skip
                // the read.
                if pk > 0 {
                    if full {
                        // Constant-length copies let the accumulator move
                        // between registers and C without a stack bounce.
                        for (i, accr) in acc.iter_mut().enumerate() {
                            accr.copy_from_slice(&c_rows[(r0 + i) * ldc + j0..][..NR]);
                        }
                    } else {
                        for (i, accr) in acc.iter_mut().enumerate().take(rows) {
                            accr[..cols].copy_from_slice(&c_rows[(r0 + i) * ldc + j0..][..cols]);
                        }
                    }
                }
                let acc = if a.trans {
                    let ap = &a_buf[q * kc * MR..][..kc * MR];
                    micro_kernel(ap, bs, acc)
                } else {
                    let mut a_rows: [&[f32]; MR] = [&zero_row[..kc]; MR];
                    for (ii, ar) in a_rows.iter_mut().enumerate().take(rows) {
                        *ar = &a.data[(i0 + r0 + ii) * a.stride + pk..][..kc];
                    }
                    micro_kernel_rows(&a_rows, bs, acc)
                };
                if full {
                    for (i, accr) in acc.iter().enumerate() {
                        store.apply(&mut c_rows[(r0 + i) * ldc + j0..][..NR], accr);
                    }
                } else {
                    for (i, accr) in acc.iter().enumerate().take(rows) {
                        store.apply(&mut c_rows[(r0 + i) * ldc + j0..][..cols], &accr[..cols]);
                    }
                }
            }
        }
        pk += kc;
    }
    if a.trans {
        arena::release_scratch(a_scratch, a_buf);
    }
}

/// Runs the row blocks of `dst ← epi(A · B)` over the pool, with B
/// already packed. `dst` starts at output element `(0, 0)` and has row
/// stride `ldc`. With `k == 0` the product is zero.
fn run(
    pool: &KernelPool,
    m: usize,
    a: View,
    b: Packed,
    dst: &mut [f32],
    ldc: usize,
    epi: Epilogue,
) {
    if m == 0 || b.n == 0 {
        return;
    }
    if b.k == 0 {
        if !epi.accumulate {
            for row in dst.chunks_mut(ldc).take(m) {
                row[..b.n].fill(0.0);
            }
        }
        return;
    }
    let flops = 2usize
        .saturating_mul(m)
        .saturating_mul(b.n)
        .saturating_mul(b.k);
    let pool = if flops < PAR_FLOP_FLOOR {
        KernelPool::shared_serial()
    } else {
        pool
    };
    // Only the first `n` columns of the last row belong to the block.
    let len = (m - 1) * ldc + b.n;
    let mut blocks = row_blocks(&mut dst[..len], ldc, MC);
    pool.for_each(&mut blocks, |_, (i0, c_rows)| {
        gemm_row_block(*i0, c_rows, ldc, a, b, epi);
    });
}

/// The engine into caller-owned storage: `dst ← epi(A[m,k] · B[k,n])`,
/// where output row `i` is `dst[i * ldc..][..n]` — a whole row-major
/// tensor (`ldc == n`) or a column block of a wider one. B is packed
/// fresh on every call; a weight that is the B operand of many GEMMs is
/// packed once instead, as a [`PackedWeight`]. With `k == 0` the product
/// is zero.
pub(crate) fn gemm_into(
    pool: &KernelPool,
    [m, n, k]: [usize; 3],
    a: View,
    b: View,
    dst: &mut [f32],
    ldc: usize,
    epi: Epilogue,
) {
    if m == 0 || n == 0 || k == 0 {
        // Nothing to pack; `run` handles the degenerate shapes.
        let empty = Packed { strips: &[], k, n };
        return run(pool, m, a, empty, dst, ldc, epi);
    }
    let (b_buf, b_off) = pack_b(b, k, n);
    let packed = Packed {
        strips: &b_buf[b_off..],
        k,
        n,
    };
    run(pool, m, a, packed, dst, ldc, epi);
    arena::release_scratch(n.div_ceil(NR) * k * NR, b_buf);
}

/// Shared engine: a fresh `C[m,n] = A[m,k] · B[k,n]`, with either
/// operand possibly a transposed view. Row blocks of C fan out over the
/// pool.
fn gemm(pool: &KernelPool, [m, n, k]: [usize; 3], a: View, b: View) -> Tensor {
    // Every output element is stored on the first KC pass (the kernel
    // skips the C read when `pk == 0`), so the zero-fill would be dead.
    let mut out = Tensor::uninit(m, n);
    gemm_into(pool, [m, n, k], a, b, out.data_mut(), n, Epilogue::STORE);
    out
}

/// A weight matrix packed once as the right-hand operand of the GEMM
/// engine: its `NR`-wide strips, in the orientation of one of the two
/// GEMMs a weight `W` is the B operand of — the forward `x · W`
/// ([`PackedWeight::forward`]) or the input gradient `dy · Wᵀ`
/// ([`PackedWeight::dgrad`], the transpose absorbed by packing).
///
/// Under slice-level scheduling each weight feeds one forward and one
/// input-gradient GEMM per slice per micro-batch; packing on every call
/// would repack the same bytes dozens of times per iteration (and the
/// dgrad orientation packs through a column-strided view, the slowest
/// access pattern in the engine). Build the image once while the weight
/// is unchanged and run every such GEMM on it with [`matmul_packed_in`]:
/// the strips are exactly what a fresh pack produces, so results are
/// bitwise those of [`matmul_in`] / [`matmul_dgrad_in`].
///
/// The image is a snapshot: it does not see later writes to the weight.
/// Its buffer comes from (and on drop returns to) the installed tensor
/// arena, if any.
pub struct PackedWeight {
    buf: Vec<f32>,
    off: usize,
    k: usize,
    n: usize,
}

impl PackedWeight {
    /// The image of `w` for the forward GEMM `x · w`.
    pub fn forward(w: &Tensor) -> Self {
        Self::pack(View::normal(w), w.rows(), w.cols())
    }

    /// The image of `w` for the input-gradient GEMM `dy · wᵀ`.
    pub fn dgrad(w: &Tensor) -> Self {
        Self::pack(View::transposed(w), w.cols(), w.rows())
    }

    fn pack(b: View, k: usize, n: usize) -> Self {
        let (buf, off) = pack_b(b, k, n);
        PackedWeight { buf, off, k, n }
    }

    fn len(&self) -> usize {
        self.n.div_ceil(NR) * self.k * NR
    }

    fn packed(&self) -> Packed<'_> {
        Packed {
            strips: &self.buf[self.off..],
            k: self.k,
            n: self.n,
        }
    }
}

impl Drop for PackedWeight {
    fn drop(&mut self) {
        let len = self.len();
        arena::release_scratch(len, std::mem::take(&mut self.buf));
    }
}

/// `C = A · B` on a worker pool, with B a prepacked [`PackedWeight`] —
/// bitwise [`matmul_in`] with the forward image, [`matmul_dgrad_in`]
/// with the dgrad image.
///
/// # Panics
///
/// Panics if `a.cols()` is not the image's inner dimension.
pub fn matmul_packed_in(pool: &KernelPool, a: &Tensor, b: &PackedWeight) -> Tensor {
    assert_eq!(a.cols(), b.k, "packed matmul inner dimension mismatch");
    let mut out = Tensor::uninit(a.rows(), b.n);
    let n = b.n;
    run(
        pool,
        a.rows(),
        View::normal(a),
        b.packed(),
        out.data_mut(),
        n,
        Epilogue::STORE,
    );
    out
}

/// `C = A · B`.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_in(KernelPool::shared_serial(), a, b)
}

/// `C = A · B` on a worker pool.
///
/// # Panics
///
/// Panics if inner dimensions disagree.
pub fn matmul_in(pool: &KernelPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    gemm(
        pool,
        [a.rows(), b.cols(), a.cols()],
        View::normal(a),
        View::normal(b),
    )
}

/// Input gradient of a matmul: `dA = dC · Bᵀ`.
///
/// # Panics
///
/// Panics if column counts disagree.
pub fn matmul_dgrad(dc: &Tensor, b: &Tensor) -> Tensor {
    matmul_dgrad_in(KernelPool::shared_serial(), dc, b)
}

/// Input gradient of a matmul on a worker pool: `dA = dC · Bᵀ`, with the
/// transpose absorbed by packing (no `Bᵀ` temporary).
///
/// # Panics
///
/// Panics if column counts disagree.
pub fn matmul_dgrad_in(pool: &KernelPool, dc: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(dc.cols(), b.cols(), "dgrad dimension mismatch");
    gemm(
        pool,
        [dc.rows(), b.rows(), dc.cols()],
        View::normal(dc),
        View::transposed(b),
    )
}

/// Weight gradient of a matmul: `dB = Aᵀ · dC`.
///
/// # Panics
///
/// Panics if row counts disagree.
pub fn matmul_wgrad(a: &Tensor, dc: &Tensor) -> Tensor {
    matmul_wgrad_in(KernelPool::shared_serial(), a, dc)
}

/// Weight gradient of a matmul on a worker pool: `dB = Aᵀ · dC`, with the
/// transpose absorbed by packing (no `Aᵀ` temporary).
///
/// # Panics
///
/// Panics if row counts disagree.
pub fn matmul_wgrad_in(pool: &KernelPool, a: &Tensor, dc: &Tensor) -> Tensor {
    assert_eq!(a.rows(), dc.rows(), "wgrad dimension mismatch");
    gemm(
        pool,
        [a.cols(), dc.cols(), a.rows()],
        View::transposed(a),
        View::normal(dc),
    )
}

/// Accumulating weight gradient on a worker pool: `dst += Aᵀ · dC`, added
/// through the engine's epilogue as each output tile finishes — no `dB`
/// temporary. Bitwise [`matmul_wgrad_in`] followed by
/// [`Tensor::add_assign`] into `dst`.
///
/// # Panics
///
/// Panics if row counts disagree or `dst` is not `[a.cols(), dc.cols()]`.
pub fn matmul_wgrad_acc_in(pool: &KernelPool, a: &Tensor, dc: &Tensor, dst: &mut Tensor) {
    assert_eq!(a.rows(), dc.rows(), "wgrad dimension mismatch");
    assert_eq!(
        (dst.rows(), dst.cols()),
        (a.cols(), dc.cols()),
        "wgrad destination shape mismatch"
    );
    let ldc = dst.cols();
    gemm_into(
        pool,
        [a.cols(), dc.cols(), a.rows()],
        View::transposed(a),
        View::normal(dc),
        dst.data_mut(),
        ldc,
        Epilogue {
            alpha: 1.0,
            accumulate: true,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};
    use crate::ops::naive;

    fn finite_diff_check(
        f: &dyn Fn(&Tensor) -> f32,
        x: &Tensor,
        analytic: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.at(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.at(r, c) - eps);
                let num = (f(&xp) - f(&xm)) / (2.0 * eps);
                let ana = analytic.at(r, c);
                assert!(
                    (num - ana).abs() < tol,
                    "grad mismatch at ({r},{c}): numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn small_matmul_is_exact() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernel_matches_naive_at_awkward_shapes() {
        // Shapes straddling every blocking boundary: below MR/NR, exact
        // multiples, one past MC and KC.
        let shapes = [
            (1, 1, 1),
            (5, 7, 3),
            (MR, NR, 4),
            (MR + 1, NR + 1, KC + 1),
            (MC, 2 * NR, KC),
            (MC + 1, NR - 1, 2 * KC + 3),
            (2 * MC + 5, 3 * NR + 2, 17),
        ];
        for (m, k, n) in shapes {
            let mut r = rng((m * 31 + k * 7 + n) as u64);
            let a = uniform(m, k, 1.0, &mut r);
            let b = uniform(k, n, 1.0, &mut r);
            let dc = uniform(m, n, 1.0, &mut r);
            assert!(
                matmul(&a, &b).max_abs_diff(&naive::matmul(&a, &b)) < 1e-5,
                "fwd mismatch at {m}x{k}x{n}"
            );
            assert!(
                matmul_dgrad(&dc, &b).max_abs_diff(&naive::matmul_dgrad(&dc, &b)) < 1e-5,
                "dgrad mismatch at {m}x{k}x{n}"
            );
            assert!(
                matmul_wgrad(&a, &dc).max_abs_diff(&naive::matmul_wgrad(&a, &dc)) < 1e-5,
                "wgrad mismatch at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn gemm_into_epilogues_write_only_their_column_block() {
        // Inner dimensions on both sides of KC: a single-pass sweep
        // applies the epilogue as it stores, a multi-pass one through a
        // scratch tile.
        let (m, n, width, col) = (MC + 5, 7, 20, 9);
        for k in [5, KC + 3] {
            let mut r = rng(k as u64);
            let a = uniform(m, k, 1.0, &mut r);
            let b = uniform(k, n, 1.0, &mut r);
            let base = uniform(m, width, 1.0, &mut r);
            let prod = naive::matmul(&a, &b);
            for (alpha, accumulate) in [(1.0, false), (0.5, false), (0.25, true)] {
                let mut dst = base.clone();
                gemm_into(
                    KernelPool::shared_serial(),
                    [m, n, k],
                    View::normal(&a),
                    View::normal(&b),
                    &mut dst.data_mut()[col..],
                    width,
                    Epilogue { alpha, accumulate },
                );
                for i in 0..m {
                    for j in 0..width {
                        let want = if (col..col + n).contains(&j) {
                            let p = alpha * prod.at(i, j - col);
                            if accumulate {
                                base.at(i, j) + p
                            } else {
                                p
                            }
                        } else {
                            base.at(i, j)
                        };
                        assert!(
                            (dst.at(i, j) - want).abs() < 1e-4,
                            "k={k} alpha={alpha} accumulate={accumulate} ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn multi_worker_is_bit_identical_to_serial() {
        let mut r = rng(99);
        // Big enough to clear the (test-shrunk) break-even floor, so the
        // parallel path really runs.
        let a = uniform(3 * MC + 7, 100, 1.0, &mut r);
        let b = uniform(100, 37, 1.0, &mut r);
        let serial = matmul(&a, &b);
        for workers in [2, 3, 4] {
            let pool = KernelPool::new(workers);
            let par = matmul_in(&pool, &a, &b);
            assert_eq!(pool.parallel_dispatches(), 1, "expected a fan-out");
            assert_eq!(
                serial.data(),
                par.data(),
                "worker count {workers} changed bits"
            );
        }
    }

    #[test]
    fn below_break_even_matmul_ignores_the_pool() {
        // 100 rows make three row blocks, but only ~3e3 FLOPs — far
        // below the floor, so the pool must not spawn workers and the
        // result must still be right.
        let mut r = rng(7);
        let a = uniform(100, 4, 1.0, &mut r);
        let b = uniform(4, 4, 1.0, &mut r);
        let pool = KernelPool::new(4);
        let c = matmul_in(&pool, &a, &b);
        assert_eq!(pool.parallel_dispatches(), 0, "tiny GEMM fanned out");
        assert!(c.max_abs_diff(&naive::matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn dgrad_matches_finite_differences() {
        let mut r = rng(3);
        let a = uniform(3, 4, 1.0, &mut r);
        let b = uniform(4, 2, 1.0, &mut r);
        // Scalar objective: sum of C.
        let loss = |a: &Tensor| matmul(a, &b).data().iter().sum::<f32>();
        let dc = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let da = matmul_dgrad(&dc, &b);
        finite_diff_check(&loss, &a, &da, 1e-3, 1e-2);
    }

    #[test]
    fn wgrad_matches_finite_differences() {
        let mut r = rng(4);
        let a = uniform(3, 4, 1.0, &mut r);
        let b = uniform(4, 2, 1.0, &mut r);
        let loss = |b: &Tensor| matmul(&a, b).data().iter().sum::<f32>();
        let dc = Tensor::from_vec(3, 2, vec![1.0; 6]);
        let db = matmul_wgrad(&a, &dc);
        finite_diff_check(&loss, &b, &db, 1e-3, 1e-2);
    }

    #[test]
    fn wgrad_sums_over_row_slices() {
        // The slice-equivalence property MEPipe relies on: the weight
        // gradient over a whole batch equals the sum over token slices.
        let mut r = rng(5);
        let a = uniform(8, 4, 1.0, &mut r);
        let dc = uniform(8, 3, 1.0, &mut r);
        let whole = matmul_wgrad(&a, &dc);
        let mut parts = matmul_wgrad(&a.slice_rows(0, 3), &dc.slice_rows(0, 3));
        parts.add_assign(&matmul_wgrad(&a.slice_rows(3, 5), &dc.slice_rows(3, 5)));
        assert!(whole.max_abs_diff(&parts) < 1e-5);
    }

    #[test]
    fn empty_inner_dimension_gives_zeros() {
        let c = matmul(&Tensor::zeros(3, 0), &Tensor::zeros(0, 4));
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 4);
        assert!(c.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros(2, 3), &Tensor::zeros(2, 3));
    }
}
