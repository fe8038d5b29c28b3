//! Vectorizable slice primitives shared by the fused kernels.
//!
//! Written so the autovectorizer emits SIMD: fixed-width lane
//! accumulators for reductions, branch-free fused loops for updates.
//! The lane-parallel reduction order is part of each kernel's numerical
//! contract — it never changes with the worker count.

/// Lane width of the blocked dot-product reduction.
const LANES: usize = 8;

/// `Σ a[i]·b[i]` with eight parallel partial sums (SIMD-friendly).
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for (acc, (&xv, &yv)) in lanes.iter_mut().zip(x.iter().zip(y)) {
            *acc += xv * yv;
        }
    }
    let mut s: f32 = lanes.iter().sum();
    for (&xv, &yv) in ca.remainder().iter().zip(cb.remainder()) {
        s += xv * yv;
    }
    s
}

/// `Σ a[i]` with eight parallel partial sums (SIMD-friendly).
#[inline]
pub(crate) fn sum(a: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    for x in &mut ca {
        for (acc, &xv) in lanes.iter_mut().zip(x) {
            *acc += xv;
        }
    }
    let mut s: f32 = lanes.iter().sum();
    for &xv in ca.remainder() {
        s += xv;
    }
    s
}

/// Largest element (`-∞` for an empty slice), with eight parallel
/// running maxima. Exact whatever the order, so it matches a serial scan.
#[inline]
pub(crate) fn max(a: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut ca = a.chunks_exact(LANES);
    for x in &mut ca {
        for (acc, &xv) in lanes.iter_mut().zip(x) {
            // A compare-select, not `f32::max`: its NaN rule has no
            // single vector instruction and would keep the loop scalar.
            *acc = if xv > *acc { xv } else { *acc };
        }
    }
    let mut m = f32::NEG_INFINITY;
    for &xv in lanes.iter().chain(ca.remainder()) {
        m = if xv > m { xv } else { m };
    }
    m
}

/// Polynomial `e^x` with ≈2·10⁻⁷ relative error — a branch-free Cephes
/// `expf`: range-reduce to `r ∈ [-ln2/2, ln2/2]`, a degree-5 minimax
/// polynomial, and an exponent rebuild via the f32 bit layout (no
/// `unsafe`; `from_bits` is a plain transmute intrinsic).
///
/// `f32::exp` goes through libm at ~10 ns a call and cannot inline;
/// softmax, SiLU and cross-entropy together evaluate the exponential
/// millions of times per training iteration, which made libm `exp` the
/// single largest consumer of an iteration. This version inlines into
/// the row kernels and autovectorizes with them. The result is
/// deterministic (pure arithmetic, no table lookups), monotone over the
/// clamped range, and exact at `x = 0`.
#[inline]
pub(crate) fn fast_exp(x: f32) -> f32 {
    // Past these bounds e^x over/underflows f32 anyway; clamping also
    // keeps the rebuilt exponent within [-126, 127].
    let x = x.clamp(-87.0, 88.0);
    // `round_ties_even`, not `round`: ties-away-from-zero has no single
    // x86/NEON instruction, so `round` becomes a libm call that also
    // blocks vectorization of the surrounding loop. Ties-to-even lowers
    // to one `vroundps`, and either tie rule keeps |r| ≤ ln2/2.
    let n = (std::f32::consts::LOG2_E * x).round_ties_even();
    // Two-constant Cody–Waite reduction keeps r accurate although n·ln2
    // itself is not representable.
    let r = (x - n * 0.693_359_4) - n * -2.121_944_4e-4;
    let mut p = 1.987_569_1e-4_f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let z = (r * r) * p + r + 1.0;
    // Exponent rebuild from float bits: adding 1.5·2²³ puts the integer
    // `n` in the low mantissa bits, so subtracting the constant's own
    // bits yields `n` in two's complement. A saturating `n as i32` cast
    // gives the same integer but lowers to a compare-and-select chain
    // that stops LLVM from vectorizing any loop calling this function.
    let n_bits = (n + 12_582_912.0).to_bits().wrapping_sub(0x4B40_0000);
    let scale = f32::from_bits(n_bits.wrapping_add(127) << 23);
    z * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_remainders() {
        for n in [0usize, 1, 7, 8, 9, 17, 64] {
            let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let b = vec![2.0f32; n];
            let expect: f32 = (0..n).map(|i| 2.0 * i as f32).sum();
            assert!((dot(&a, &b) - expect).abs() < 1e-3, "n={n}");
        }
    }

    #[test]
    fn sum_and_max_handle_remainders() {
        for n in [0usize, 1, 7, 8, 9, 17, 64] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let want: f32 = a.iter().sum();
            assert!((sum(&a) - want).abs() < 1e-5, "n={n}");
            let want = a.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(max(&a), want, "n={n}");
        }
    }

    /// `fast_exp` with its exponent rebuilt through the saturating
    /// integer cast — the reference the float-bit rebuild must match
    /// bit for bit. Everything else is the same polynomial.
    fn fast_exp_cast_rebuild(x: f32) -> f32 {
        let x = x.clamp(-87.0, 88.0);
        let n = (std::f32::consts::LOG2_E * x).round_ties_even();
        let r = (x - n * 0.693_359_4) - n * -2.121_944_4e-4;
        let mut p = 1.987_569_1e-4_f32;
        p = p * r + 1.398_199_9e-3;
        p = p * r + 8.333_452e-3;
        p = p * r + 4.166_579_6e-2;
        p = p * r + 1.666_666_6e-1;
        p = p * r + 0.5;
        let z = (r * r) * p + r + 1.0;
        z * f32::from_bits((((n as i32) + 127) << 23) as u32)
    }

    #[test]
    fn fast_exp_bit_rebuild_matches_the_integer_cast() {
        let mut x = -200.0f32;
        let mut i = 0u32;
        while x < 200.0 {
            assert_eq!(
                fast_exp(x).to_bits(),
                fast_exp_cast_rebuild(x).to_bits(),
                "x = {x}"
            );
            i += 1;
            x = -200.0 + i as f32 * 0.0007;
        }
        for x in [f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0] {
            assert_eq!(
                fast_exp(x).to_bits(),
                fast_exp_cast_rebuild(x).to_bits(),
                "x = {x}"
            );
        }
    }

    #[test]
    fn fast_exp_matches_libm_to_relative_3e7() {
        // Sweep the range the kernels actually use (softmax arguments are
        // ≤ 0 after max subtraction; SiLU sees both signs) plus the tails.
        let mut worst = 0.0f64;
        let mut x = -30.0f32;
        while x <= 30.0 {
            let want = f64::from(x).exp();
            let got = f64::from(fast_exp(x));
            worst = worst.max(((got - want) / want).abs());
            x += 0.001;
        }
        assert!(worst < 3e-7, "worst relative error {worst:.3e}");
        assert_eq!(fast_exp(0.0), 1.0);
        // Deep negative tail: must underflow cleanly, never produce junk.
        assert!(fast_exp(-100.0) >= 0.0 && fast_exp(-100.0) < 1e-37);
        assert!(fast_exp(-f32::INFINITY) >= 0.0);
    }
}
