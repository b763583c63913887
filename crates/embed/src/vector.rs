//! Small dense-vector helpers.

/// Euclidean norm.
pub fn norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Normalise in place to unit length (no-op for the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// Dot product with a strict left-to-right summation order.
///
/// The loop is unrolled in fixed-width blocks so the multiplies pipeline
/// (the compiler can schedule/vectorise them), but every product is folded
/// into **one** accumulator in input order — the exact operation sequence
/// of `a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>()` — so the result
/// is bit-identical to the naive scan. That determinism is what lets the
/// retrieval engine cache norms and still pin byte-identical scores.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    const LANES: usize = 8;
    // `Iterator::sum::<f32>()` folds from -0.0 (its additive identity for
    // signed zeros); start there so even all-negative-zero inputs match.
    let mut acc = -0.0f32;
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let at = &a[c * LANES..c * LANES + LANES];
        let bt = &b[c * LANES..c * LANES + LANES];
        // Same adds, same order as the scalar loop — just unrolled so the
        // eight multiplies are independent instructions.
        acc += at[0] * bt[0];
        acc += at[1] * bt[1];
        acc += at[2] * bt[2];
        acc += at[3] * bt[3];
        acc += at[4] * bt[4];
        acc += at[5] * bt[5];
        acc += at[6] * bt[6];
        acc += at[7] * bt[7];
    }
    for i in chunks * LANES..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// Cosine similarity; 0.0 when either vector is zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_with_norms(dot(a, b), norm(a), norm(b))
}

/// Cosine from a precomputed dot product and the two precomputed norms —
/// the norm-cached form the retrieval engine scores with. Performs the
/// exact float operations of [`cosine`]'s final step (`dot / (na * nb)`
/// with the zero-vector guard), so feeding it cached norms is
/// bit-identical to recomputing them.
#[inline]
pub fn cosine_with_norms(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0f32; 4];
        l2_normalize(&mut v);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cosine_identical_is_one() {
        let v = [1.0f32, 2.0, 3.0];
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert_eq!(cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        assert!((cosine(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_dim_mismatch_panics() {
        cosine(&[1.0], &[1.0, 2.0]);
    }

    /// The unrolled kernel must be bit-identical to the sequential fold —
    /// including on lengths that exercise the remainder loop and on values
    /// where summation order changes the last ulp.
    #[test]
    fn dot_is_bit_identical_to_sequential_fold() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Mixed magnitudes so accumulation order matters at ulp level.
            (state as f64 / u64::MAX as f64) as f32 * if state & 1 == 0 { 1.0 } else { -1e-3 }
        };
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 255, 256, 257] {
            let a: Vec<f32> = (0..len).map(|_| next()).collect();
            let b: Vec<f32> = (0..len).map(|_| next()).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(&a, &b).to_bits(), naive.to_bits(), "len {len} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dim_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn cosine_with_norms_matches_cosine() {
        let a = [0.3f32, -0.4, 0.5, 0.1, 0.9, -0.2, 0.7, 0.6, 0.05];
        let b = [0.1f32, 0.8, -0.3, 0.2, -0.5, 0.4, 0.0, 0.9, -0.7];
        let full = cosine(&a, &b);
        let cached = cosine_with_norms(dot(&a, &b), norm(&a), norm(&b));
        assert_eq!(full.to_bits(), cached.to_bits());
        assert_eq!(cosine_with_norms(1.0, 0.0, 2.0), 0.0);
        assert_eq!(cosine_with_norms(1.0, 2.0, 0.0), 0.0);
    }
}
