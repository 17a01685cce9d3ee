//! The redundant generator: `d′ × d` matrices in which **any** `d` rows
//! are linearly independent.
//!
//! §4.4(b) of the paper requires exactly this property so that a node can
//! decode its information from any `d` of the `d′` slices it was sent.
//! [`strong_generator`] builds a Cauchy matrix with rows and columns
//! scaled by random nonzero constants. Every square submatrix of a Cauchy
//! matrix is invertible (Cauchy determinant formula), and nonzero
//! row/column scaling preserves that, so the property holds
//! *deterministically* — no `C(d′, d)` verification pass is needed.
//! [`all_row_subsets_invertible`] checks the property exhaustively and
//! serves as the test oracle.

use rand::Rng;

use crate::gf256::Gf256;
use crate::matrix::Matrix;

/// Visit every `k`-subset of `0..n` (lexicographic), aborting early if the
/// callback returns `false`.
fn for_each_subset(n: usize, k: usize, mut f: impl FnMut(&[usize]) -> bool) -> bool {
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        if !f(&idx) {
            return false;
        }
        // Advance to next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return true;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Check that every `d × d` row-submatrix of `m` is invertible.
pub fn all_row_subsets_invertible(m: &Matrix) -> bool {
    let (dp, d) = (m.nrows(), m.ncols());
    if dp < d {
        return false;
    }
    for_each_subset(dp, d, |rows| m.select_rows(rows).is_invertible())
}

/// Produce a **super-regular** `d′ × d` generator: *every* square
/// submatrix (any rows × any columns) is invertible, not just full
/// `d`-row selections.
///
/// This is the generator `slicing-codec`'s `encode` uses, because
/// pi-security (Lemma 5.1) needs the system seen by an attacker holding
/// any `m < d` slices to remain underdetermined *for every choice of
/// fixed message components* — which is exactly the statement that every
/// `m × m` submatrix of the observed rows is invertible.
///
/// The construction is a randomized Cauchy matrix,
/// `C[i][j] = r_i · s_j / (x_i + y_j)`, with distinct `x_i`, `y_j` drawn
/// from disjoint ranges of the field and random nonzero `r_i`, `s_j`:
/// the Cauchy determinant is a product of nonzero factors, and row/column
/// scaling by nonzero constants preserves that.
///
/// # Panics
/// Panics if `d < 1`, `d′ < d`, or `d′ + d > 256` (no disjoint
/// evaluation points left in the field).
pub fn strong_generator<R: Rng + ?Sized>(d_prime: usize, d: usize, rng: &mut R) -> Matrix {
    assert!(d >= 1, "d must be >= 1");
    assert!(d_prime >= d, "d' must be >= d");
    assert!(
        d_prime + d <= 256,
        "field too small for Cauchy construction"
    );
    let xs: Vec<Gf256> = (0..d_prime).map(|i| Gf256::new(i as u8)).collect();
    let ys: Vec<Gf256> = (d_prime..d_prime + d)
        .map(|i| Gf256::new(i as u8))
        .collect();
    let r: Vec<Gf256> = (0..d_prime).map(|_| Gf256::random_nonzero(rng)).collect();
    let s: Vec<Gf256> = (0..d).map(|_| Gf256::random_nonzero(rng)).collect();
    let mut m = Matrix::zero(d_prime, d);
    for i in 0..d_prime {
        for j in 0..d {
            let denom = xs[i].add(ys[j]);
            debug_assert!(!denom.is_zero(), "Cauchy points collide");
            m.set(i, j, r[i].mul(s[j]).div(denom));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn subset_enumeration_counts() {
        let mut count = 0;
        for_each_subset(6, 3, |_| {
            count += 1;
            true
        });
        assert_eq!(count, 20);
    }

    #[test]
    fn cauchy_has_property() {
        let mut rng = rng();
        for (dp, d) in [(3, 2), (6, 3), (9, 4), (12, 2)] {
            let m = strong_generator(dp, d, &mut rng);
            assert!(all_row_subsets_invertible(&m), "failed at ({dp},{d})");
        }
    }

    #[test]
    fn generator_square_case_is_invertible() {
        let mut rng = rng();
        let m = strong_generator(4, 4, &mut rng);
        assert!(m.is_invertible());
    }

    #[test]
    fn generator_large_dims_uses_cauchy() {
        let mut rng = rng();
        // C(40, 20) is astronomically large; nothing may try to verify it.
        let m = strong_generator(40, 20, &mut rng);
        assert_eq!(m.nrows(), 40);
        assert_eq!(m.ncols(), 20);
        // Spot-check a handful of random subsets.
        use rand::seq::SliceRandom;
        for _ in 0..16 {
            let mut rows: Vec<usize> = (0..40).collect();
            rows.shuffle(&mut rng);
            rows.truncate(20);
            assert!(m.select_rows(&rows).is_invertible());
        }
    }

    #[test]
    #[should_panic(expected = "d' must be >= d")]
    fn rejects_dprime_below_d() {
        let mut rng = rng();
        let _ = strong_generator(2, 3, &mut rng);
    }

    /// Super-regularity: every square submatrix (rows × columns) of the
    /// strong generator is invertible.
    #[test]
    fn strong_generator_every_square_submatrix_invertible() {
        let mut rng = rng();
        for (dp, d) in [(3usize, 3usize), (4, 3), (5, 2), (4, 4)] {
            let g = strong_generator(dp, d, &mut rng);
            for k in 1..=d {
                let ok = for_each_subset(dp, k, |rows| {
                    for_each_subset(d, k, |cols| {
                        let sub = g.select_rows(rows);
                        // Select columns via transpose + select_rows.
                        let subsub = sub.transpose().select_rows(cols);
                        subsub.is_invertible()
                    })
                });
                assert!(ok, "singular {k}x{k} submatrix at ({dp},{d})");
            }
        }
    }
}
