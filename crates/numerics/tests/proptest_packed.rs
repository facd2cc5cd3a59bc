//! Property tests for the dimension-grouped projector bank.
//!
//! The bank's contract is bitwise: for every block and every sample it
//! returns the same float as `Subspace::residual_sqr` on that block's
//! basis. These properties draw random mixes of block dimensions —
//! empty (`k = 0`) blocks, many blocks of one dimension, single-member
//! groups, dimensions in no particular order — with several samples per
//! call and exact zeros in the samples, and check that contract plus a
//! byte-stable serialize → parse → serialize round trip.

use pmu_numerics::qr::orthonormal_columns;
use pmu_numerics::{Matrix, ProjectorBank, Subspace};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Deterministic pseudo-random matrix with entries in [-1, 1).
fn random_like(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// One `d × k` orthonormal basis per entry of `dims` (`k = 0` yields an
/// empty basis).
fn bases(d: usize, dims: &[usize], seed: u64) -> Vec<Matrix> {
    dims.iter()
        .enumerate()
        .map(|(b, &k)| {
            if k == 0 {
                return Matrix::zeros(d, 0);
            }
            let q = orthonormal_columns(&random_like(d, k, seed ^ (b as u64 + 1)), 1e-10).unwrap();
            assert_eq!(q.cols(), k, "random basis lost rank");
            q
        })
        .collect()
}

/// `n` sample columns; roughly one entry in four is an exact zero so the
/// coefficient stage's zero-skip is exercised.
fn samples(d: usize, n: usize, seed: u64) -> Matrix {
    let mut x = random_like(d, n, seed.rotate_left(17));
    for i in 0..d {
        for s in 0..n {
            if (seed >> ((i * n + s) % 61)) & 3 == 0 {
                x[(i, s)] = 0.0;
            }
        }
    }
    x
}

/// Check the bank bitwise against the per-subspace scalar path.
fn check_against_scalar(bases: &[Matrix], x: &Matrix) -> Result<(), TestCaseError> {
    let refs: Vec<&Matrix> = bases.iter().collect();
    let bank = ProjectorBank::from_bases(&refs).unwrap();
    prop_assert_eq!(bank.n_blocks(), bases.len());
    let out = bank.block_residuals(x).unwrap();
    prop_assert_eq!(out.shape(), (bases.len(), x.cols()));
    for (b, basis) in bases.iter().enumerate() {
        prop_assert_eq!(bank.block_dim(b), basis.cols());
        let sub = Subspace::from_orthonormal(basis.clone());
        for s in 0..x.cols() {
            let want = sub.residual_sqr(&x.column(s)).unwrap();
            prop_assert!(
                out[(b, s)].to_bits() == want.to_bits(),
                "block {b} (k = {}) sample {s}: bank {} vs scalar {want}",
                basis.cols(),
                out[(b, s)]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mixed_dims_match_scalar_bitwise(
        dims in proptest::collection::vec(0usize..6, 1..16),
        d in 6usize..14,
        n in 1usize..5,
        seed in any::<u64>(),
    ) {
        let bases = bases(d, &dims, seed);
        check_against_scalar(&bases, &samples(d, n, seed))?;
    }

    #[test]
    fn one_dim_many_blocks_match_scalar_bitwise(
        k in 0usize..6,
        m in 1usize..48,
        d in 6usize..12,
        n in 1usize..4,
        seed in any::<u64>(),
    ) {
        let bases = bases(d, &vec![k; m], seed);
        check_against_scalar(&bases, &samples(d, n, seed))?;
    }

    #[test]
    fn serde_roundtrip_is_byte_stable(
        dims in proptest::collection::vec(0usize..5, 1..10),
        d in 5usize..9,
        seed in any::<u64>(),
    ) {
        let bases = bases(d, &dims, seed);
        let refs: Vec<&Matrix> = bases.iter().collect();
        let bank = ProjectorBank::from_bases(&refs).unwrap();
        let json = serde_json::to_string(&bank).unwrap();
        let back: ProjectorBank = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // The on-disk tensor is the column concatenation of the bases.
        let packed: Matrix = Matrix::hcat_all(&refs).unwrap();
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(dims.iter().scan(0, |acc, &k| { *acc += k; Some(*acc) }))
            .collect();
        let want = format!(
            "{{\"packed\":{},\"offsets\":{}}}",
            serde_json::to_string(&packed).unwrap(),
            serde_json::to_string(&offsets).unwrap()
        );
        prop_assert_eq!(json, want);
        let x = samples(d, 2, seed);
        let (r1, r2) = (bank.block_residuals(&x).unwrap(), back.block_residuals(&x).unwrap());
        for b in 0..dims.len() {
            for s in 0..2 {
                prop_assert_eq!(r1[(b, s)].to_bits(), r2[(b, s)].to_bits());
            }
        }
    }
}
