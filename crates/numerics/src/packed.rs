//! Projector banks: many subspace residuals per sample, grouped by
//! dimension.
//!
//! The detection hot path scores every sample against one subspace per
//! outage case. Done naively that is `O(cases × samples)` independent
//! projections, each re-walking its basis. A [`ProjectorBank`] instead
//! groups the (row-restricted, clamped) bases by dimension `k` and
//! interleaves each group's members, so one sample costs three
//! contiguous loops per group that each run across all of the group's
//! `m` members at once — long, branch-free loops the compiler vectorizes,
//! where a per-block body would run `k`-long dot products (`k ≤ 5` at
//! every IEEE scale) that never do.
//!
//! ## Layout
//!
//! For each distinct block dimension `k` the bank keeps the ascending
//! member block ids and one buffer holding `data[(i*k + c)*m + j]` = row
//! `i`, column `c` of member `j`. A row `i` of the buffer is therefore a
//! contiguous `k × m` slab whose `(c, j)` order matches the group's
//! coefficient vector. A `k = 0` group (empty subspaces) holds no data:
//! every member's residual is the plain squared norm of the sample.
//!
//! ## Bit-compatibility contract
//!
//! [`ProjectorBank::block_residuals`] reproduces, bit for bit, what
//! [`Subspace::residual_sqr`](crate::Subspace::residual_sqr) computes per
//! block on the same basis, because each output element sees the same
//! additions in the same order:
//!
//! - the coefficient stage accumulates `w · x_i` over ascending row `i`
//!   and skips rows with `x_i == 0`, exactly like `tr_matvec`;
//! - the projection stage accumulates over ascending basis columns with
//!   no zero-skip, exactly like `matvec` (its start value is `+0.0`, which
//!   can differ from `matvec`'s only in the sign of an all-zero
//!   projection — invisible to the squared residual);
//! - the residual accumulates `(x_i − p_i)²` over ascending `i`, exactly
//!   like `Vector::norm_sqr` on the difference.
//!
//! Grouping only changes which *independent* elements share a loop; it
//! never reorders the additions within one element. The property tests
//! in `tests/proptest_packed.rs` and the parity suite in the detector
//! crate pin this contract.
//!
//! ## On disk
//!
//! The serialized form is the column-concatenated `{"packed": Matrix,
//! "offsets": [...]}` tensor (block `b` occupies columns
//! `offsets[b]..offsets[b+1]`). It is rebuilt from the groups on save
//! and regrouped on load, so the format is independent of the in-memory
//! layout, and a load validates the fence posts before it indexes
//! anything.

use crate::error::NumericsError;
use crate::matrix::Matrix;
use crate::Result;
use serde::{DeError, Deserialize, Serialize, Value};

/// A bank of orthonormal bases, grouped by dimension for scoring.
///
/// All bases share the same row count `d` (the ambient/observed
/// dimension). Zero-dimensional blocks (empty subspaces) are legal and
/// contribute the plain squared norm of the sample as their residual.
#[derive(Debug, Clone)]
pub struct ProjectorBank {
    /// Shared row count `d` of every block basis.
    rows: usize,
    /// Dimension of every block, in block order.
    dims: Vec<usize>,
    /// One group per distinct dimension, ascending in `k`.
    groups: Vec<DimGroup>,
}

/// All blocks of one dimension `k`, interleaved (see the module docs).
#[derive(Debug, Clone)]
struct DimGroup {
    k: usize,
    /// Block ids of the members, ascending.
    members: Vec<usize>,
    /// `rows × k × m` values: `data[(i*k + c)*m + j]` = row `i`, column
    /// `c` of member `j`.
    data: Vec<f64>,
}

/// Reused per-call buffers of [`DimGroup::residuals`].
#[derive(Default)]
struct Scratch {
    coef: Vec<f64>,
    proj: Vec<f64>,
    acc: Vec<f64>,
}

impl DimGroup {
    /// Squared residuals of the sample `x` against every member, left in
    /// `s.acc` in member order.
    fn residuals(&self, x: &[f64], s: &mut Scratch) {
        let (k, m) = (self.k, self.members.len());
        let slab = k * m;
        // Coefficients: coef[c*m + j] += data[(i*k + c)*m + j] * x_i.
        s.coef.clear();
        s.coef.resize(slab, 0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let row = &self.data[i * slab..(i + 1) * slab];
            for (cv, &w) in s.coef.iter_mut().zip(row) {
                *cv += w * xi;
            }
        }
        // Projection and residual, one row at a time.
        s.proj.clear();
        s.proj.resize(m, 0.0);
        s.acc.clear();
        s.acc.resize(m, 0.0);
        for (i, &xi) in x.iter().enumerate() {
            let row = &self.data[i * slab..(i + 1) * slab];
            s.proj.fill(0.0);
            for (w, cf) in row.chunks_exact(m).zip(s.coef.chunks_exact(m)) {
                for ((p, &wj), &cj) in s.proj.iter_mut().zip(w).zip(cf) {
                    *p += wj * cj;
                }
            }
            for (a, &p) in s.acc.iter_mut().zip(&s.proj) {
                let diff = xi - p;
                *a += diff * diff;
            }
        }
    }
}

impl ProjectorBank {
    /// Group the given bases (each `d × k_b`, orthonormal columns) into
    /// one bank. Orthonormality is the caller's contract — the bank does
    /// not re-verify it.
    ///
    /// # Errors
    /// Returns [`NumericsError::InvalidArgument`] for an empty list and
    /// [`NumericsError::ShapeMismatch`] when row counts differ.
    pub fn from_bases(bases: &[&Matrix]) -> Result<Self> {
        let first = bases
            .first()
            .ok_or_else(|| NumericsError::invalid("ProjectorBank::from_bases", "no bases"))?;
        let d = first.rows();
        if let Some(b) = bases.iter().find(|b| b.rows() != d) {
            return Err(NumericsError::ShapeMismatch {
                op: "ProjectorBank::from_bases",
                lhs: first.shape(),
                rhs: b.shape(),
            });
        }
        let dims = bases.iter().map(|b| b.cols()).collect();
        Ok(Self::grouped(d, dims, |b, i, c| bases[b][(i, c)]))
    }

    /// Build the grouped layout for blocks of dimensions `dims`, reading
    /// row `i`, column `c` of block `b` through `entry(b, i, c)`.
    fn grouped(rows: usize, dims: Vec<usize>, entry: impl Fn(usize, usize, usize) -> f64) -> Self {
        let mut ks: Vec<usize> = dims.clone();
        ks.sort_unstable();
        ks.dedup();
        let groups = ks
            .into_iter()
            .map(|k| {
                let members: Vec<usize> = (0..dims.len()).filter(|&b| dims[b] == k).collect();
                let mut data = Vec::with_capacity(rows * k * members.len());
                for i in 0..rows {
                    for c in 0..k {
                        data.extend(members.iter().map(|&b| entry(b, i, c)));
                    }
                }
                DimGroup { k, members, data }
            })
            .collect();
        ProjectorBank { rows, dims, groups }
    }

    /// Shared row count `d` of every block basis.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.dims.len()
    }

    /// Dimension (column count) of block `b`.
    pub fn block_dim(&self, b: usize) -> usize {
        self.dims[b]
    }

    /// Squared residuals of every sample column against every block:
    /// returns an `n_blocks × n_samples` matrix with
    /// `out[(b, s)] = ||x_s − P_b x_s||²`.
    ///
    /// Each sample runs the dimension groups' interleaved loops, which
    /// replicate the accumulation order of the per-subspace scalar path
    /// (see the module docs for the bit-compatibility contract).
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] when `x` has a different
    /// row count than the bank.
    pub fn block_residuals(&self, x: &Matrix) -> Result<Matrix> {
        let (d, n_samples) = x.shape();
        if d != self.rows {
            return Err(NumericsError::ShapeMismatch {
                op: "ProjectorBank::block_residuals",
                lhs: (self.rows, self.dims.iter().sum()),
                rhs: x.shape(),
            });
        }
        let mut out = Matrix::zeros(self.n_blocks(), n_samples);
        let mut scratch = Scratch::default();
        let mut xs = Vec::with_capacity(d);
        for s in 0..n_samples {
            xs.clear();
            xs.extend((0..d).map(|i| x[(i, s)]));
            for g in &self.groups {
                if g.k == 0 {
                    // Every member's residual is ‖x‖², summed once.
                    let norm = xs.iter().fold(0.0, |acc, v| acc + v * v);
                    for &b in &g.members {
                        out[(b, s)] = norm;
                    }
                    continue;
                }
                g.residuals(&xs, &mut scratch);
                for (&b, &r) in g.members.iter().zip(&scratch.acc) {
                    out[(b, s)] = r;
                }
            }
        }
        Ok(out)
    }
}

impl Serialize for ProjectorBank {
    fn to_value(&self) -> Value {
        let mut offsets = Vec::with_capacity(self.dims.len() + 1);
        offsets.push(0usize);
        for &k in &self.dims {
            offsets.push(offsets[offsets.len() - 1] + k);
        }
        let mut packed = Matrix::zeros(self.rows, self.dims.iter().sum());
        for g in &self.groups {
            let m = g.members.len();
            for (j, &b) in g.members.iter().enumerate() {
                for i in 0..self.rows {
                    for c in 0..g.k {
                        packed[(i, offsets[b] + c)] = g.data[(i * g.k + c) * m + j];
                    }
                }
            }
        }
        Value::Obj(vec![
            ("packed".to_string(), packed.to_value()),
            ("offsets".to_string(), offsets.to_value()),
        ])
    }
}

impl Deserialize for ProjectorBank {
    /// Rebuild the grouped bank from the on-disk tensor. The offsets come
    /// from untrusted bytes, so they are checked before any indexing:
    /// at least one block, starting at 0, non-decreasing, ending at
    /// `packed.cols()`.
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let packed: Matrix = serde::from_field(v, "packed")?;
        let offsets: Vec<usize> = serde::from_field(v, "offsets")?;
        let bad = |why: String| Err(DeError::new(format!("ProjectorBank offsets: {why}")));
        if offsets.len() < 2 {
            return bad("need at least one block".into());
        }
        if offsets[0] != 0 {
            return bad(format!("start at {}, not 0", offsets[0]));
        }
        if let Some(w) = offsets.windows(2).find(|w| w[1] < w[0]) {
            return bad(format!("decrease from {} to {}", w[0], w[1]));
        }
        let end = offsets[offsets.len() - 1];
        if end != packed.cols() {
            return bad(format!("end at {end}, tensor has {} columns", packed.cols()));
        }
        let dims = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        Ok(Self::grouped(packed.rows(), dims, |b, i, c| packed[(i, offsets[b] + c)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qr::orthonormal_columns;
    use crate::subspace::Subspace;
    use crate::vector::Vector;

    fn random_like(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn ortho(rows: usize, cols: usize, seed: u64) -> Matrix {
        orthonormal_columns(&random_like(rows, cols, seed), 1e-10).unwrap()
    }

    #[test]
    fn matches_per_subspace_residuals_bitwise() {
        let d = 17;
        let bases: Vec<Matrix> = vec![ortho(d, 3, 1), ortho(d, 5, 2), ortho(d, 1, 3)];
        let refs: Vec<&Matrix> = bases.iter().collect();
        let bank = ProjectorBank::from_bases(&refs).unwrap();
        assert_eq!(bank.n_blocks(), 3);
        assert_eq!(bank.rows(), d);
        assert_eq!(bank.block_dim(1), 5);

        let x = random_like(d, 6, 42);
        let out = bank.block_residuals(&x).unwrap();
        assert_eq!(out.shape(), (3, 6));
        for (b, basis) in bases.iter().enumerate() {
            let s = Subspace::from_orthonormal(basis.clone());
            for t in 0..6 {
                let col = x.column(t);
                let want = s.residual_sqr(&col).unwrap();
                assert_eq!(
                    out[(b, t)].to_bits(),
                    want.to_bits(),
                    "block {b} sample {t}: packed {} vs scalar {want}",
                    out[(b, t)]
                );
            }
        }
    }

    #[test]
    fn zero_dim_blocks_yield_plain_norms() {
        let d = 8;
        let empty = Matrix::zeros(d, 0);
        let full = ortho(d, 2, 9);
        let bank = ProjectorBank::from_bases(&[&empty, &full]).unwrap();
        assert_eq!(bank.block_dim(0), 0);
        let x = random_like(d, 2, 7);
        let out = bank.block_residuals(&x).unwrap();
        for t in 0..2 {
            let col: Vector = x.column(t);
            assert_eq!(out[(0, t)].to_bits(), col.norm_sqr().to_bits());
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(ProjectorBank::from_bases(&[]).is_err());
        let a = ortho(5, 2, 1);
        let b = ortho(6, 2, 2);
        assert!(ProjectorBank::from_bases(&[&a, &b]).is_err());
        let bank = ProjectorBank::from_bases(&[&a]).unwrap();
        assert!(bank.block_residuals(&Matrix::zeros(6, 1)).is_err());
    }

    #[test]
    fn crafted_offsets_are_typed_errors() {
        // A 2x3 tensor; only the offsets vary.
        let doc = |offsets: &str| {
            format!(
                r#"{{"packed":{{"rows":2,"cols":3,"data":[1.0,0.0,0.0,0.0,1.0,0.0]}},"offsets":{offsets}}}"#
            )
        };
        assert!(serde_json::from_str::<ProjectorBank>(&doc("[0,1,3]")).is_ok());
        assert!(serde_json::from_str::<ProjectorBank>(&doc("[0,3,3]")).is_ok());
        for (offsets, why) in [
            ("[]", "at least one block"),
            ("[0]", "at least one block"),
            ("[1,3]", "start at 1"),
            ("[0,2,1,3]", "decrease from 2 to 1"),
            ("[0,2]", "end at 2"),
            ("[0,1,9]", "end at 9"),
            ("[0,9223372036854775807]", "end at 9223372036854775807"),
        ] {
            let err = serde_json::from_str::<ProjectorBank>(&doc(offsets))
                .expect_err(offsets)
                .to_string();
            assert!(err.contains(why), "{offsets}: {err}");
        }
        // A tensor whose data disagrees with its shape is rejected by the
        // matrix decoder before the offsets are looked at.
        let short = r#"{"packed":{"rows":2,"cols":3,"data":[1.0]},"offsets":[0,3]}"#;
        assert!(serde_json::from_str::<ProjectorBank>(short).is_err());
    }

    #[test]
    fn serde_roundtrip_is_bit_exact() {
        let a = ortho(7, 3, 4);
        let bank = ProjectorBank::from_bases(&[&a]).unwrap();
        let json = serde_json::to_string(&bank).unwrap();
        let back: ProjectorBank = serde_json::from_str(&json).unwrap();
        let x = random_like(7, 3, 5);
        let r1 = bank.block_residuals(&x).unwrap();
        let r2 = back.block_residuals(&x).unwrap();
        for s in 0..3 {
            assert_eq!(r1[(0, s)].to_bits(), r2[(0, s)].to_bits());
        }
    }
}
