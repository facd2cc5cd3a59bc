//! Normal-operation ellipses — Eq. (4) of the paper.
//!
//! Every node fits an ellipse `Ω_i = { x ∈ R² | (x−c)ᵀ A (x−c) ≤ 1 }` to
//! its 2-D phasor cloud (magnitude, angle) under normal operation, such
//! that *all* training points lie inside. Membership of a fresh point in
//! `Ω_i` is the per-node failure-detection criterion feeding the
//! capability statistics of Eq. (5).
//!
//! Two fitting methods are provided: a covariance ellipse inflated to the
//! farthest training point (fast, the default) and Khachiyan's
//! minimum-volume enclosing ellipsoid (tight; used by `repro ablations`).

use crate::config::EllipseMethod;
use crate::error::DetectError;
use crate::Result;
use pmu_numerics::eigen::sym_eigen;
use pmu_numerics::Matrix;

/// A 2-D ellipse `{ x | (x − c)ᵀ A (x − c) ≤ 1 }` with `A` symmetric
/// positive definite.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone)]
pub struct Ellipse {
    /// Center `c`.
    pub center: [f64; 2],
    /// Shape matrix `A`, row-major `[[a00, a01], [a10, a11]]`.
    pub shape: [[f64; 2]; 2],
}

impl Ellipse {
    /// The quadratic form `(x − c)ᵀ A (x − c)`; `≤ 1` means inside.
    pub fn quad_form(&self, x: [f64; 2]) -> f64 {
        let dx = x[0] - self.center[0];
        let dy = x[1] - self.center[1];
        self.shape[0][0] * dx * dx
            + (self.shape[0][1] + self.shape[1][0]) * dx * dy
            + self.shape[1][1] * dy * dy
    }

    /// Is `x` inside (or on) the ellipse?
    pub fn contains(&self, x: [f64; 2]) -> bool {
        self.quad_form(x) <= 1.0
    }

    /// Fit an ellipse to `points` with the requested method and safety
    /// margin (`margin ≥ 1` inflates the semi-axes by that factor).
    ///
    /// # Errors
    /// Returns [`DetectError::InvalidTrainingData`] for fewer than three
    /// points or a degenerate (collinear) cloud.
    pub fn fit(points: &[[f64; 2]], method: EllipseMethod, margin: f64) -> Result<Ellipse> {
        if points.len() < 3 {
            return Err(DetectError::InvalidTrainingData(format!(
                "ellipse fit needs >= 3 points, got {}",
                points.len()
            )));
        }
        let mut e = match method {
            EllipseMethod::ScaledCovariance => fit_scaled_covariance(points)?,
            EllipseMethod::MinVolume => fit_mvee(points)?,
        };
        // Inflate: scaling semi-axes by m scales A by 1/m².
        let s = 1.0 / (margin * margin);
        for row in &mut e.shape {
            for v in row {
                *v *= s;
            }
        }
        Ok(e)
    }
}

/// Covariance ellipse inflated to cover the farthest point.
fn fit_scaled_covariance(points: &[[f64; 2]]) -> Result<Ellipse> {
    let n = points.len();
    let mut cx = 0.0;
    let mut cy = 0.0;
    for p in points {
        cx += p[0];
        cy += p[1];
    }
    cx /= n as f64;
    cy /= n as f64;

    // 2x2 covariance with a noise floor so degenerate clouds still invert.
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for p in points {
        let dx = p[0] - cx;
        let dy = p[1] - cy;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    let denom = (n - 1) as f64;
    sxx /= denom;
    sxy /= denom;
    syy /= denom;
    // Noise floor sized so that the cancellation error in the quadratic
    // form of a near-collinear cloud stays far below 1 (see the collinear
    // regression test).
    let floor = 1e-9 * (1.0 + sxx.abs() + syy.abs());
    sxx += floor;
    syy += floor;

    let det = sxx * syy - sxy * sxy;
    if det <= 0.0 {
        return Err(DetectError::InvalidTrainingData(
            "degenerate (collinear) point cloud".into(),
        ));
    }
    // Inverse covariance.
    let inv = [[syy / det, -sxy / det], [-sxy / det, sxx / det]];

    // Scale so the farthest point has quadratic form exactly 1.
    let mut max_q = 0.0_f64;
    for p in points {
        let dx = p[0] - cx;
        let dy = p[1] - cy;
        let q = inv[0][0] * dx * dx + 2.0 * inv[0][1] * dx * dy + inv[1][1] * dy * dy;
        max_q = max_q.max(q);
    }
    let s = 1.0 / max_q.max(1e-300);
    Ok(Ellipse {
        center: [cx, cy],
        shape: [[inv[0][0] * s, inv[0][1] * s], [inv[1][0] * s, inv[1][1] * s]],
    })
}

/// Khachiyan's algorithm for the minimum-volume enclosing ellipsoid.
fn fit_mvee(points: &[[f64; 2]]) -> Result<Ellipse> {
    const TOL: f64 = 1e-6;
    const MAX_ITER: usize = 500;
    let n = points.len();
    let d = 2usize;

    // Lifted points Q = [x; 1] as a 3×n matrix.
    let q = Matrix::from_fn(d + 1, n, |r, c| if r < d { points[c][r] } else { 1.0 });
    let mut u = vec![1.0 / n as f64; n];

    for _ in 0..MAX_ITER {
        // M = Q diag(u) Qᵀ (3×3).
        let mut m = Matrix::zeros(d + 1, d + 1);
        for c in 0..n {
            for i in 0..=d {
                for j in 0..=d {
                    m[(i, j)] += u[c] * q[(i, c)] * q[(j, c)];
                }
            }
        }
        let inv = pmu_numerics::lu::LuFactors::factorize(&m)
            .and_then(|lu| lu.inverse())
            .map_err(|e| DetectError::InvalidTrainingData(format!("MVEE singular: {e}")))?;
        // jth "distance": qⱼᵀ M⁻¹ qⱼ.
        let mut jmax = 0usize;
        let mut maximum = f64::MIN;
        for c in 0..n {
            let mut acc = 0.0;
            for i in 0..=d {
                for j in 0..=d {
                    acc += q[(i, c)] * inv[(i, j)] * q[(j, c)];
                }
            }
            if acc > maximum {
                maximum = acc;
                jmax = c;
            }
        }
        let step = (maximum - (d + 1) as f64) / (((d + 1) as f64) * (maximum - 1.0));
        if step <= TOL {
            break;
        }
        for (c, w) in u.iter_mut().enumerate() {
            *w *= 1.0 - step;
            if c == jmax {
                *w += step;
            }
        }
    }

    // Center and shape: c = P u; A = (1/d) (P diag(u) Pᵀ − c cᵀ)⁻¹.
    let mut cx = 0.0;
    let mut cy = 0.0;
    for (c, w) in u.iter().enumerate() {
        cx += w * points[c][0];
        cy += w * points[c][1];
    }
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (c, w) in u.iter().enumerate() {
        sxx += w * points[c][0] * points[c][0];
        sxy += w * points[c][0] * points[c][1];
        syy += w * points[c][1] * points[c][1];
    }
    sxx -= cx * cx;
    sxy -= cx * cy;
    syy -= cy * cy;
    let floor = 1e-14 * (1.0 + sxx.abs() + syy.abs());
    sxx += floor;
    syy += floor;
    let det = sxx * syy - sxy * sxy;
    if det <= 0.0 {
        return Err(DetectError::InvalidTrainingData(
            "degenerate (collinear) point cloud".into(),
        ));
    }
    let scale = 1.0 / (d as f64);
    let a = [
        [scale * syy / det, -scale * sxy / det],
        [-scale * sxy / det, scale * sxx / det],
    ];
    // Khachiyan's iterate can stop slightly short of covering every point;
    // inflate so the farthest one is exactly on the boundary.
    let mut e = Ellipse { center: [cx, cy], shape: a };
    let max_q = points.iter().map(|&p| e.quad_form(p)).fold(0.0_f64, f64::max);
    if max_q > 1.0 {
        let s = 1.0 / max_q;
        for row in &mut e.shape {
            for v in row {
                *v *= s;
            }
        }
    }
    Ok(e)
}

/// Semi-axis lengths of an ellipse (descending), from the eigenvalues of
/// its shape matrix (`len = 1/√λ`).
pub fn semi_axes(e: &Ellipse) -> Result<[f64; 2]> {
    let a = Matrix::from_rows(
        2,
        2,
        vec![e.shape[0][0], e.shape[0][1], e.shape[1][0], e.shape[1][1]],
    )?;
    let eig = sym_eigen(&a)?;
    // Eigenvalues descending → axes ascending; report descending axes.
    Ok([1.0 / eig.values[1].max(1e-300).sqrt(), 1.0 / eig.values[0].max(1e-300).sqrt()])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_points(cx: f64, cy: f64, rx: f64, ry: f64, n: usize) -> Vec<[f64; 2]> {
        (0..n)
            .map(|k| {
                let t = std::f64::consts::TAU * k as f64 / n as f64;
                [cx + rx * t.cos(), cy + ry * t.sin()]
            })
            .collect()
    }

    #[test]
    fn covariance_fit_covers_all_points() {
        let pts = ring_points(1.0, -0.5, 0.02, 0.01, 40);
        let e = Ellipse::fit(&pts, EllipseMethod::ScaledCovariance, 1.0).unwrap();
        for p in &pts {
            assert!(e.quad_form(*p) <= 1.0 + 1e-9);
        }
        // Center recovered.
        assert!((e.center[0] - 1.0).abs() < 1e-6);
        assert!((e.center[1] + 0.5).abs() < 1e-6);
        // A point far outside is rejected.
        assert!(!e.contains([1.1, -0.5]));
        // The center is inside.
        assert!(e.contains([1.0, -0.5]));
    }

    #[test]
    fn mvee_covers_and_is_tighter_than_loose_cov() {
        let pts = ring_points(0.0, 0.0, 1.0, 0.5, 24);
        let mv = Ellipse::fit(&pts, EllipseMethod::MinVolume, 1.0).unwrap();
        for p in &pts {
            assert!(mv.quad_form(*p) <= 1.0 + 1e-6, "point escaped MVEE");
        }
        // For a symmetric ring the MVEE semi-axes approach (1.0, 0.5).
        let axes = semi_axes(&mv).unwrap();
        assert!((axes[0] - 1.0).abs() < 0.1, "major {}", axes[0]);
        assert!((axes[1] - 0.5).abs() < 0.1, "minor {}", axes[1]);
    }

    #[test]
    fn margin_inflates() {
        let pts = ring_points(0.0, 0.0, 1.0, 1.0, 16);
        let tight = Ellipse::fit(&pts, EllipseMethod::ScaledCovariance, 1.0).unwrap();
        let loose = Ellipse::fit(&pts, EllipseMethod::ScaledCovariance, 2.0).unwrap();
        // A point on the tight boundary is well inside the loose one.
        let p = [1.0, 0.0];
        assert!(tight.quad_form(p) > 0.5);
        assert!(loose.quad_form(p) < tight.quad_form(p) * 0.3);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(Ellipse::fit(&[[0.0, 0.0]], EllipseMethod::ScaledCovariance, 1.0).is_err());
        assert!(Ellipse::fit(
            &[[0.0, 0.0], [1.0, 1.0]],
            EllipseMethod::MinVolume,
            1.0
        )
        .is_err());
        // Collinear clouds still produce an ellipse thanks to the noise
        // floor (a needle), and contain their own points.
        let collinear: Vec<[f64; 2]> = (0..10).map(|k| [k as f64, 2.0 * k as f64]).collect();
        let e = Ellipse::fit(&collinear, EllipseMethod::ScaledCovariance, 1.0).unwrap();
        for p in &collinear {
            assert!(e.quad_form(*p) <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn anisotropic_cloud_orientation() {
        // Points along y = x should produce an ellipse elongated along the
        // diagonal: (1,1)/√2 direction has small quadratic form growth.
        let mut pts = Vec::new();
        for k in 0..60 {
            let t = (k as f64 / 59.0) * 2.0 - 1.0;
            pts.push([t, t + 0.01 * (k as f64 * 0.7).sin()]);
        }
        let e = Ellipse::fit(&pts, EllipseMethod::ScaledCovariance, 1.0).unwrap();
        let along = e.quad_form([e.center[0] + 0.1, e.center[1] + 0.1]);
        let across = e.quad_form([e.center[0] + 0.1, e.center[1] - 0.1]);
        assert!(across > 10.0 * along, "across {across} vs along {along}");
    }

    #[test]
    fn capability_counting_usage() {
        // Normal cloud near (1.0, 0): every normal point inside; shifted
        // cloud simulating an outage mostly outside (the Eq. 5 numerator).
        let normal = ring_points(1.0, 0.0, 0.005, 0.005, 30);
        let e = Ellipse::fit(&normal, EllipseMethod::ScaledCovariance, 1.05).unwrap();
        assert!(normal.iter().all(|&p| e.contains(p)));
        let outage = ring_points(1.0, 0.08, 0.005, 0.005, 30);
        let outside = outage.iter().filter(|&&p| !e.contains(p)).count();
        assert_eq!(outside, 30, "shifted cloud must be fully outside");
    }
}
