//! Full Newton–Raphson AC power flow in polar coordinates.
//!
//! The paper's data pipeline uses the AC model ("The AC model is used,
//! instead of the DC approximation, when calculating synchrophasors").
//! This module mirrors MATPOWER's `runpf` with the standard polar
//! formulation: mismatch equations for P at every PV/PQ bus and Q at every
//! PQ bus, and the full Jacobian solved per iteration.
//!
//! Two linear-algebra paths back the Newton step:
//!
//! - **Sparse (default).** The Jacobian inherits the grid graph's
//!   sparsity (~99% zero at IEEE-118), and its *pattern* is fixed across
//!   Newton iterations and across load realizations of one topology.
//!   [`AcSolver`] builds the CSR Y-bus, the Jacobian skeleton, and the
//!   symbolic LU (RCM ordering) once per (system, outage) topology, then
//!   refactors numerics only — the inner loop is allocation-free after
//!   warm-up. If a static pivot ever underflows (no row exchanges are
//!   possible on a fixed pattern), the step falls back to the dense
//!   pivoted LU for that iteration.
//! - **Dense.** The original dense-Jacobian + partial-pivoting path,
//!   retained behind [`LinearSolver::Dense`] for parity testing exactly
//!   like `matmul_reference` backs the blocked matmul. It is chosen per
//!   call through [`AcConfig::linear_solver`]; there is no process-wide
//!   switch.

// Indexed loops are the clearest expression of the dense numerical
// kernels in this module.
#![allow(clippy::needless_range_loop)]

use crate::error::FlowError;
use crate::Result;
use pmu_grid::{BusType, Network};
use pmu_numerics::lu::LuFactors;
use pmu_numerics::sparse_lu::{SparseLu, SymbolicLu};
use pmu_numerics::{CMatrix, Complex64, CsrCMatrix, CsrMatrix, Matrix, Vector};

/// Which linear-algebra path the Newton step uses.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearSolver {
    /// CSR Jacobian, RCM-ordered sparse LU with symbolic pattern reuse.
    Sparse,
    /// Dense Jacobian and dense LU with partial pivoting (the reference
    /// path, kept for parity testing).
    Dense,
}

/// Configuration of the Newton–Raphson solver.
#[derive(serde::Serialize, serde::Deserialize)]
#[derive(Debug, Clone, PartialEq)]
pub struct AcConfig {
    /// Convergence tolerance on the infinity norm of the power mismatch
    /// (p.u.).
    pub tol: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Start from a flat profile (`V = 1`, `θ = 0`) instead of the case's
    /// stored voltage estimate. A warm start from the case values converges
    /// in fewer iterations.
    pub flat_start: bool,
    /// Enforce generator reactive limits: after convergence, PV buses
    /// whose aggregate Q output violates its [qmin, qmax] range are
    /// switched to PQ at the violated limit and the flow is re-solved
    /// (up to a few outer rounds), as MATPOWER's `ENFORCE_Q_LIMS` does.
    pub enforce_q_limits: bool,
    /// Linear-algebra path for the Newton step (sparse by default).
    pub linear_solver: LinearSolver,
    /// Reuse the previous converged state of an [`AcSolver`] as the
    /// initial guess for the next `solve` call. Consecutive solves in a
    /// simulated window differ only by small load/dispatch increments, so
    /// warm starting roughly halves the Newton iterations; PV/slack
    /// setpoints are still refreshed from the network every call, and a
    /// failed solve always cold-starts the next one. Off by default —
    /// one-shot `solve_ac` callers and perfbench's `nr_solve` measure the
    /// cold-start cost; scenario generation opts in.
    pub warm_start: bool,
}

impl Default for AcConfig {
    fn default() -> Self {
        AcConfig {
            tol: 1e-8,
            max_iter: 30,
            flat_start: false,
            enforce_q_limits: false,
            linear_solver: LinearSolver::Sparse,
            warm_start: false,
        }
    }
}

/// A converged AC power-flow state.
#[derive(Debug, Clone)]
pub struct AcSolution {
    /// Voltage magnitudes (p.u.), indexed by internal bus index.
    pub vm: Vec<f64>,
    /// Voltage angles (radians).
    pub va: Vec<f64>,
    /// Newton iterations used.
    pub iterations: usize,
    /// Final infinity-norm power mismatch (p.u.).
    pub max_mismatch: f64,
    /// Active power injected by the slack bus (p.u.), covering losses.
    pub slack_p: f64,
}

impl AcSolution {
    /// The complex voltage phasor at `bus`.
    pub fn phasor(&self, bus: usize) -> Complex64 {
        Complex64::from_polar(self.vm[bus], self.va[bus])
    }

    /// All phasors in bus order.
    pub fn phasors(&self) -> Vec<Complex64> {
        (0..self.vm.len()).map(|b| self.phasor(b)).collect()
    }
}

/// Net specified injections in per-unit: `(P_spec, Q_spec)` per bus, where
/// `P = (ΣPg - Pd)/base` and `Q = (ΣQg - Qd)/base`.
fn specified_injections_into(net: &Network, p: &mut [f64], q: &mut [f64]) {
    let base = net.base_mva;
    for (i, bus) in net.buses().iter().enumerate() {
        p[i] = -bus.pd / base;
        q[i] = -bus.qd / base;
    }
    for g in net.gens().iter().filter(|g| g.status) {
        p[g.bus] += g.pg / base;
        q[g.bus] += g.qg / base;
    }
}

/// Computed injections `(P, Q)` at every bus for the current state.
fn computed_injections(
    ybus: &CMatrix,
    vm: &[f64],
    va: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let n = vm.len();
    let mut p = vec![0.0; n];
    let mut q = vec![0.0; n];
    for i in 0..n {
        let mut pi = 0.0;
        let mut qi = 0.0;
        for j in 0..n {
            let y = ybus[(i, j)];
            if y == Complex64::ZERO {
                continue;
            }
            let theta = va[i] - va[j];
            let (s, c) = theta.sin_cos();
            pi += vm[i] * vm[j] * (y.re * c + y.im * s);
            qi += vm[i] * vm[j] * (y.re * s - y.im * c);
        }
        p[i] = pi;
        q[i] = qi;
    }
    (p, q)
}

/// Solve the AC power flow for `net`.
///
/// # Errors
/// Returns [`FlowError::Diverged`] when the mismatch tolerance is not met
/// within the iteration budget, and [`FlowError::SingularJacobian`] when a
/// Newton step cannot be computed.
pub fn solve_ac(net: &Network, cfg: &AcConfig) -> Result<AcSolution> {
    let _span = pmu_obs::span("flow.solve_ac").with("buses", net.n_buses());
    if !cfg.enforce_q_limits {
        return solve_ac_unconstrained(net, cfg);
    }
    // Outer PV→PQ switching loop (MATPOWER's ENFORCE_Q_LIMS): after each
    // converged solve, the worst reactive-limit violator is pinned at its
    // limit and demoted to PQ, until no violations remain.
    const MAX_ROUNDS: usize = 6;
    let mut work = net.clone();
    for _ in 0..MAX_ROUNDS {
        let sol = solve_ac_unconstrained(&work, cfg)?;
        match worst_q_violation(&work, &sol) {
            None => return Ok(sol),
            Some((bus, pinned_q)) => {
                pmu_obs::events::QLimitPin { bus, q_mvar: pinned_q }.emit();
                // Pin every in-service generator at the bus so their
                // aggregate reactive output equals the violated limit.
                let gen_idx: Vec<usize> = work
                    .gens()
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.status && g.bus == bus)
                    .map(|(i, _)| i)
                    .collect();
                let share = pinned_q / gen_idx.len().max(1) as f64;
                for gi in gen_idx {
                    work.set_gen_q(gi, share)?;
                }
                work.set_bus_type(bus, pmu_grid::BusType::Pq)?;
            }
        }
    }
    solve_ac_unconstrained(&work, cfg)
}

/// The aggregate reactive output (MVAr) each PV bus must supply in the
/// solved state, against its aggregate limits; returns the worst violator
/// as `(bus, limit_to_pin_at)`.
fn worst_q_violation(net: &Network, sol: &AcSolution) -> Option<(usize, f64)> {
    let ybus = pmu_grid::ybus::build_ybus(net);
    let (_, q_calc) = computed_injections(&ybus, &sol.vm, &sol.va);
    let base = net.base_mva;
    let mut worst: Option<(usize, f64, f64)> = None; // (bus, pin, violation)
    for (bus, b) in net.buses().iter().enumerate() {
        if b.bus_type != BusType::Pv {
            continue;
        }
        let gens: Vec<&pmu_grid::Gen> =
            net.gens().iter().filter(|g| g.status && g.bus == bus).collect();
        if gens.is_empty() {
            continue;
        }
        let qmax: f64 = gens.iter().map(|g| g.qmax).sum();
        let qmin: f64 = gens.iter().map(|g| g.qmin).sum();
        // Required generator output = injection + demand.
        let q_gen = q_calc[bus] * base + b.qd;
        let (pin, violation) = if q_gen > qmax {
            (qmax, q_gen - qmax)
        } else if q_gen < qmin {
            (qmin, qmin - q_gen)
        } else {
            continue;
        };
        if worst.map(|(_, _, v)| violation > v).unwrap_or(true) {
            worst = Some((bus, pin, violation));
        }
    }
    worst.map(|(bus, pin, _)| (bus, pin))
}

/// Solve the AC power flow without reactive-limit enforcement.
fn solve_ac_unconstrained(net: &Network, cfg: &AcConfig) -> Result<AcSolution> {
    AcSolver::new(net, cfg).solve(net)
}

/// A reusable Newton–Raphson solver bound to one network *topology*.
///
/// Construction caches everything that depends only on the topology and
/// bus-type assignment: the sparse Y-bus, the unknown index sets, the
/// Jacobian's CSR skeleton with precomputed stamp slots, and the
/// symbolic LU (fill pattern + RCM ordering). [`AcSolver::solve`] then
/// accepts any network with the **same topology** — in practice the same
/// grid with different loads/dispatch, e.g. consecutive OU draws of one
/// (system, outage) scenario window — and only refactors numerics, so
/// the Newton inner loop performs no allocations after warm-up.
///
/// For one-shot solves use [`solve_ac`], which builds a throwaway
/// `AcSolver` internally.
pub struct AcSolver {
    cfg: AcConfig,
    n: usize,
    slack: usize,
    ybus: CsrCMatrix,
    pvpq: Vec<usize>,
    pq: Vec<usize>,
    n_ang: usize,
    dim: usize,
    /// Jacobian CSR skeleton (fixed pattern; values rewritten per
    /// iteration). `None` on the dense path.
    jac: Option<CsrMatrix>,
    /// Per Y-bus nonzero, the flat value slots of its four Jacobian
    /// stamps `[H, N, K, L]` (`usize::MAX` = block absent for this bus
    /// pair), in Y-bus CSR order.
    stamps: Vec<[usize; 4]>,
    /// Symbolic factorization of the Jacobian pattern (sparse path).
    symbolic: Option<SymbolicLu>,
    /// Numeric factors, allocated on first use and refactored in place.
    lu: Option<SparseLu>,
    // Preallocated per-iteration scratch.
    p_calc: Vec<f64>,
    q_calc: Vec<f64>,
    p_spec: Vec<f64>,
    q_spec: Vec<f64>,
    f: Vec<f64>,
    dx: Vec<f64>,
    scratch: Vec<f64>,
    vm: Vec<f64>,
    va: Vec<f64>,
    /// `vm`/`va` hold a converged state from the previous `solve` call
    /// (the warm-start precondition; cleared on entry, set on success).
    warm_ready: bool,
}

impl AcSolver {
    /// Build a solver for `net`'s topology under `cfg`.
    pub fn new(net: &Network, cfg: &AcConfig) -> AcSolver {
        let n = net.n_buses();
        let ybus = pmu_grid::ybus::build_ybus_sparse(net);
        let slack = net.slack();

        // Index sets: angles unknown at PV+PQ, magnitudes unknown at PQ.
        let pvpq: Vec<usize> = (0..n).filter(|&i| i != slack).collect();
        let pq: Vec<usize> =
            (0..n).filter(|&i| net.buses()[i].bus_type == BusType::Pq).collect();
        let n_ang = pvpq.len();
        let dim = n_ang + pq.len();

        let mut ang_pos = vec![usize::MAX; n];
        for (k, &b) in pvpq.iter().enumerate() {
            ang_pos[b] = k;
        }
        let mut mag_pos = vec![usize::MAX; n];
        for (k, &b) in pq.iter().enumerate() {
            mag_pos[b] = k;
        }

        let (jac, stamps, symbolic) = if cfg.linear_solver == LinearSolver::Sparse {
            // Jacobian skeleton: every Y-bus nonzero (i, j) contributes
            // up to four entries, one per block [H N; K L], present when
            // the respective unknowns exist.
            let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(4 * ybus.nnz());
            for i in 0..n {
                let (cols, _) = ybus.row(i);
                for &j in cols {
                    let (api, mpi) = (ang_pos[i], mag_pos[i]);
                    let (apj, mpj) = (ang_pos[j], mag_pos[j]);
                    if api != usize::MAX && apj != usize::MAX {
                        triplets.push((api, apj, 0.0));
                    }
                    if api != usize::MAX && mpj != usize::MAX {
                        triplets.push((api, n_ang + mpj, 0.0));
                    }
                    if mpi != usize::MAX && apj != usize::MAX {
                        triplets.push((n_ang + mpi, apj, 0.0));
                    }
                    if mpi != usize::MAX && mpj != usize::MAX {
                        triplets.push((n_ang + mpi, n_ang + mpj, 0.0));
                    }
                }
            }
            let jac = CsrMatrix::from_triplets(dim, dim, triplets)
                .expect("stamp indices are within the Jacobian dimension");
            let mut stamps = Vec::with_capacity(ybus.nnz());
            for i in 0..n {
                let (cols, _) = ybus.row(i);
                for &j in cols {
                    let (api, mpi) = (ang_pos[i], mag_pos[i]);
                    let (apj, mpj) = (ang_pos[j], mag_pos[j]);
                    let slot = |r: usize, c: usize| -> usize {
                        if r == usize::MAX || c == usize::MAX {
                            return usize::MAX;
                        }
                        jac.position(r, c).expect("stamp was inserted above")
                    };
                    stamps.push([
                        slot(api, apj),
                        slot(api, if mpj == usize::MAX { usize::MAX } else { n_ang + mpj }),
                        slot(if mpi == usize::MAX { usize::MAX } else { n_ang + mpi }, apj),
                        slot(
                            if mpi == usize::MAX { usize::MAX } else { n_ang + mpi },
                            if mpj == usize::MAX { usize::MAX } else { n_ang + mpj },
                        ),
                    ]);
                }
            }
            let symbolic =
                SymbolicLu::analyze(&jac).expect("Jacobian skeleton is square");
            (Some(jac), stamps, Some(symbolic))
        } else {
            (None, Vec::new(), None)
        };

        AcSolver {
            cfg: cfg.clone(),
            n,
            slack,
            ybus,
            pvpq,
            pq,
            n_ang,
            dim,
            jac,
            stamps,
            symbolic,
            lu: None,
            p_calc: vec![0.0; n],
            q_calc: vec![0.0; n],
            p_spec: vec![0.0; n],
            q_spec: vec![0.0; n],
            f: vec![0.0; dim],
            dx: vec![0.0; dim],
            scratch: vec![0.0; dim],
            vm: vec![0.0; n],
            va: vec![0.0; n],
            warm_ready: false,
        }
    }

    /// Injections `(P, Q)` for the current state, over the Y-bus
    /// nonzeros only. Visits the same nonzero contributions in the same
    /// ascending-column order as the dense `computed_injections`, so the
    /// sums are bit-identical.
    fn injections(&mut self) {
        for i in 0..self.n {
            let (cols, yvals) = self.ybus.row(i);
            let mut pi = 0.0;
            let mut qi = 0.0;
            for (&j, &y) in cols.iter().zip(yvals) {
                let theta = self.va[i] - self.va[j];
                let (s, c) = theta.sin_cos();
                pi += self.vm[i] * self.vm[j] * (y.re * c + y.im * s);
                qi += self.vm[i] * self.vm[j] * (y.re * s - y.im * c);
            }
            self.p_calc[i] = pi;
            self.q_calc[i] = qi;
        }
    }

    /// Rewrite the sparse Jacobian's values for the current state.
    fn assemble_sparse(&mut self) {
        let jac = self.jac.as_mut().expect("sparse path");
        let vals = jac.values_mut();
        let mut flat = 0usize;
        for i in 0..self.n {
            let (cols, yvals) = self.ybus.row(i);
            for (&j, &y) in cols.iter().zip(yvals) {
                let st = self.stamps[flat];
                flat += 1;
                if i == j {
                    let (gii, bii) = (y.re, y.im);
                    if st[0] != usize::MAX {
                        vals[st[0]] = -self.q_calc[i] - bii * self.vm[i] * self.vm[i];
                    }
                    if st[1] != usize::MAX {
                        vals[st[1]] = self.p_calc[i] / self.vm[i] + gii * self.vm[i];
                    }
                    if st[2] != usize::MAX {
                        vals[st[2]] = self.p_calc[i] - gii * self.vm[i] * self.vm[i];
                    }
                    if st[3] != usize::MAX {
                        vals[st[3]] = self.q_calc[i] / self.vm[i] - bii * self.vm[i];
                    }
                } else {
                    let theta = self.va[i] - self.va[j];
                    let (s, c) = theta.sin_cos();
                    let gc_bs = y.re * c + y.im * s; // G cosθ + B sinθ
                    let gs_bc = y.re * s - y.im * c; // G sinθ - B cosθ
                    if st[0] != usize::MAX {
                        vals[st[0]] = self.vm[i] * self.vm[j] * gs_bc;
                    }
                    if st[1] != usize::MAX {
                        vals[st[1]] = self.vm[i] * gc_bs;
                    }
                    if st[2] != usize::MAX {
                        vals[st[2]] = -self.vm[i] * self.vm[j] * gc_bs;
                    }
                    if st[3] != usize::MAX {
                        vals[st[3]] = self.vm[i] * gs_bc;
                    }
                }
            }
        }
    }

    /// Assemble the dense Jacobian (reference path; allocates).
    fn assemble_dense(&self) -> Matrix {
        let mut jac = Matrix::zeros(self.dim, self.dim);
        let mut ang_pos = vec![usize::MAX; self.n];
        for (k, &b) in self.pvpq.iter().enumerate() {
            ang_pos[b] = k;
        }
        let mut mag_pos = vec![usize::MAX; self.n];
        for (k, &b) in self.pq.iter().enumerate() {
            mag_pos[b] = k;
        }
        let n_ang = self.n_ang;
        for i in 0..self.n {
            let (cols, yvals) = self.ybus.row(i);
            let (api, mpi) = (ang_pos[i], mag_pos[i]);
            for (&j, &y) in cols.iter().zip(yvals) {
                let (apj, mpj) = (ang_pos[j], mag_pos[j]);
                if i == j {
                    let (gii, bii) = (y.re, y.im);
                    if api != usize::MAX {
                        jac[(api, api)] = -self.q_calc[i] - bii * self.vm[i] * self.vm[i];
                        if mpi != usize::MAX {
                            jac[(api, n_ang + mpi)] =
                                self.p_calc[i] / self.vm[i] + gii * self.vm[i];
                        }
                    }
                    if mpi != usize::MAX {
                        jac[(n_ang + mpi, api)] =
                            self.p_calc[i] - gii * self.vm[i] * self.vm[i];
                        jac[(n_ang + mpi, n_ang + mpi)] =
                            self.q_calc[i] / self.vm[i] - bii * self.vm[i];
                    }
                } else {
                    let theta = self.va[i] - self.va[j];
                    let (s, c) = theta.sin_cos();
                    let gc_bs = y.re * c + y.im * s;
                    let gs_bc = y.re * s - y.im * c;
                    if api != usize::MAX && apj != usize::MAX {
                        jac[(api, apj)] = self.vm[i] * self.vm[j] * gs_bc;
                    }
                    if api != usize::MAX && mpj != usize::MAX {
                        jac[(api, n_ang + mpj)] = self.vm[i] * gc_bs;
                    }
                    if mpi != usize::MAX && apj != usize::MAX {
                        jac[(n_ang + mpi, apj)] = -self.vm[i] * self.vm[j] * gc_bs;
                    }
                    if mpi != usize::MAX && mpj != usize::MAX {
                        jac[(n_ang + mpi, n_ang + mpj)] = self.vm[i] * gs_bc;
                    }
                }
            }
        }
        jac
    }

    /// Compute the Newton step `J dx = f` into `self.dx`.
    fn newton_step(&mut self) -> Result<()> {
        if self.cfg.linear_solver == LinearSolver::Dense {
            let jac = self.assemble_dense();
            let lu = LuFactors::factorize(&jac)?;
            let f = Vector::from(self.f.clone());
            let dx = lu.solve(&f)?;
            self.dx.copy_from_slice(dx.as_slice());
            return Ok(());
        }
        self.assemble_sparse();
        let jac = self.jac.as_ref().expect("sparse path");
        let refactored = match self.lu.as_mut() {
            Some(lu) => lu.refactor(jac),
            None => match self.symbolic.as_ref().expect("sparse path").factorize(jac) {
                Ok(lu) => {
                    self.lu = Some(lu);
                    Ok(())
                }
                Err(e) => Err(e),
            },
        };
        match refactored {
            Ok(()) => {
                let lu = self.lu.as_ref().expect("factorized above");
                lu.solve_with_scratch(&self.f, &mut self.dx, &mut self.scratch)?;
                Ok(())
            }
            Err(pmu_numerics::NumericsError::Singular { .. }) => {
                // No static pivot on the fixed pattern — fall back to
                // the dense pivoted LU for this iteration. Rare (near
                // voltage collapse); the next iteration retries sparse.
                pmu_obs::counter!("flow.sparse_pivot_fallback").inc();
                let jac = self.assemble_dense();
                let lu = LuFactors::factorize(&jac)?;
                let f = Vector::from(self.f.clone());
                let dx = lu.solve(&f)?;
                self.dx.copy_from_slice(dx.as_slice());
                Ok(())
            }
            Err(other) => Err(other.into()),
        }
    }

    /// Solve the power flow for `net`, which must share the topology and
    /// bus-type assignment this solver was built from (same buses,
    /// branches, and statuses; loads and dispatch are free to differ).
    ///
    /// # Errors
    /// As [`solve_ac`]; additionally [`FlowError::Grid`] when `net`'s
    /// size does not match the cached topology.
    pub fn solve(&mut self, net: &Network) -> Result<AcSolution> {
        if net.n_buses() != self.n {
            return Err(FlowError::Grid(format!(
                "AcSolver built for {} buses, got {}",
                self.n,
                net.n_buses()
            )));
        }
        let (tol, max_iter, flat_start) =
            (self.cfg.tol, self.cfg.max_iter, self.cfg.flat_start);
        let warm = self.cfg.warm_start && self.warm_ready;
        // Cleared up front so a diverged solve can never seed the next
        // one with a half-stepped state; re-set on convergence below.
        self.warm_ready = false;
        for (i, b) in net.buses().iter().enumerate() {
            if warm {
                // Keep the previous converged state as the guess, but
                // re-pin what the network specifies: PV/slack magnitude
                // setpoints and the slack angle reference.
                match b.bus_type {
                    BusType::Pq => {}
                    BusType::Pv => self.vm[i] = b.vm,
                    BusType::Slack => {
                        self.vm[i] = b.vm;
                        self.va[i] = b.va.to_radians();
                    }
                }
            } else {
                self.vm[i] =
                    if flat_start && b.bus_type == BusType::Pq { 1.0 } else { b.vm };
                self.va[i] = if flat_start { 0.0 } else { b.va.to_radians() };
            }
        }
        specified_injections_into(net, &mut self.p_spec, &mut self.q_spec);

        let mut mismatch_norm = f64::INFINITY;
        for iter in 0..=max_iter {
            self.injections();

            // Mismatch vector [ΔP_pvpq; ΔQ_pq].
            for (k, &b) in self.pvpq.iter().enumerate() {
                self.f[k] = self.p_spec[b] - self.p_calc[b];
            }
            for (k, &b) in self.pq.iter().enumerate() {
                self.f[self.n_ang + k] = self.q_spec[b] - self.q_calc[b];
            }
            mismatch_norm = self.f.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if mismatch_norm < tol {
                self.warm_ready = true;
                let slack_p = self.p_calc[self.slack];
                pmu_obs::events::NrSolve {
                    buses: self.n,
                    iterations: iter,
                    mismatch: mismatch_norm,
                    converged: true,
                }
                .emit();
                return Ok(AcSolution {
                    vm: self.vm.clone(),
                    va: self.va.clone(),
                    iterations: iter,
                    max_mismatch: mismatch_norm,
                    slack_p,
                });
            }
            if iter == max_iter {
                break;
            }

            self.newton_step()?;
            for (k, &b) in self.pvpq.iter().enumerate() {
                self.va[b] += self.dx[k];
            }
            for (k, &b) in self.pq.iter().enumerate() {
                self.vm[b] += self.dx[self.n_ang + k];
                // Guard against pathological steps through zero voltage.
                if self.vm[b] < 0.1 {
                    self.vm[b] = 0.1;
                }
            }
        }
        pmu_obs::events::NrSolve {
            buses: self.n,
            iterations: self.cfg.max_iter,
            mismatch: mismatch_norm,
            converged: false,
        }
        .emit();
        Err(FlowError::Diverged { iters: self.cfg.max_iter, mismatch: mismatch_norm })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmu_grid::cases::{ieee14, ieee30, ieee57};

    #[test]
    fn two_bus_analytic() {
        // Slack 1.0∠0 feeding a PQ load over x = 0.1 p.u. (lossless).
        // P = (V1 V2 / X) sin(δ). With P_load = 0.5 p.u., V2 solves the
        // classic quadratic; just verify the solver satisfies the equations.
        use pmu_grid::{Branch, Bus, BusType, Network};
        let net = Network::new(
            "two",
            100.0,
            vec![
                Bus { ext_id: 1, bus_type: BusType::Slack, pd: 0.0, qd: 0.0, gs: 0.0, bs: 0.0, base_kv: 135.0, vm: 1.0, va: 0.0 },
                Bus { ext_id: 2, bus_type: BusType::Pq, pd: 50.0, qd: 10.0, gs: 0.0, bs: 0.0, base_kv: 135.0, vm: 1.0, va: 0.0 },
            ],
            vec![Branch { from: 0, to: 1, r: 0.0, x: 0.1, b: 0.0, tap: 1.0, shift: 0.0, rate: 0.0, status: true }],
            vec![],
        )
        .unwrap();
        let sol = solve_ac(&net, &AcConfig::default()).unwrap();
        assert!(sol.max_mismatch < 1e-8);
        // Receiving-end P equals the load.
        let ybus = pmu_grid::ybus::build_ybus(&net);
        let (p, q) = computed_injections(&ybus, &sol.vm, &sol.va);
        assert!((p[1] + 0.5).abs() < 1e-8);
        assert!((q[1] + 0.1).abs() < 1e-8);
        // Slack supplies the load (lossless line ⇒ exactly 0.5).
        assert!((sol.slack_p - 0.5).abs() < 1e-8);
        // Voltage sags below 1, angle lags.
        assert!(sol.vm[1] < 1.0);
        assert!(sol.va[1] < 0.0);
    }

    #[test]
    fn ieee14_converges_to_canonical_state() {
        let net = ieee14().unwrap();
        let sol = solve_ac(&net, &AcConfig::default()).unwrap();
        assert!(sol.max_mismatch < 1e-8);
        assert!(sol.iterations <= 6, "took {} iterations", sol.iterations);
        // Canonical solved state: bus 3 at 1.010 p.u., -12.72°.
        assert!((sol.vm[2] - 1.010).abs() < 1e-3);
        assert!((sol.va[2].to_degrees() + 12.72).abs() < 0.3);
        // Bus 14 around 1.036 p.u., -16.04°.
        assert!((sol.vm[13] - 1.036).abs() < 5e-3);
        assert!((sol.va[13].to_degrees() + 16.04).abs() < 0.5);
        // Slack covers losses: P1 ≈ 2.324 p.u.
        assert!((sol.slack_p - 2.324).abs() < 0.02, "slack {}", sol.slack_p);
    }

    #[test]
    fn ieee14_flat_start_converges() {
        let net = ieee14().unwrap();
        let cfg = AcConfig { flat_start: true, ..AcConfig::default() };
        let sol = solve_ac(&net, &cfg).unwrap();
        let warm = solve_ac(&net, &AcConfig::default()).unwrap();
        for b in 0..14 {
            assert!((sol.vm[b] - warm.vm[b]).abs() < 1e-7);
            assert!((sol.va[b] - warm.va[b]).abs() < 1e-7);
        }
    }

    #[test]
    fn ieee30_and_synthetic_converge() {
        let sol30 = solve_ac(&ieee30().unwrap(), &AcConfig::default()).unwrap();
        assert!(sol30.max_mismatch < 1e-8);
        assert!(sol30.vm.iter().all(|&v| v > 0.9 && v < 1.15));
        let sol57 = solve_ac(&ieee57().unwrap(), &AcConfig::default()).unwrap();
        assert!(sol57.max_mismatch < 1e-8);
        assert!(sol57.vm.iter().all(|&v| v > 0.8 && v < 1.2));
    }

    #[test]
    fn outage_changes_the_solution() {
        let net = ieee14().unwrap();
        let base = solve_ac(&net, &AcConfig::default()).unwrap();
        let idx = net.valid_outage_branches()[0];
        let out_net = net.with_branch_outage(idx).unwrap();
        let out = solve_ac(&out_net, &AcConfig::default()).unwrap();
        let max_delta = (0..14)
            .map(|b| (base.va[b] - out.va[b]).abs())
            .fold(0.0_f64, f64::max);
        assert!(max_delta > 1e-3, "outage must visibly shift angles");
    }

    #[test]
    fn pv_bus_magnitude_is_held() {
        let net = ieee14().unwrap();
        let sol = solve_ac(&net, &AcConfig::default()).unwrap();
        // PV buses keep their setpoints (2:1.045, 3:1.010, 6:1.070, 8:1.090).
        assert!((sol.vm[1] - 1.045).abs() < 1e-9);
        assert!((sol.vm[5] - 1.070).abs() < 1e-9);
        assert!((sol.vm[7] - 1.090).abs() < 1e-9);
    }

    #[test]
    fn divergence_is_reported() {
        // Absurd load forces divergence.
        let mut net = ieee14().unwrap();
        net.set_load(13, 50_000.0, 20_000.0).unwrap();
        match solve_ac(&net, &AcConfig { max_iter: 10, ..AcConfig::default() }) {
            Err(FlowError::Diverged { .. }) | Err(FlowError::SingularJacobian(_)) => {}
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn phasors_match_polar_state() {
        let net = ieee14().unwrap();
        let sol = solve_ac(&net, &AcConfig::default()).unwrap();
        let ph = sol.phasors();
        assert_eq!(ph.len(), 14);
        for b in 0..14 {
            assert!((ph[b].abs() - sol.vm[b]).abs() < 1e-12);
            assert!((ph[b].arg() - sol.va[b]).abs() < 1e-12);
        }
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        for net in [ieee14().unwrap(), ieee30().unwrap(), ieee57().unwrap()] {
            let sparse = solve_ac(
                &net,
                &AcConfig { linear_solver: LinearSolver::Sparse, ..AcConfig::default() },
            )
            .unwrap();
            let dense = solve_ac(
                &net,
                &AcConfig { linear_solver: LinearSolver::Dense, ..AcConfig::default() },
            )
            .unwrap();
            for b in 0..net.n_buses() {
                assert!(
                    (sparse.vm[b] - dense.vm[b]).abs() < 1e-10,
                    "{}: vm[{b}] sparse={} dense={}",
                    net.name,
                    sparse.vm[b],
                    dense.vm[b]
                );
                assert!((sparse.va[b] - dense.va[b]).abs() < 1e-10);
            }
            assert!((sparse.slack_p - dense.slack_p).abs() < 1e-10);
        }
    }

    #[test]
    fn solver_reuse_across_load_changes_matches_fresh_solves() {
        // One AcSolver reused over perturbed loads of a fixed topology —
        // the scenario-simulation access pattern — must match per-step
        // fresh solver construction exactly.
        let base = ieee14().unwrap();
        // Pin the path: tests run concurrently and another test exercises
        // the process-wide default override.
        let cfg =
            AcConfig { linear_solver: LinearSolver::Sparse, ..AcConfig::default() };
        let mut solver = AcSolver::new(&base, &cfg);
        for step in 0..5 {
            let mut net = base.clone();
            let scale = 1.0 + 0.03 * step as f64;
            net.set_load(8, 29.5 * scale, 16.6 * scale).unwrap();
            let reused = solver.solve(&net).unwrap();
            let fresh = solve_ac(&net, &cfg).unwrap();
            for b in 0..net.n_buses() {
                assert_eq!(reused.vm[b], fresh.vm[b], "step {step} bus {b}");
                assert_eq!(reused.va[b], fresh.va[b]);
            }
        }
    }

    #[test]
    fn warm_start_converges_to_the_same_state_in_fewer_iterations() {
        let base = ieee57().unwrap();
        let cold_cfg =
            AcConfig { linear_solver: LinearSolver::Sparse, ..AcConfig::default() };
        let warm_cfg = AcConfig { warm_start: true, ..cold_cfg.clone() };
        let mut cold = AcSolver::new(&base, &cold_cfg);
        let mut warm = AcSolver::new(&base, &warm_cfg);
        let mut cold_iters = 0usize;
        let mut warm_iters = 0usize;
        for step in 0..6 {
            let mut net = base.clone();
            let scale = 1.0 + 0.01 * step as f64;
            net.set_load(7, 40.0 * scale, 10.0 * scale).unwrap();
            let c = cold.solve(&net).unwrap();
            let w = warm.solve(&net).unwrap();
            cold_iters += c.iterations;
            warm_iters += w.iterations;
            // Same root to solver tolerance (the iterates differ, so the
            // states agree to tol, not bit-for-bit).
            for b in 0..net.n_buses() {
                assert!((c.vm[b] - w.vm[b]).abs() < 1e-7, "step {step} bus {b}");
                assert!((c.va[b] - w.va[b]).abs() < 1e-7, "step {step} bus {b}");
            }
            assert!(w.max_mismatch < cold_cfg.tol);
        }
        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} iters should beat cold {cold_iters}"
        );
        // The very first warm solve had no previous state: it must have
        // cold-started (identical to a fresh solver's first solve).
        let mut fresh = AcSolver::new(&base, &warm_cfg);
        let mut net = base.clone();
        net.set_load(7, 40.0, 10.0).unwrap();
        let first = fresh.solve(&net).unwrap();
        let reference = solve_ac(&net, &cold_cfg).unwrap();
        assert_eq!(first.vm, reference.vm);
        assert_eq!(first.va, reference.va);
    }

    #[test]
    fn solver_rejects_mismatched_network_size() {
        let cfg = AcConfig::default();
        let mut solver = AcSolver::new(&ieee14().unwrap(), &cfg);
        match solver.solve(&ieee30().unwrap()) {
            Err(FlowError::Grid(_)) => {}
            other => panic!("expected Grid error, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod q_limit_tests {
    use super::*;
    use pmu_grid::cases::ieee14;

    /// Required aggregate generator Q (MVAr) per bus in a solved state.
    fn gen_q(net: &Network, sol: &AcSolution, bus: usize) -> f64 {
        let ybus = pmu_grid::ybus::build_ybus(net);
        let (_, q_calc) = computed_injections(&ybus, &sol.vm, &sol.va);
        q_calc[bus] * net.base_mva + net.buses()[bus].qd
    }

    /// IEEE-14 with bus 6's generator given an artificially tight Q range,
    /// forcing a violation at the nominal operating point.
    fn tight_case() -> (Network, usize) {
        let net = ieee14().unwrap();
        let mut buses = net.buses().to_vec();
        let branches = net.branches().to_vec();
        let mut gens = net.gens().to_vec();
        // Generator at bus 6 (internal 5): clamp qmax to 2 MVAr (it needs
        // ~12 at nominal conditions).
        let gi = gens.iter().position(|g| g.bus == 5).unwrap();
        gens[gi].qmax = 2.0;
        gens[gi].qmin = -2.0;
        buses[5].vm = net.buses()[5].vm;
        let net2 = Network::new("tight", net.base_mva, buses, branches, gens).unwrap();
        (net2, 5)
    }

    #[test]
    fn without_enforcement_the_limit_is_violated() {
        let (net, bus) = tight_case();
        let sol = solve_ac(&net, &AcConfig::default()).unwrap();
        assert!(gen_q(&net, &sol, bus) > 2.0 + 1e-6, "fixture must violate qmax");
        // PV magnitude held exactly at setpoint.
        assert!((sol.vm[bus] - net.buses()[bus].vm).abs() < 1e-12);
    }

    #[test]
    fn enforcement_pins_q_and_releases_voltage() {
        let (net, bus) = tight_case();
        let cfg = AcConfig { enforce_q_limits: true, ..AcConfig::default() };
        let sol = solve_ac(&net, &cfg).unwrap();
        assert!(sol.max_mismatch < 1e-8);
        // The enforced solution was computed on a modified network where
        // the bus is PQ with Q pinned at the limit; verify the physical
        // outcome on the original network's state: the bus voltage drops
        // below its setpoint (the generator can no longer hold it).
        assert!(
            sol.vm[bus] < net.buses()[bus].vm - 1e-4,
            "voltage should sag: {} vs setpoint {}",
            sol.vm[bus],
            net.buses()[bus].vm
        );
        // And the required Q at the bus equals the pinned limit.
        let mut pinned = net.clone();
        pinned.set_bus_type(bus, BusType::Pq).unwrap();
        let q = gen_q(&pinned, &sol, bus);
        assert!((q - 2.0).abs() < 0.05, "Q pinned near the 2 MVAr limit, got {q}");
    }

    #[test]
    fn enforcement_is_a_noop_when_limits_are_loose() {
        let net = ieee14().unwrap();
        let plain = solve_ac(&net, &AcConfig::default()).unwrap();
        let enforced = solve_ac(
            &net,
            &AcConfig { enforce_q_limits: true, ..AcConfig::default() },
        )
        .unwrap();
        // IEEE-14's canonical limits are (slightly) violated at bus 3 in
        // the exact case data; if no switching occurred the states agree
        // bit-for-bit, otherwise voltages differ only modestly.
        for b in 0..14 {
            assert!((plain.vm[b] - enforced.vm[b]).abs() < 0.05);
        }
    }

    #[test]
    fn slack_is_never_demoted() {
        let mut net = ieee14().unwrap();
        assert!(net.set_bus_type(net.slack(), BusType::Pq).is_err());
        assert!(net.set_bus_type(1, BusType::Slack).is_err());
        assert!(net.set_bus_type(99, BusType::Pq).is_err());
        // Legal change works.
        net.set_bus_type(1, BusType::Pq).unwrap();
        assert_eq!(net.buses()[1].bus_type, BusType::Pq);
    }
}
