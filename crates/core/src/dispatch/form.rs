//! The DC economic-dispatch model, assembled once per formulation.
//!
//! Both formulations build the shared [`Model`] IR directly and solve it
//! through the [`Solver`] trait, so every rung of the dispatch ladder (and
//! the certification path) hands the same model a different solver object
//! without touching the model-building code. The [`Objective`] is the only
//! thing that varies between a QP and an LP dispatch: variables and rows
//! are added in one fixed order with the same coefficients either way.
//!
//! LMPs fall out of the unified dual convention: `Solution::row_duals[i]`
//! is `∂cost/∂rhs_i` in the stated (minimization) sense, so an angle-form
//! balance row's dual *is* the nodal price, and the PTDF form chains the
//! same derivative through the flow rows.

use crate::CoreError;
use ed_optim::budget::{SolveBudget, SolveOutcome};
use ed_optim::lp::{Row, VarId};
use ed_optim::model::{RowId, Solution, Solver};
use ed_optim::Model;
use ed_powerflow::{ptdf::Ptdf, Network};

/// Raw budgeted solver output: the `(generation, nodal price)` vectors, or
/// a typed partial/error.
pub(crate) type BudgetedSolve = Result<SolveOutcome<(Vec<f64>, Vec<f64>)>, CoreError>;

/// The objective of a dispatch model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Objective {
    /// The generators' own cost: linear `b` plus Hessian `2a` when every
    /// cost is strictly convex (a QP), `b` alone otherwise (an LP, exact
    /// for linear costs).
    Own,
    /// Always an LP: when every cost is strictly convex, the marginal cost
    /// linearized at the midpoint of each generator's range,
    /// `b + 2a·(pmin+pmax)/2`; `b` alone otherwise.
    Midpoint,
}

/// `true` when every generator's cost is strictly convex — the dispatch is
/// then a QP with a positive definite Hessian on the generator block.
pub(crate) fn all_strictly_convex(net: &Network) -> bool {
    net.gens().iter().all(|g| g.cost.is_strictly_convex())
}

/// An assembled dispatch model plus the handles needed to read a dispatch
/// back out of its solution: the generator block is `x[..ng]`.
pub(crate) struct DispatchModel {
    /// The assembled model.
    pub model: Model,
    ng: usize,
    prices: Prices,
}

/// How nodal prices are read from a solution's row duals.
enum Prices {
    /// Angle form: the per-bus balance rows, in bus order.
    Balance(Vec<RowId>),
    /// PTDF form: the energy row plus the surviving flow rows per line.
    Ptdf { ptdf: Ptdf, buses: usize, energy: RowId, rows: Vec<(Option<RowId>, Option<RowId>)> },
}

impl DispatchModel {
    /// Solves the model with `solver` under `budget`. A budget trip with a
    /// feasible iterate yields a partial whose `x` is already truncated to
    /// the generator block (a usable `p_mw`); LMPs require duals and are
    /// unavailable on the partial path.
    pub(crate) fn solve(&self, solver: &dyn Solver, budget: &SolveBudget) -> BudgetedSolve {
        Ok(match solver.solve(&self.model, budget)? {
            SolveOutcome::Solved(sol) => SolveOutcome::Solved(self.read(&sol)),
            SolveOutcome::Partial(mut p) => {
                p.x = p.x.map(|x| x[..self.ng].to_vec());
                SolveOutcome::Partial(p)
            }
        })
    }

    /// Reads `(p_mw, lmp)` from a solution of this model.
    pub(crate) fn read(&self, sol: &Solution) -> (Vec<f64>, Vec<f64>) {
        let p_mw = sol.x[..self.ng].to_vec();
        let y = &sol.row_duals;
        let lmp = match &self.prices {
            // LMP_i = ∂cost/∂d_i = the balance row's stated-sense dual.
            Prices::Balance(rows) => rows.iter().map(|r| y[r.index()]).collect(),
            // Each row's rhs depends on d_i through the PTDFs:
            // ∂rhs_energy/∂d_i = 1, ∂rhs_fwd_l/∂d_i = +PTDF[l][i],
            // ∂rhs_bwd_l/∂d_i = −PTDF[l][i]; chain through the row duals.
            Prices::Ptdf { ptdf, buses, energy, rows } => (0..*buses)
                .map(|i| {
                    let mut v = y[energy.index()];
                    for (l, (fwd, bwd)) in rows.iter().enumerate() {
                        let h = ptdf.factor(l, i);
                        if let Some(r) = fwd {
                            v += y[r.index()] * h;
                        }
                        if let Some(r) = bwd {
                            v -= y[r.index()] * h;
                        }
                    }
                    v
                })
                .collect(),
        };
        (p_mw, lmp)
    }
}

/// Adds the generator block: box bounds, the objective's linear
/// coefficients, and (for a QP) the Hessian diagonal `2a`.
fn add_generators(m: &mut Model, net: &Network, objective: Objective) -> Vec<VarId> {
    let convex = all_strictly_convex(net);
    let p_vars: Vec<VarId> = net
        .gens()
        .iter()
        .map(|g| {
            let c = match objective {
                Objective::Midpoint if convex => {
                    g.cost.b + 2.0 * g.cost.a * 0.5 * (g.pmin_mw + g.pmax_mw)
                }
                _ => g.cost.b,
            };
            m.add_var(g.pmin_mw, g.pmax_mw, c)
        })
        .collect();
    if objective == Objective::Own && convex {
        for (&v, g) in p_vars.iter().zip(net.gens()) {
            m.add_quad(v, v, 2.0 * g.cost.a);
        }
    }
    p_vars
}

/// Angle formulation: variables `(p, θ)`, per-bus balance equalities
/// (Eq. 5), reference angle, and flow limits (Eq. 13).
pub(crate) fn angle_model(
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
    objective: Objective,
) -> DispatchModel {
    let base = net.base_mva();
    let mut m = Model::minimize();
    let p_vars = add_generators(&mut m, net, objective);
    let t_vars: Vec<VarId> = (0..net.num_buses())
        .map(|_| m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0))
        .collect();

    // Per-bus balance: Σ_{g@i} p_g − Σ outflow(θ) = d_i  (Eq. 5).
    let mut balance: Vec<Row> = demand_mw.iter().map(|&d| Row::eq(d)).collect();
    for line in net.lines() {
        let w = base * line.susceptance_pu();
        let (f, t) = (line.from.0, line.to.0);
        balance[f] = std::mem::replace(&mut balance[f], Row::eq(0.0))
            .coef(t_vars[f], -w)
            .coef(t_vars[t], w);
        balance[t] = std::mem::replace(&mut balance[t], Row::eq(0.0))
            .coef(t_vars[t], -w)
            .coef(t_vars[f], w);
    }
    for (gi, g) in net.gens().iter().enumerate() {
        let b = g.bus.0;
        balance[b] = std::mem::replace(&mut balance[b], Row::eq(0.0)).coef(p_vars[gi], 1.0);
    }
    let balance_rows: Vec<RowId> = balance.into_iter().map(|r| m.add_row(r)).collect();

    // Reference angle.
    m.add_row(Row::eq(0.0).coef(t_vars[net.slack().0], 1.0));

    // Flow limits |f_l| <= u_l (Eq. 13).
    for (l, line) in net.lines().iter().enumerate() {
        let w = base * line.susceptance_pu();
        let (f, t) = (line.from.0, line.to.0);
        m.add_row(Row::le(ratings_mw[l]).coef(t_vars[f], w).coef(t_vars[t], -w));
        m.add_row(Row::le(ratings_mw[l]).coef(t_vars[f], -w).coef(t_vars[t], w));
    }

    DispatchModel { model: m, ng: net.num_gens(), prices: Prices::Balance(balance_rows) }
}

/// PTDF formulation: variables `p` only, one energy-balance row, and flow
/// rows `f_l = Σ_g PTDF[l][bus(g)] p_g − PTDF[l]·d` in both directions.
///
/// # Errors
///
/// A power-flow error when the PTDF matrix cannot be computed.
pub(crate) fn ptdf_model(
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
    objective: Objective,
) -> Result<DispatchModel, CoreError> {
    let ptdf = Ptdf::compute(net)?;
    let mut m = Model::minimize();
    let p_vars = add_generators(&mut m, net, objective);

    let total_demand: f64 = demand_mw.iter().sum();
    let energy =
        m.add_row(p_vars.iter().fold(Row::eq(total_demand), |r, &v| r.coef(v, 1.0)));

    // Redundant-row elimination: a flow constraint whose worst-case
    // activity over the whole generation box cannot reach its rhs can
    // never bind and is dropped (typically most lines of a large system).
    let mut rows = vec![(None, None); net.num_lines()];
    for (l, (fwd, bwd)) in rows.iter_mut().enumerate() {
        let base_flow: f64 =
            demand_mw.iter().enumerate().map(|(b, &d)| ptdf.factor(l, b) * d).sum();
        let a: Vec<f64> = net.gens().iter().map(|g| ptdf.factor(l, g.bus.0)).collect();
        let max_pos: f64 = a
            .iter()
            .zip(net.gens())
            .map(|(&h, g)| (h * g.pmin_mw).max(h * g.pmax_mw))
            .sum();
        let max_neg: f64 = a
            .iter()
            .zip(net.gens())
            .map(|(&h, g)| (-h * g.pmin_mw).max(-h * g.pmax_mw))
            .sum();
        if max_pos > ratings_mw[l] + base_flow {
            let mut row = Row::le(ratings_mw[l] + base_flow);
            for (gi, &h) in a.iter().enumerate() {
                row = row.coef(p_vars[gi], h);
            }
            *fwd = Some(m.add_row(row));
        }
        if max_neg > ratings_mw[l] - base_flow {
            let mut row = Row::le(ratings_mw[l] - base_flow);
            for (gi, &h) in a.iter().enumerate() {
                row = row.coef(p_vars[gi], -h);
            }
            *bwd = Some(m.add_row(row));
        }
    }

    let prices = Prices::Ptdf { ptdf, buses: net.num_buses(), energy, rows };
    Ok(DispatchModel { model: m, ng: net.num_gens(), prices })
}

#[cfg(test)]
mod tests {
    use crate::dispatch::{DcOpf, Formulation};

    #[test]
    fn quadratic_three_bus_agrees_across_formulations() {
        let net = ed_cases::three_bus_with(&ed_cases::ThreeBusConfig {
            quadratic: true,
            ..Default::default()
        });
        let a = DcOpf::new(&net).formulation(Formulation::Angle).solve().unwrap();
        let b = DcOpf::new(&net).formulation(Formulation::Ptdf).solve().unwrap();
        for (x, y) in a.p_mw.iter().zip(&b.p_mw) {
            assert!((x - y).abs() < 1e-4, "{:?} vs {:?}", a.p_mw, b.p_mw);
        }
        assert!((a.cost - b.cost).abs() < 1e-3);
        for (x, y) in a.lmp.iter().zip(&b.lmp) {
            assert!((x - y).abs() < 1e-3, "lmp {:?} vs {:?}", a.lmp, b.lmp);
        }
    }
}
