//! Differential tests for [`SparseLu`] and [`UpdatableLu`], with dense
//! [`Lu`] as the reference: the sparse factors must solve what the dense
//! ones solve (random sparse matrices and real simplex bases), reject
//! singular inputs, and be a pure function of the matrix; every update
//! path must agree with a from-scratch refactorization of the explicitly
//! updated matrix, and unstable updates must be rejected rather than
//! returning garbage.

use ed_core::attack::kkt::KktModel;
use ed_core::attack::AttackConfig;
use ed_linalg::{LinalgError, Lu, Matrix, SparseLu, UpdatableLu};
use ed_optim::budget::SolveBudget;
use ed_optim::lp::{phase1_basis, BasisStatus, LpProblem, Row, SimplexOptions};
use ed_optim::model::Model;
use ed_powerflow::{LineId, Network};
use ed_rng::{Rng, SeedableRng, StdRng};

/// A diagonally-dominated sparse-ish matrix: off-diagonals are zero with
/// probability ~0.6, so update columns exercise sparse structure.
fn sparse_dominated(n: usize, rng: &mut StdRng) -> Matrix {
    let data: Vec<f64> = (0..n * n)
        .map(|_| if rng.next_f64() < 0.6 { 0.0 } else { rng.gen_range(-1.0..1.0) })
        .collect();
    let mut m = Matrix::from_vec(n, n, data).expect("sized correctly");
    for i in 0..n {
        let d = m[(i, i)];
        m[(i, i)] = d + (n as f64 + 1.0) * d.signum().max(0.5);
    }
    m
}

fn vector(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect()
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}: component {i} differs: {x} vs {y}"
        );
    }
}

/// Column-replacement etas agree with refactorizing the replaced matrix,
/// through a chain of several updates, for both ftran and btran.
#[test]
fn eta_chain_matches_refactorization() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0001);
    for _ in 0..40 {
        let n = 8;
        let mut a = sparse_dominated(n, &mut rng);
        let mut ulu = UpdatableLu::factor(&a).expect("dominated matrix factors");
        for step in 0..4 {
            // Replace column r with a fresh dominated column (strong
            // diagonal keeps the chain nonsingular).
            let r = (rng.next_u64() % n as u64) as usize;
            let mut col = vector(n, &mut rng);
            col[r] += (n as f64 + 1.0) * col[r].signum().max(0.5);
            let w = ulu.solve(&col).expect("ftran of replacement column");
            ulu.replace_column(r, w, 1e-10).expect("well-pivoted eta accepted");
            for i in 0..n {
                a[(i, r)] = col[i];
            }

            let cold = Lu::factor(&a).expect("updated matrix factors");
            let b = vector(n, &mut rng);
            assert_close(
                &ulu.solve(&b).unwrap(),
                &cold.solve(&b).unwrap(),
                1e-9,
                &format!("ftran after {} etas", step + 1),
            );
            assert_close(
                &ulu.solve_transpose(&b).unwrap(),
                &cold.solve_transpose(&b).unwrap(),
                1e-9,
                &format!("btran after {} etas", step + 1),
            );
        }
        assert_eq!(ulu.num_updates(), 4);
    }
}

/// Sherman–Morrison rank-1 updates agree with refactorizing `A + u vᵀ`,
/// including stacked updates and mixed eta/rank-1 sequences.
#[test]
fn rank_one_matches_refactorization() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0002);
    for _ in 0..40 {
        let n = 7;
        let mut a = sparse_dominated(n, &mut rng);
        let mut ulu = UpdatableLu::factor(&a).unwrap();
        for step in 0..3 {
            // Small-magnitude outer product keeps the update far from the
            // singular cone.
            let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.4..0.4)).collect();
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.4..0.4)).collect();
            ulu.rank_one_update(&u, &v).expect("mild rank-1 update accepted");
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] += u[i] * v[j];
                }
            }

            let cold = Lu::factor(&a).unwrap();
            let b = vector(n, &mut rng);
            assert_close(
                &ulu.solve(&b).unwrap(),
                &cold.solve(&b).unwrap(),
                1e-8,
                &format!("ftran after {} rank-1 updates", step + 1),
            );
            assert_close(
                &ulu.solve_transpose(&b).unwrap(),
                &cold.solve_transpose(&b).unwrap(),
                1e-8,
                &format!("btran after {} rank-1 updates", step + 1),
            );
        }
    }
}

/// A mixed sequence (eta, rank-1, eta) still matches the cold refactor.
#[test]
fn mixed_update_sequence_matches_refactorization() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0003);
    for _ in 0..25 {
        let n = 6;
        let mut a = sparse_dominated(n, &mut rng);
        let mut ulu = UpdatableLu::factor(&a).unwrap();

        let r = (rng.next_u64() % n as u64) as usize;
        let mut col = vector(n, &mut rng);
        col[r] += (n as f64 + 1.0) * col[r].signum().max(0.5);
        let w = ulu.solve(&col).unwrap();
        ulu.replace_column(r, w, 1e-10).unwrap();
        for i in 0..n {
            a[(i, r)] = col[i];
        }

        let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.3..0.3)).collect();
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-0.3..0.3)).collect();
        ulu.rank_one_update(&u, &v).unwrap();
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] += u[i] * v[j];
            }
        }

        let cold = Lu::factor(&a).unwrap();
        let b = vector(n, &mut rng);
        assert_close(&ulu.solve(&b).unwrap(), &cold.solve(&b).unwrap(), 1e-8, "mixed ftran");
        assert_close(
            &ulu.solve_transpose(&b).unwrap(),
            &cold.solve_transpose(&b).unwrap(),
            1e-8,
            "mixed btran",
        );
    }
}

/// A rank-1 update that drives the matrix singular (zeroing out one
/// column: `A - (A e_r) e_rᵀ`) must be rejected with `UpdateRejected` and
/// leave the factorization exactly as it was — never return garbage.
#[test]
fn near_singular_rank_one_update_rejected() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0004);
    let n = 6;
    let a = sparse_dominated(n, &mut rng);
    let mut ulu = UpdatableLu::factor(&a).unwrap();
    let b = vector(n, &mut rng);
    let before = ulu.solve(&b).unwrap();

    // u = -A e_r, v = e_r: the update zeroes column r exactly, so the
    // Sherman-Morrison denominator is 1 + e_r' A^{-1} (-A e_r) = 0.
    let r = 2;
    let u: Vec<f64> = (0..n).map(|i| -a[(i, r)]).collect();
    let mut v = vec![0.0; n];
    v[r] = 1.0;
    let err = ulu.rank_one_update(&u, &v).expect_err("singular update must be rejected");
    assert!(
        matches!(err, LinalgError::UpdateRejected { .. }),
        "expected UpdateRejected, got {err:?}"
    );

    // Factorization is untouched: same update count, bit-identical solve.
    assert_eq!(ulu.num_updates(), 0);
    let after = ulu.solve(&b).unwrap();
    assert_eq!(before, after, "rejected update must not perturb the factorization");
}

/// An eta whose pivot entry is (numerically) zero must be rejected: the
/// replacement column is linearly dependent on the other basis columns.
#[test]
fn tiny_pivot_eta_rejected() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0005);
    let n = 5;
    let a = sparse_dominated(n, &mut rng);
    let mut ulu = UpdatableLu::factor(&a).unwrap();

    // Replacing column r with column s (s != r) of A gives an ftran image
    // of e_s, whose entry at row r is exactly zero.
    let (r, s) = (1, 3);
    let col: Vec<f64> = (0..n).map(|i| a[(i, s)]).collect();
    let w = ulu.solve(&col).unwrap();
    let err = ulu.replace_column(r, w, 1e-10).expect_err("zero pivot must be rejected");
    assert!(matches!(err, LinalgError::UpdateRejected { .. }));
    assert_eq!(ulu.num_updates(), 0);
}

/// With an empty update file the wrapper is bit-identical to the base
/// [`SparseLu`] solves.
#[test]
fn empty_update_file_is_bit_identical_to_base_lu() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0006);
    for _ in 0..20 {
        let n = 9;
        let a = sparse_dominated(n, &mut rng);
        let lu = SparseLu::factor(&a).unwrap();
        let ulu = UpdatableLu::factor(&a).unwrap();
        let b = vector(n, &mut rng);
        assert_eq!(lu.solve(&b).unwrap(), ulu.solve(&b).unwrap());
        assert_eq!(lu.solve_transpose(&b).unwrap(), ulu.solve_transpose(&b).unwrap());
    }
}

/// Column lists of a matrix, the layout [`SparseLu::from_columns`] takes.
type Cols = Vec<Vec<(usize, f64)>>;

fn to_dense(n: usize, cols: &Cols) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for (j, c) in cols.iter().enumerate() {
        for &(i, v) in c {
            a[(i, j)] += v;
        }
    }
    a
}

fn sparse_factor(n: usize, cols: &Cols) -> Result<SparseLu, LinalgError> {
    SparseLu::from_columns(n, cols.iter().map(Vec::as_slice))
}

/// Factors `cols` sparse and dense and checks that both solve and
/// transpose-solve agree on a few right-hand sides, relative to the
/// solution's magnitude.
fn assert_matches_dense(n: usize, cols: &Cols, rng: &mut StdRng, tol: f64, what: &str) {
    let a = to_dense(n, cols);
    let dense = Lu::factor(&a).unwrap_or_else(|e| panic!("{what}: dense reference failed: {e}"));
    let sparse = sparse_factor(n, cols).unwrap_or_else(|e| panic!("{what}: sparse failed: {e}"));
    for _ in 0..3 {
        let b = vector(n, rng);
        for (x, y, dir) in [
            (sparse.solve(&b).unwrap(), dense.solve(&b).unwrap(), "solve"),
            (
                sparse.solve_transpose(&b).unwrap(),
                dense.solve_transpose(&b).unwrap(),
                "solve_transpose",
            ),
        ] {
            let scale = 1.0 + y.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            for (i, (u, v)) in x.iter().zip(&y).enumerate() {
                assert!(
                    (u - v).abs() <= tol * scale,
                    "{what} {dir}: component {i} differs: {u} vs {v}"
                );
            }
        }
    }
}

/// A random sparse matrix: a randomly permuted diagonal of magnitude in
/// `[1, 2)` (so it is structurally nonsingular) plus about three
/// off-diagonal entries in `[-1, 1)` per column.
fn random_sparse(n: usize, rng: &mut StdRng) -> Cols {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    (0..n)
        .map(|j| {
            let d = rng.gen_range(1.0..2.0);
            let mut c = vec![(perm[j], if rng.next_f64() < 0.5 { -d } else { d })];
            for _ in 0..3.min(n - 1) {
                let i = (rng.next_u64() % n as u64) as usize;
                if c.iter().all(|e| e.0 != i) {
                    c.push((i, rng.gen_range(-1.0..1.0)));
                }
            }
            c
        })
        .collect()
}

#[test]
fn sparse_lu_matches_dense_on_random_sparse_matrices() {
    let mut rng = StdRng::seed_from_u64(0x5A_0001);
    for n in [1usize, 5, 50, 400] {
        for rep in 0..4 {
            let cols = random_sparse(n, &mut rng);
            assert_matches_dense(n, &cols, &mut rng, 1e-8, &format!("n={n} rep {rep}"));
        }
    }
}

/// The basis matrix a recorded simplex basis stands for: basic structural
/// columns, unit slacks and the signed artificial columns of redundant
/// rows, in the tableau's canonical (ascending) order.
fn basis_columns(lp: &Model) -> Cols {
    let (basis, _) = phase1_basis(lp, &SimplexOptions::default(), &SolveBudget::unlimited())
        .expect("phase 1 solves")
        .expect("no budget");
    let a = lp.to_csc();
    let n = lp.num_vars();
    let mut cols: Cols = Vec::new();
    for (j, st) in basis.statuses.iter().enumerate() {
        if *st == BasisStatus::Basic {
            cols.push(if j < n { a.col(j).collect() } else { vec![(j - n, 1.0)] });
        }
    }
    for &(row, sign) in &basis.art_rows {
        cols.push(vec![(row as usize, f64::from(sign))]);
    }
    assert_eq!(cols.len(), lp.num_rows(), "a basis has one column per row");
    cols
}

fn kkt_lp(net: &Network) -> Model {
    let u_d = net.lines()[0].rating_mva;
    let config =
        AttackConfig::new(vec![LineId(0)]).bounds(0.8 * u_d, 1.6 * u_d).true_ratings(vec![u_d]);
    let mut kkt = KktModel::build(net, &config).expect("KKT model builds");
    kkt.set_flow_objective(LineId(0), 1.0, 1.0);
    kkt.lp.continuous_relaxation()
}

/// The bases the simplex factors most: the phase-1 bases of the attack's
/// KKT LP on `six_bus` and `ieee118_like`.
#[test]
fn sparse_lu_matches_dense_on_kkt_bases() {
    let mut rng = StdRng::seed_from_u64(0x5A_0002);
    for (name, net) in
        [("six_bus", ed_cases::six_bus()), ("ieee118_like", ed_cases::ieee118_like())]
    {
        let lp = kkt_lp(&net);
        let cols = basis_columns(&lp);
        assert_matches_dense(cols.len(), &cols, &mut rng, 1e-8, name);
    }
}

/// The PTDF-form dispatch LP: unit slacks on every flow row plus
/// generator columns that are dense over the flow rows.
#[test]
fn sparse_lu_matches_dense_on_ptdf_dispatch_basis() {
    let net = ed_cases::ieee118_like();
    let ptdf = ed_powerflow::ptdf::Ptdf::compute(&net).expect("connected case");
    let mut lp = LpProblem::minimize();
    let p: Vec<_> = net
        .gens()
        .iter()
        .enumerate()
        .map(|(g, gen)| lp.add_var(gen.pmin_mw, gen.pmax_mw, 1.0 + g as f64 * 0.01))
        .collect();
    let demand: Vec<f64> = net.buses().iter().map(|b| b.demand_mw).collect();
    lp.add_row(p.iter().fold(Row::eq(demand.iter().sum()), |r, &v| r.coef(v, 1.0)));
    for (l, line) in net.lines().iter().enumerate() {
        let base: f64 = demand.iter().enumerate().map(|(b, &d)| ptdf.factor(l, b) * d).sum();
        let h: Vec<f64> = net.gens().iter().map(|g| ptdf.factor(l, g.bus.0)).collect();
        let row = |sign: f64, rhs: f64| {
            h.iter().zip(&p).fold(Row::le(rhs), |r, (&hg, &v)| r.coef(v, sign * hg))
        };
        lp.add_row(row(1.0, line.rating_mva + base));
        lp.add_row(row(-1.0, line.rating_mva - base));
    }
    let cols = basis_columns(&lp);
    let dense_cols = cols.iter().filter(|c| c.len() > 1).count();
    assert!(dense_cols > 0, "the basis holds generator columns");
    let mut rng = StdRng::seed_from_u64(0x5A_0003);
    assert_matches_dense(cols.len(), &cols, &mut rng, 1e-8, "PTDF dispatch basis");
}

/// Structurally singular (an empty column, an empty row, two columns on
/// one row) and numerically singular (a column equal to a sum of others)
/// inputs return `Err`, through both `SparseLu` and `UpdatableLu`.
#[test]
fn singular_inputs_are_rejected() {
    let mut rng = StdRng::seed_from_u64(0x5A_0004);
    let n = 50;
    let base = random_sparse(n, &mut rng);

    let mut empty_col = base.clone();
    empty_col[7].clear();
    let mut empty_row = base.clone();
    for c in &mut empty_row {
        c.retain(|e| e.0 != 11);
    }
    let mut shared_row: Cols = vec![vec![(0, 1.0)]; 2];
    shared_row[0].push((0, 1.0));
    let mut dependent = base.clone();
    let mut sum: Vec<(usize, f64)> = base[3].clone();
    for &(i, v) in &base[9] {
        match sum.iter_mut().find(|e| e.0 == i) {
            Some(e) => e.1 += 2.0 * v,
            None => sum.push((i, 2.0 * v)),
        }
    }
    dependent[20] = sum;

    for (what, n, cols) in [
        ("empty column", n, empty_col),
        ("empty row", n, empty_row),
        ("two columns on one row", 2, shared_row),
        ("dependent column", n, dependent),
    ] {
        let err = sparse_factor(n, &cols).expect_err(what);
        assert!(matches!(err, LinalgError::Singular { .. }), "{what}: {err:?}");
        assert!(
            UpdatableLu::from_columns(n, cols.iter().map(Vec::as_slice)).is_err(),
            "{what}: UpdatableLu accepted it"
        );
        assert!(UpdatableLu::factor(&to_dense(n, &cols)).is_err(), "{what}: dense entry point");
    }
    let mut zeros = Matrix::zeros(3, 3);
    zeros[(0, 0)] = 1.0;
    zeros[(1, 1)] = 1e-300;
    zeros[(2, 2)] = 1.0;
    assert!(SparseLu::factor(&zeros).is_err(), "a pivot below the floor is singular");
}

/// `solve_transpose` solves `Aᵀ x = b`, checked by the residual itself on
/// a nonsymmetric sparse matrix.
#[test]
fn sparse_solve_transpose_has_small_residual() {
    let mut rng = StdRng::seed_from_u64(0x5A_0005);
    let n = 120;
    let cols = random_sparse(n, &mut rng);
    let a = to_dense(n, &cols);
    let lu = sparse_factor(n, &cols).unwrap();
    let b = vector(n, &mut rng);
    let x = lu.solve_transpose(&b).unwrap();
    let r = a.transpose().matvec(&x).unwrap();
    assert_close(&r, &b, 1e-9, "Aᵀx = b");
    let x = lu.solve(&b).unwrap();
    assert_close(&a.matvec(&x).unwrap(), &b, 1e-9, "Ax = b");
}

/// The same matrix always gives the same factors: two factorizations
/// solve bit-identically, which is what lets a warm simplex solve that
/// ends on a canonical basis reproduce the cold answer bit for bit.
#[test]
fn factoring_twice_gives_bit_identical_solves() {
    let mut rng = StdRng::seed_from_u64(0x5A_0006);
    let mut cases: Vec<(String, Cols)> = vec![
        ("random n=400".into(), random_sparse(400, &mut rng)),
        ("six_bus KKT basis".into(), basis_columns(&kkt_lp(&ed_cases::six_bus()))),
    ];
    cases.push(("random n=50".into(), random_sparse(50, &mut rng)));
    for (what, cols) in cases {
        let n = cols.len();
        let (a, b) = (sparse_factor(n, &cols).unwrap(), sparse_factor(n, &cols).unwrap());
        assert_eq!(a.nnz(), b.nnz(), "{what}: fill differs");
        let rhs = vector(n, &mut rng);
        let (xa, xb) = (a.solve(&rhs).unwrap(), b.solve(&rhs).unwrap());
        assert!(xa.iter().zip(&xb).all(|(u, v)| u.to_bits() == v.to_bits()), "{what}: solve");
        let (ya, yb) = (a.solve_transpose(&rhs).unwrap(), b.solve_transpose(&rhs).unwrap());
        assert!(ya.iter().zip(&yb).all(|(u, v)| u.to_bits() == v.to_bits()), "{what}: btran");
    }
}
