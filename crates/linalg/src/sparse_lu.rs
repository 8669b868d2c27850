//! Sparse LU factorization with threshold Markowitz pivoting.
//!
//! [`SparseLu`] factors a square matrix given column by column (the layout
//! the simplex tableau and the model IR already keep) without ever forming
//! the dense matrix. It is the base factorization under
//! [`UpdatableLu`](crate::UpdatableLu), and so under every simplex basis and
//! every shared susceptance factorization.
//!
//! # Pivot rule
//!
//! Three stages:
//!
//! - **Singletons.** Column singletons (no multipliers), then row
//!   singletons that pass the threshold test below (no Schur update). Slack
//!   and artificial columns of a simplex basis are column singletons, so
//!   they cost nothing. Neither kind changes a value, so this stage reads
//!   the packed input in place.
//! - **Threshold Markowitz on the nucleus.** The remaining rows and columns
//!   go into count buckets. Candidates `(i, j)` must satisfy
//!   `|a_ij| ≥ 0.1 · max_k |a_kj|` (stability) and
//!   `|a_ij| ≥ 1e-12 · max(‖A‖∞, 1)` (the dense [`Lu`](crate::Lu)
//!   singularity floor). Among them the smallest Markowitz cost
//!   `(r_i − 1)(c_j − 1)` wins. The search visits columns and rows of
//!   increasing count and stops once no unvisited entry can beat the best
//!   cost, or after four lines. Equal costs go to the smaller column index,
//!   then the smaller row index.
//! - **Dense finish.** Once the active block is at least 30 % full, it is
//!   copied into a dense array and finished with partial pivoting in column
//!   order, the same recurrence as [`Lu`](crate::Lu). A fully dense input
//!   therefore factors like [`Lu`](crate::Lu), without list overhead.
//!
//! Each stage is a pure function of its input, so the same matrix always
//! yields the same factors and the same solves, bit for bit — the
//! property `canonicalize_basis` relies on.
//!
//! A matrix is rejected with [`LinalgError::Singular`] when a row or
//! column empties out or no entry passes both tests; it never yields a
//! garbage solve.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Markowitz stability threshold: a pivot must be at least this fraction
/// of the largest entry in its active column.
const THRESHOLD: f64 = 0.1;
/// Pivot floor relative to `max(‖A‖∞, 1)`, the same test as dense `Lu`.
const PIVOT_TOL: f64 = 1e-12;
/// Rows and columns examined before the pivot search settles for the best
/// candidate found.
const SEARCH_LINES: usize = 4;
/// Active-submatrix density at which elimination switches to dense.
const DENSE_SWITCH: f64 = 0.3;
/// Empty link in the count buckets.
const NONE: usize = usize::MAX;

/// A sparse factorization `A = L·U` in pivot order.
///
/// Pivot `k` sits at row `p_k`, column `q_k` with value `d_k`. Its `L`
/// multipliers (rows pivoted later) and its `U` row (columns pivoted
/// later) are stored in compressed slices. Solves cost
/// `O(nnz(L) + nnz(U) + n)`.
///
/// # Example
///
/// ```
/// use ed_linalg::SparseLu;
///
/// # fn main() -> Result<(), ed_linalg::LinalgError> {
/// // [ 2 0 1 ]
/// // [ 0 3 0 ]
/// // [ 1 0 4 ]
/// let cols: [&[(usize, f64)]; 3] = [&[(0, 2.0), (2, 1.0)], &[(1, 3.0)], &[(0, 1.0), (2, 4.0)]];
/// let lu = SparseLu::from_columns(3, cols)?;
/// let x = lu.solve(&[3.0, 3.0, 5.0])?;
/// assert!(x.iter().all(|v| (v - 1.0).abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// `(p_k, q_k, d_k)` per pivot, in pivot order.
    piv: Vec<(usize, usize, f64)>,
    /// `L` multipliers of pivot `k`: `l[l_ptr[k]..l_ptr[k + 1]]` as
    /// `(row, multiplier)`.
    l_ptr: Vec<usize>,
    l: Vec<(usize, f64)>,
    /// `U` row of pivot `k` without the pivot: `u[u_ptr[k]..u_ptr[k + 1]]`
    /// as `(column, value)`.
    u_ptr: Vec<usize>,
    u: Vec<(usize, f64)>,
}

/// `true` when an entry of magnitude `a` may be a pivot in a column whose
/// largest live entry has magnitude `cmax`: at least the singularity floor
/// and the stability threshold. NaN never qualifies.
fn pivot_ok(a: f64, abs_tol: f64, cmax: f64) -> bool {
    a >= abs_tol && a >= THRESHOLD * cmax
}

/// Items (rows or columns) grouped by their active count, as intrusive
/// doubly linked lists.
struct Buckets {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    count: Vec<usize>,
}

impl Buckets {
    fn new(n: usize) -> Buckets {
        Buckets {
            head: vec![NONE; n + 1],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            count: vec![0; n],
        }
    }

    fn insert(&mut self, x: usize, c: usize) {
        self.count[x] = c;
        self.prev[x] = NONE;
        self.next[x] = self.head[c];
        if self.head[c] != NONE {
            self.prev[self.head[c]] = x;
        }
        self.head[c] = x;
    }

    fn remove(&mut self, x: usize) {
        let (p, nx) = (self.prev[x], self.next[x]);
        if p == NONE {
            self.head[self.count[x]] = nx;
        } else {
            self.next[p] = nx;
        }
        if nx != NONE {
            self.prev[nx] = p;
        }
    }

    fn set(&mut self, x: usize, c: usize) {
        if self.count[x] != c {
            self.remove(x);
            self.insert(x, c);
        }
    }
}

/// Working state of one factorization.
struct Active {
    n: usize,
    abs_tol: f64,
    /// Active entries per column (row, value); eliminated rows removed.
    cols: Vec<Vec<(usize, f64)>>,
    /// Active column pattern per row; eliminated columns removed.
    rows: Vec<Vec<usize>>,
    cb: Buckets,
    rb: Buckets,
    /// Cached `max |a_ij|` per active column; negative when stale.
    col_max: Vec<f64>,
    nnz: usize,
}

impl Active {
    fn col_max(&mut self, j: usize) -> f64 {
        if self.col_max[j] < 0.0 {
            self.col_max[j] = self.cols[j].iter().fold(0.0_f64, |m, &(_, v)| m.max(v.abs()));
        }
        self.col_max[j]
    }

    /// Threshold Markowitz search; `None` when no entry qualifies.
    fn select(&mut self) -> Option<(usize, usize)> {
        // (cost, column, row): lexicographic minimum among visited
        // candidates.
        let mut best: Option<(usize, usize, usize)> = None;
        let mut lines = 0usize;
        let offer = |best: &mut Option<(usize, usize, usize)>, cand: (usize, usize, usize)| {
            if best.is_none_or(|b| cand < b) {
                *best = Some(cand);
            }
        };
        for cnt in 1..=self.n {
            let mut j = self.cb.head[cnt];
            while j != NONE {
                let cmax = self.col_max(j);
                for k in 0..self.cols[j].len() {
                    let (i, v) = self.cols[j][k];
                    if pivot_ok(v.abs(), self.abs_tol, cmax) {
                        offer(&mut best, ((self.rows[i].len() - 1) * (cnt - 1), j, i));
                    }
                }
                lines += 1;
                // Unvisited entries lie in rows and columns of count >= cnt.
                if best.is_some_and(|b| b.0 <= (cnt - 1) * (cnt - 1) || lines >= SEARCH_LINES) {
                    return best.map(|b| (b.2, b.1));
                }
                j = self.cb.next[j];
            }
            let mut i = self.rb.head[cnt];
            while i != NONE {
                for k in 0..self.rows[i].len() {
                    let j = self.rows[i][k];
                    let v = self.cols[j].iter().find(|e| e.0 == i).map_or(0.0, |e| e.1);
                    let cmax = self.col_max(j);
                    if pivot_ok(v.abs(), self.abs_tol, cmax) {
                        offer(&mut best, ((cnt - 1) * (self.cols[j].len() - 1), j, i));
                    }
                }
                lines += 1;
                // Unvisited entries: rows of count >= cnt, columns > cnt.
                if best.is_some_and(|b| b.0 <= (cnt - 1) * cnt || lines >= SEARCH_LINES) {
                    return best.map(|b| (b.2, b.1));
                }
                i = self.rb.next[i];
            }
        }
        best.map(|b| (b.2, b.1))
    }
}

/// The input matrix in flat column (CSC) and row (CSR) form, duplicates
/// summed and zeros dropped. The singleton stage reads it without changing
/// any value: its pivots leave the Schur complement untouched.
struct Input {
    col_ptr: Vec<usize>,
    col: Vec<(usize, f64)>,
    row_ptr: Vec<usize>,
    row: Vec<(usize, f64)>,
}

impl Input {
    fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.col[self.col_ptr[j]..self.col_ptr[j + 1]]
    }

    fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.row[self.row_ptr[i]..self.row_ptr[i + 1]]
    }
}

impl SparseLu {
    /// Factors the `n × n` matrix whose `j`-th column holds the `(row,
    /// value)` entries yielded `j`-th. Duplicate rows within a column are
    /// summed and zeros dropped; entries may come in any order.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::ShapeMismatch`] when the iterator does not yield
    ///   exactly `n` columns or an entry's row is `>= n`.
    /// - [`LinalgError::Singular`] when the matrix is structurally or
    ///   numerically singular (no pivot passes the tests above).
    pub fn from_columns<'a, I>(n: usize, columns: I) -> Result<SparseLu, LinalgError>
    where
        I: IntoIterator<Item = &'a [(usize, f64)]>,
    {
        ed_obs::counter("linalg.lu.factors", 1);
        let shape_err = |found: String| LinalgError::ShapeMismatch {
            expected: format!("{n} columns with rows < {n}"),
            found,
        };
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut col: Vec<(usize, f64)> = Vec::new();
        // Row -> position markers, only needed (and allocated) for a
        // column whose rows are not strictly increasing.
        let mut at: Vec<usize> = Vec::new();
        col_ptr.push(0);
        for c in columns {
            let j = col_ptr.len() - 1;
            if j >= n {
                return Err(shape_err(format!("more than {n} columns")));
            }
            if let Some(&(i, _)) = c.iter().find(|e| e.0 >= n) {
                return Err(shape_err(format!("row {i} in column {j}")));
            }
            if c.windows(2).all(|w| w[0].0 < w[1].0) {
                col.extend(c.iter().filter(|e| e.1 != 0.0));
            } else {
                if at.is_empty() {
                    at = vec![NONE; n];
                }
                let start = col.len();
                for &(i, v) in c {
                    if at[i] == NONE {
                        at[i] = col.len();
                        col.push((i, v));
                    } else {
                        col[at[i]].1 += v;
                    }
                }
                // Reset the markers and squeeze out zeros in one pass.
                let mut keep = start;
                for e in start..col.len() {
                    at[col[e].0] = NONE;
                    if col[e].1 != 0.0 {
                        col[keep] = col[e];
                        keep += 1;
                    }
                }
                col.truncate(keep);
            }
            col_ptr.push(col.len());
        }
        if col_ptr.len() != n + 1 {
            return Err(shape_err(format!("{} columns", col_ptr.len() - 1)));
        }
        // Row form, each row in ascending column order: count, prefix-sum
        // to row ends, then fill backwards.
        let mut row_ptr = vec![0usize; n + 1];
        for &(i, _) in &col {
            row_ptr[i] += 1;
        }
        for i in 1..n {
            row_ptr[i] += row_ptr[i - 1];
        }
        row_ptr[n] = col.len();
        let mut row = vec![(0usize, 0.0); col.len()];
        for j in (0..n).rev() {
            for &(i, v) in col[col_ptr[j]..col_ptr[j + 1]].iter().rev() {
                row_ptr[i] -= 1;
                row[row_ptr[i]] = (j, v);
            }
        }
        let input = Input { col_ptr, col, row_ptr, row };
        let scale = (0..n)
            .map(|i| input.row(i).iter().map(|e| e.1.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
            .max(1.0);
        Self::eliminate(n, &input, PIVOT_TOL * scale)
    }

    /// Factors a dense square matrix (its nonzeros, column by column).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for a rectangular matrix, otherwise as
    /// [`SparseLu::from_columns`].
    pub fn factor(a: &Matrix) -> Result<SparseLu, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| (0..n).map(|i| (i, a[(i, j)])).filter(|&(_, v)| v != 0.0).collect())
            .collect();
        SparseLu::from_columns(n, cols.iter().map(Vec::as_slice))
    }

    /// Closes pivot `(p, q, d)`; its `L` and `U` entries were pushed since
    /// the previous pivot closed.
    fn close_pivot(&mut self, p: usize, q: usize, d: f64) {
        self.piv.push((p, q, d));
        self.l_ptr.push(self.l.len());
        self.u_ptr.push(self.u.len());
    }

    fn singular(&self) -> LinalgError {
        LinalgError::Singular { column: self.piv.len() }
    }

    fn eliminate(n: usize, a: &Input, abs_tol: f64) -> Result<SparseLu, LinalgError> {
        let mut out = SparseLu {
            n,
            piv: Vec::with_capacity(n),
            l_ptr: Vec::with_capacity(n + 1),
            l: Vec::new(),
            u_ptr: Vec::with_capacity(n + 1),
            u: Vec::with_capacity(a.col.len()),
        };
        out.l_ptr.push(0);
        out.u_ptr.push(0);

        // Singleton stage. `cc[j]` / `rc[i]` count live entries of a column
        // / row, `NONE` once it is pivoted. A column singleton pivot removes
        // its row (other columns lose an entry); a row singleton pivot
        // removes its column (other rows lose one). Neither changes a
        // value, so the input stays valid for the nucleus.
        let mut cc: Vec<usize> = (0..n).map(|j| a.col(j).len()).collect();
        let mut rc: Vec<usize> = (0..n).map(|i| a.row(i).len()).collect();
        if cc.contains(&0) || rc.contains(&0) {
            return Err(out.singular());
        }
        let mut stack: Vec<usize> = (0..n).rev().filter(|&j| cc[j] == 1).collect();
        while let Some(j) = stack.pop() {
            if cc[j] != 1 {
                continue;
            }
            let &(i, v) = a.col(j).iter().find(|e| rc[e.0] != NONE).expect("one live row");
            // The only live entry is its column's largest.
            if !pivot_ok(v.abs(), abs_tol, v.abs()) {
                return Err(out.singular());
            }
            rc[i] = NONE;
            cc[j] = NONE;
            for &(jj, w) in a.row(i) {
                if cc[jj] != NONE {
                    out.u.push((jj, w));
                    cc[jj] -= 1;
                    match cc[jj] {
                        0 => return Err(out.singular()),
                        1 => stack.push(jj),
                        _ => {}
                    }
                }
            }
            out.close_pivot(i, j, v);
        }
        stack.extend((0..n).rev().filter(|&i| rc[i] == 1));
        while let Some(i) = stack.pop() {
            if rc[i] != 1 {
                continue;
            }
            let &(j, v) = a.row(i).iter().find(|e| cc[e.0] != NONE).expect("one live column");
            let cmax =
                a.col(j).iter().filter(|e| rc[e.0] != NONE).fold(0.0_f64, |m, e| m.max(e.1.abs()));
            if !pivot_ok(v.abs(), abs_tol, cmax) {
                // Unstable multipliers: leave it to the nucleus search.
                continue;
            }
            rc[i] = NONE;
            cc[j] = NONE;
            for &(k, w) in a.col(j) {
                if rc[k] != NONE {
                    out.l.push((k, w / v));
                    rc[k] -= 1;
                    match rc[k] {
                        0 => return Err(out.singular()),
                        1 => stack.push(k),
                        _ => {}
                    }
                }
            }
            out.close_pivot(i, j, v);
        }
        if out.piv.len() == n {
            return Ok(out);
        }

        // Nucleus: the untouched input restricted to the live rows and
        // columns, finished dense right away when it is dense enough.
        let live_rows: Vec<usize> = (0..n).filter(|&i| rc[i] != NONE).collect();
        let live_cols: Vec<usize> = (0..n).filter(|&j| cc[j] != NONE).collect();
        let rem = live_cols.len();
        let nnz: usize = live_cols.iter().map(|&j| cc[j]).sum();
        if nnz as f64 >= DENSE_SWITCH * (rem * rem) as f64 {
            out.finish_dense(abs_tol, &live_rows, &live_cols, |slot, d| {
                for (b, &j) in live_cols.iter().enumerate() {
                    for &(i, v) in a.col(j) {
                        if slot[i] != NONE {
                            d[slot[i] * rem + b] = v;
                        }
                    }
                }
            })?;
            return Ok(out);
        }
        let mut act = Active {
            n,
            abs_tol,
            cols: vec![Vec::new(); n],
            rows: vec![Vec::new(); n],
            cb: Buckets::new(n),
            rb: Buckets::new(n),
            col_max: vec![-1.0; n],
            nnz,
        };
        for &j in &live_cols {
            let c: Vec<(usize, f64)> =
                a.col(j).iter().copied().filter(|e| rc[e.0] != NONE).collect();
            for &(i, _) in &c {
                act.rows[i].push(j);
            }
            act.cols[j] = c;
        }
        // Insert in descending index order so each bucket lists ascending
        // indices initially.
        for &j in live_cols.iter().rev() {
            act.cb.insert(j, act.cols[j].len());
        }
        for &i in live_rows.iter().rev() {
            act.rb.insert(i, act.rows[i].len());
        }
        out.markowitz(&mut act)?;
        Ok(out)
    }

    /// Threshold Markowitz elimination of the nucleus, switching to dense
    /// once the active block is dense enough.
    fn markowitz(&mut self, act: &mut Active) -> Result<(), LinalgError> {
        let n = act.n;
        let mut pos = vec![NONE; n];
        let mut lbuf: Vec<(usize, f64)> = Vec::new();
        let mut ubuf: Vec<(usize, f64)> = Vec::new();
        while self.piv.len() < n {
            let rem = n - self.piv.len();
            if act.nnz as f64 >= DENSE_SWITCH * (rem * rem) as f64 {
                let live_rows: Vec<usize> = (0..n).filter(|&i| !act.rows[i].is_empty()).collect();
                let live_cols: Vec<usize> = (0..n).filter(|&j| !act.cols[j].is_empty()).collect();
                return self.finish_dense(act.abs_tol, &live_rows, &live_cols, |slot, d| {
                    for (b, &j) in live_cols.iter().enumerate() {
                        for &(i, v) in &act.cols[j] {
                            d[slot[i] * rem + b] = v;
                        }
                    }
                });
            }
            let (p, q) = act.select().ok_or_else(|| self.singular())?;
            let col_q = std::mem::take(&mut act.cols[q]);
            let d = col_q.iter().find(|e| e.0 == p).map_or(0.0, |e| e.1);
            lbuf.clear();
            for &(i, v) in &col_q {
                if i != p {
                    lbuf.push((i, v / d));
                    let r = &mut act.rows[i];
                    let at = r.iter().position(|&j| j == q).expect("pattern mirrors values");
                    r.swap_remove(at);
                }
            }
            let row_p = std::mem::take(&mut act.rows[p]);
            ubuf.clear();
            for &j in &row_p {
                if j != q {
                    let c = &mut act.cols[j];
                    let at = c.iter().position(|e| e.0 == p).expect("pattern mirrors values");
                    ubuf.push((j, c.swap_remove(at).1));
                }
            }
            act.nnz -= col_q.len() + ubuf.len();
            act.cb.remove(q);
            act.rb.remove(p);

            // Schur complement: column j -= u_pj · l.
            for &(j, u) in &ubuf {
                let c = &mut act.cols[j];
                for (at, &(i, _)) in c.iter().enumerate() {
                    pos[i] = at;
                }
                for &(i, l) in &lbuf {
                    if pos[i] == NONE {
                        c.push((i, -(l * u)));
                        act.rows[i].push(j);
                        act.nnz += 1;
                    } else {
                        c[pos[i]].1 -= l * u;
                    }
                }
                for &(i, _) in c.iter() {
                    pos[i] = NONE;
                }
                act.col_max[j] = -1.0;
                if c.is_empty() {
                    return Err(self.singular());
                }
                let len = c.len();
                act.cb.set(j, len);
            }
            for &(i, _) in &lbuf {
                if act.rows[i].is_empty() {
                    return Err(self.singular());
                }
                let len = act.rows[i].len();
                act.rb.set(i, len);
            }
            self.l.extend_from_slice(&lbuf);
            self.u.extend_from_slice(&ubuf);
            self.close_pivot(p, q, d);
        }
        Ok(())
    }

    /// Finishes the live block as a dense matrix with partial pivoting in
    /// ascending column order — the same recurrence as dense
    /// [`Lu`](crate::Lu). `fill` writes column `live_cols[b]`'s entry in
    /// row `i` to `d[slot[i] · m + b]`, skipping rows whose slot is `NONE`.
    fn finish_dense(
        &mut self,
        abs_tol: f64,
        live_rows: &[usize],
        live_cols: &[usize],
        fill: impl FnOnce(&[usize], &mut [f64]),
    ) -> Result<(), LinalgError> {
        let m = live_cols.len();
        if live_rows.len() != m || m != self.n - self.piv.len() {
            return Err(self.singular());
        }
        let mut slot = vec![NONE; self.n];
        for (a, &i) in live_rows.iter().enumerate() {
            slot[i] = a;
        }
        let mut d = vec![0.0; m * m];
        fill(&slot, &mut d);
        let mut order: Vec<usize> = (0..m).collect();
        for t in 0..m {
            let mut best = t;
            let mut best_abs = d[order[t] * m + t].abs();
            for s in (t + 1)..m {
                let v = d[order[s] * m + t].abs();
                if v > best_abs {
                    best_abs = v;
                    best = s;
                }
            }
            if !pivot_ok(best_abs, abs_tol, best_abs) {
                return Err(self.singular());
            }
            order.swap(t, best);
            let pr = order[t];
            let piv = d[pr * m + t];
            for c in (t + 1)..m {
                let v = d[pr * m + c];
                if v != 0.0 {
                    self.u.push((live_cols[c], v));
                }
            }
            for &r in &order[t + 1..] {
                let f = d[r * m + t] / piv;
                if f != 0.0 {
                    self.l.push((live_rows[r], f));
                    for c in (t + 1)..m {
                        d[r * m + c] -= f * d[pr * m + c];
                    }
                }
            }
            self.close_pivot(live_rows[pr], live_cols[t], piv);
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored nonzeros of `L` and `U`, pivots included.
    pub fn nnz(&self) -> usize {
        self.n + self.l.len() + self.u.len()
    }

    fn check_len(&self, b: &[f64]) -> Result<(), LinalgError> {
        if b.len() == self.n {
            Ok(())
        } else {
            Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {}", self.n),
                found: format!("length {}", b.len()),
            })
        }
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_len(b)?;
        // y = L⁻¹ b, indexed by row.
        let mut y = b.to_vec();
        for (k, &(p, _, _)) in self.piv.iter().enumerate() {
            let t = y[p];
            if t != 0.0 {
                for &(i, l) in &self.l[self.l_ptr[k]..self.l_ptr[k + 1]] {
                    y[i] -= l * t;
                }
            }
        }
        // U x = y in reverse pivot order, x indexed by column.
        let mut x = vec![0.0; self.n];
        for (k, &(p, q, d)) in self.piv.iter().enumerate().rev() {
            let mut s = y[p];
            for &(j, u) in &self.u[self.u_ptr[k]..self.u_ptr[k + 1]] {
                s -= u * x[j];
            }
            x[q] = s / d;
        }
        Ok(x)
    }

    /// Solves `Aᵀ x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_len(b)?;
        // Uᵀ z = b in pivot order (b indexed by column, z by row).
        let mut c = b.to_vec();
        let mut z = vec![0.0; self.n];
        for (k, &(p, q, d)) in self.piv.iter().enumerate() {
            let t = c[q] / d;
            z[p] = t;
            if t != 0.0 {
                for &(j, u) in &self.u[self.u_ptr[k]..self.u_ptr[k + 1]] {
                    c[j] -= u * t;
                }
            }
        }
        // x = L⁻ᵀ z: transposed eliminations in reverse pivot order.
        for (k, &(p, _, _)) in self.piv.iter().enumerate().rev() {
            let mut s = z[p];
            for &(i, l) in &self.l[self.l_ptr[k]..self.l_ptr[k + 1]] {
                s -= l * z[i];
            }
            z[p] = s;
        }
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(rows: &[&[f64]]) -> Vec<Vec<(usize, f64)>> {
        let n = rows.len();
        (0..n).map(|j| (0..n).map(|i| (i, rows[i][j])).filter(|e| e.1 != 0.0).collect()).collect()
    }

    #[test]
    fn permuted_identity_needs_no_arithmetic() {
        let cols = dense_cols(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0], &[4.0, 0.0, 0.0]]);
        let lu = SparseLu::from_columns(3, cols.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(lu.nnz(), 3);
        assert_eq!(lu.solve(&[1.0, 2.0, 4.0]).unwrap(), vec![1.0, 1.0, 1.0]);
        assert_eq!(lu.solve_transpose(&[4.0, 1.0, 2.0]).unwrap(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let cols: [&[(usize, f64)]; 2] = [&[(0, 1.0), (0, 1.0), (1, 1.0)], &[(1, 3.0)]];
        let lu = SparseLu::from_columns(2, cols).unwrap();
        // [2 0; 1 3] x = [2, 4] -> x = [1, 1].
        let x = lu.solve(&[2.0, 4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15 && (x[1] - 1.0).abs() < 1e-15, "{x:?}");
    }

    #[test]
    fn empty_column_and_row_are_singular() {
        let cols: [&[(usize, f64)]; 2] = [&[(0, 1.0), (1, 1.0)], &[]];
        assert!(matches!(SparseLu::from_columns(2, cols), Err(LinalgError::Singular { .. })));
        let cols: [&[(usize, f64)]; 2] = [&[(0, 1.0)], &[(0, 1.0)]];
        assert!(matches!(SparseLu::from_columns(2, cols), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn shape_errors() {
        let cols: [&[(usize, f64)]; 1] = [&[(3, 1.0)]];
        assert!(matches!(SparseLu::from_columns(1, cols), Err(LinalgError::ShapeMismatch { .. })));
        let cols: [&[(usize, f64)]; 1] = [&[(0, 1.0)]];
        assert!(matches!(SparseLu::from_columns(2, cols), Err(LinalgError::ShapeMismatch { .. })));
        assert!(matches!(
            SparseLu::factor(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
