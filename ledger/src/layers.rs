//! Per-layer metrics of the traced run: the `ed-obs` counters and timings
//! the program already records, mapped onto per-layer names, plus outside
//! timings of each layer's public calls.

use crate::gen::{self, Rng, StdRng};
use crate::harness::{median_us, Layers, Outcome, ScratchDir};
use crate::serve_mix::{Bodies, CLASSES};
use ed_linalg::{Lu, Matrix, UpdatableLu};
use ed_obs::TraceReport;
use std::hint::black_box;
use std::time::Instant;

/// The per-layer metrics every traced run prints, with units, in output
/// order; a layer the workload does not exercise reads 0. Counts and
/// `ed-obs` times are per timed operation of the traced phase (sweep,
/// atlas run, hour, or request).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.lu_factors", "count"),
    ("linalg.factor_ms", "ms"),
    ("linalg.lu_factor_us.n50", "us"),
    ("linalg.lu_factor_us.n200", "us"),
    ("linalg.lu_factor_us.n800", "us"),
    ("linalg.lu_solve_us.n800", "us"),
    ("linalg.eta_replace_us.n800", "us"),
    ("linalg.lu_factor_gflops_computed.n800", "Gflop/s"),
    ("linalg.lu_solve_gbytes_computed.n800", "GB/s"),
    ("optim.simplex_iterations", "count"),
    ("optim.simplex_ms", "ms"),
    ("optim.simplex_us_per_iter", "us"),
    ("optim.phase1_ms", "ms"),
    ("optim.activeset_solves", "count"),
    ("optim.activeset_iterations", "count"),
    ("optim.activeset_ms", "ms"),
    ("optim.bb_nodes", "count"),
    ("optim.bb_ms", "ms"),
    ("optim.warm_starts", "count"),
    ("optim.cold_restarts", "count"),
    ("optim.warm_fallbacks", "count"),
    ("optim.warm_ratio", "ratio"),
    ("optim.presolve_ms", "ms"),
    ("optim.presolve_patches", "count"),
    ("optim.presolve_patch_rejects", "count"),
    ("optim.patch_ratio", "ratio"),
    ("optim.certify_ms", "ms"),
    ("optim.certify_audits", "count"),
    ("optim.certify_failed", "count"),
    ("powerflow.factor_hits", "count"),
    ("powerflow.factor_misses", "count"),
    ("powerflow.factor_pool_hits", "count"),
    ("powerflow.factor_build_ms", "ms"),
    ("powerflow.ptdf_ms", "ms"),
    ("core.dispatch_ms", "ms"),
    ("core.heuristic_ms", "ms"),
    ("core.kkt_prep_ms", "ms"),
    ("core.heuristic_evaluations", "count"),
    ("core.safety_gate_ms", "ms"),
    ("core.certified_share", "ratio"),
    ("core.pool_hits", "count"),
    ("core.pool_stores", "count"),
    ("core.warm_cold_ratio", "ratio"),
    ("attack.attributed_share", "ratio"),
    ("attack.unattributed_ms", "ms"),
    ("atlas.journal_write_ms", "ms"),
    ("atlas.exact_cells", "count"),
    ("atlas.screen_cells", "count"),
    ("atlas.untestable_cells", "count"),
    ("atlas.retries", "count"),
    ("serve.handler_ms.dispatch118", "ms"),
    ("serve.handler_ms.dispatch6", "ms"),
    ("serve.handler_ms.certify6", "ms"),
    ("serve.handler_ms.sweep3", "ms"),
    ("serve.handler_ms.audit118", "ms"),
    ("serve.json_parse_us.dispatch118", "us"),
    ("serve.json_parse_us.dispatch6", "us"),
    ("serve.json_parse_us.certify6", "us"),
    ("serve.json_parse_us.sweep3", "us"),
    ("serve.json_parse_us.audit118", "us"),
    ("obs.trace_overhead_pct", "%"),
];

/// The per-layer metrics only `serve_mix` measures (transport, queue,
/// service cache, load generator), printed after [`PER_LAYER`] on its
/// traced runs and nowhere else.
pub const SERVE_LAYER: &[(&str, &str)] = &[
    ("serve.transport_queue_ms.dispatch118", "ms"),
    ("serve.transport_queue_ms.dispatch6", "ms"),
    ("serve.transport_queue_ms.certify6", "ms"),
    ("serve.transport_queue_ms.sweep3", "ms"),
    ("serve.transport_queue_ms.audit118", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.sweep_basis_hits", "count"),
    ("serve.refused", "count"),
    ("serve.shed", "count"),
    ("serve.repeat_scenario_share", "ratio"),
    ("serve.dispatch118_p50_ms", "ms"),
    ("serve.dispatch118_tail_ms", "ms"),
    ("loadgen.late_p95_ms", "ms"),
];

fn set(layers: &mut Layers, name: &str, value: f64) {
    debug_assert!(
        PER_LAYER.iter().any(|(n, _)| *n == name),
        "unlisted metric {name}"
    );
    layers.insert(name.to_string(), value);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Maps the recorder's counters and timings over the traced phase onto
/// per-layer names, each divided by the `ops` timed operations.
pub fn from_trace(report: &TraceReport, ops: usize, layers: &mut Layers) {
    let ops = ops.max(1) as f64;
    let c = |name: &str| report.counter(name) as f64;
    let t = |name: &str| report.timing(name).map_or(0.0, |s| s.total_ms);
    let per_op = [
        ("linalg.lu_factors", c("linalg.lu.factors")),
        ("linalg.factor_ms", t("optim.simplex.factor")),
        ("optim.simplex_iterations", c("optim.simplex.iterations")),
        ("optim.simplex_ms", t("optim.simplex")),
        ("optim.phase1_ms", t("optim.simplex.phase1")),
        ("optim.activeset_solves", c("optim.activeset.solves")),
        (
            "optim.activeset_iterations",
            c("optim.activeset.iterations"),
        ),
        ("optim.activeset_ms", t("optim.activeset")),
        ("optim.bb_nodes", c("optim.bb.nodes")),
        ("optim.bb_ms", t("optim.bb")),
        ("optim.warm_starts", c("optim.simplex.warm_starts")),
        ("optim.cold_restarts", c("optim.simplex.cold_restarts")),
        (
            "optim.warm_fallbacks",
            c("optim.simplex.warm_numerical_fallbacks"),
        ),
        (
            "optim.presolve_ms",
            t("optim.presolve") + t("optim.presolve.patch"),
        ),
        ("optim.presolve_patches", c("optim.presolve.patches")),
        (
            "optim.presolve_patch_rejects",
            c("optim.presolve.patch_rejects"),
        ),
        ("optim.certify_ms", t("optim.certify")),
        ("optim.certify_audits", c("optim.certify.audits")),
        ("optim.certify_failed", c("optim.certify.failed")),
        ("powerflow.factor_hits", c("powerflow.factor.hits")),
        ("powerflow.factor_misses", c("powerflow.factor.misses")),
        (
            "powerflow.factor_pool_hits",
            c("powerflow.factor.pool.hits"),
        ),
        ("powerflow.factor_build_ms", t("powerflow.factor.build")),
        ("core.heuristic_ms", t("attack.heuristic")),
        ("core.pool_hits", c("core.pool.hits")),
        ("core.pool_stores", c("core.pool.stores")),
    ];
    for (name, total) in per_op {
        set(layers, name, total / ops);
    }
    set(
        layers,
        "optim.simplex_us_per_iter",
        1e3 * ratio(t("optim.simplex"), c("optim.simplex.iterations")),
    );
    let (warm, cold) = (
        c("optim.simplex.warm_starts"),
        c("optim.simplex.cold_restarts"),
    );
    set(layers, "optim.warm_ratio", ratio(warm, warm + cold));
    let (patches, rejects) = (
        c("optim.presolve.patches"),
        c("optim.presolve.patch_rejects"),
    );
    set(
        layers,
        "optim.patch_ratio",
        ratio(patches, patches + rejects),
    );
}

/// One traced sweep's wall split by the spans the program records inside
/// its `attack.sweep` span: `covered` is the union of the heuristic stage
/// (`attack.heuristic`: active-set dispatches and their phase-1 simplex)
/// and the exact subproblems (`attack.subproblem`: presolved KKT LP,
/// branch-and-bound, certify), overlapping spans on the worker threads
/// counted once; `pre_gap` is the uncovered time before the first
/// subproblem starts, when the fan-out waits for the KKT build, presolve
/// and shared phase-1 seed running beside the heuristic (which carry no
/// span of their own).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSplit {
    /// Sweep wall, ms.
    pub wall: f64,
    /// Wall covered by layer spans, ms.
    pub covered: f64,
    /// Uncovered wall before the fan-out, ms.
    pub pre_gap: f64,
}

/// Splits every traced `attack.sweep` span (see [`SweepSplit`]).
pub fn sweep_splits(report: &TraceReport) -> Vec<SweepSplit> {
    let mut out = Vec::new();
    for sweep in report.spans.iter().filter(|s| s.name == "attack.sweep") {
        let (s0, s1) = (sweep.start_ms, sweep.start_ms + sweep.dur_ms);
        let mut parts: Vec<(f64, f64, bool)> = report
            .spans
            .iter()
            .filter(|s| s.name == "attack.heuristic" || s.name == "attack.subproblem")
            .map(|s| {
                (
                    s.start_ms.max(s0),
                    (s.start_ms + s.dur_ms).min(s1),
                    s.name == "attack.subproblem",
                )
            })
            .filter(|(a, b, _)| b > a)
            .collect();
        parts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let fan_out = parts.iter().filter(|p| p.2).map(|p| p.0).fold(s1, f64::min);
        let (mut covered, mut pre_gap, mut end) = (0.0, 0.0, s0);
        for (a, b, _) in parts {
            if a > end && end < fan_out {
                pre_gap += a.min(fan_out) - end;
            }
            if b > end {
                covered += b - a.max(end);
                end = b;
            }
        }
        out.push(SweepSplit {
            wall: sweep.dur_ms,
            covered,
            pre_gap,
        });
    }
    out
}

/// A diagonally dominant seeded `n × n` matrix (well conditioned, so the
/// factorization never pivots into trouble).
fn dominant(rng: &mut StdRng, n: usize) -> Matrix {
    let mut data: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    for i in 0..n {
        data[i * n + i] = n as f64;
    }
    Matrix::from_vec(n, n, data).expect("n·n entries")
}

/// Outside timings of `Lu::factor`/`solve` and `UpdatableLu::replace_column`
/// on seeded matrices. Flop and byte rates use the textbook operation
/// counts (`2n³/3` for a factorization, `2n²` flops and `8n²` bytes of
/// factor read per solve), labelled `computed`: nothing is counted in
/// hardware.
fn linalg(seed: u64, layers: &mut Layers) -> Result<(), String> {
    let mut rng = gen::stream(seed, "layers.linalg");
    for (n, reps) in [(50usize, 200usize), (200, 30), (800, 5)] {
        let a = dominant(&mut rng, n);
        let us = median_us(reps, || {
            black_box(Lu::factor(black_box(&a)).expect("dominant matrix factors"));
        });
        set(layers, &format!("linalg.lu_factor_us.n{n}"), us);
        if n == 800 {
            let nf = n as f64;
            set(
                layers,
                "linalg.lu_factor_gflops_computed.n800",
                2.0 * nf.powi(3) / 3.0 / (us * 1e3),
            );
            let lu = Lu::factor(&a).map_err(|e| e.to_string())?;
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let solve_us = median_us(30, || {
                black_box(lu.solve(black_box(&b)).expect("factored system solves"));
            });
            set(layers, "linalg.lu_solve_us.n800", solve_us);
            set(
                layers,
                "linalg.lu_solve_gbytes_computed.n800",
                8.0 * nf * nf / (solve_us * 1e3),
            );
            let mut up = UpdatableLu::factor(&a).map_err(|e| e.to_string())?;
            let mut walls = Vec::with_capacity(100);
            for _ in 0..100 {
                let col: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let w = up.solve(&col).map_err(|e| e.to_string())?;
                let r = (0..n)
                    .max_by(|&i, &j| w[i].abs().total_cmp(&w[j].abs()))
                    .unwrap_or(0);
                let t = Instant::now();
                up.replace_column(r, black_box(w), 1e-12)
                    .map_err(|e| e.to_string())?;
                walls.push(t.elapsed().as_secs_f64() * 1e6);
                up.clear_updates();
            }
            set(
                layers,
                "linalg.eta_replace_us.n800",
                crate::stats::median(&walls).unwrap_or(0.0),
            );
        }
    }
    Ok(())
}

/// Outside timings of the power-flow, dispatch, safety-gate and journal
/// layers: `Ptdf::compute` on `net`, `DcOpf::solve` and `SafetyGate::check`
/// on three seeded 118-bus scenarios, and a `Journal::claim` + `result`
/// pair (each fsync'd) on a scratch file.
fn calls(seed: u64, net: &ed_powerflow::Network, layers: &mut Layers) -> Result<(), String> {
    let ptdf_us = median_us(5, || {
        black_box(ed_powerflow::ptdf::Ptdf::compute(black_box(net)).expect("case has a PTDF"));
    });
    set(layers, "powerflow.ptdf_ms", ptdf_us / 1e3);

    let big = ed_cases::ieee118_like();
    let factors = ed_powerflow::FactorCache::shared(&big).map_err(|e| e.to_string())?;
    let gate = ed_core::dispatch::SafetyGate::with_factors(&big, factors);
    let ratings = big.static_ratings_mva();
    let mut rng = gen::stream(seed, "layers.dispatch");
    let (mut dispatch_ms, mut gate_us) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let level = rng.gen_range(0.97..1.03);
        let demand: Vec<f64> = big.buses().iter().map(|b| b.demand_mw * level).collect();
        let t = Instant::now();
        let d = ed_core::dispatch::DcOpf::new(&big)
            .demand(&demand)
            .solve()
            .map_err(|e| format!("118-bus dispatch probe: {e}"))?;
        dispatch_ms.push(crate::harness::ms_since(t));
        gate_us.push(median_us(20, || {
            black_box(gate.check(&demand, &ratings, &d));
        }));
    }
    set(
        layers,
        "core.dispatch_ms",
        crate::stats::median(&dispatch_ms).unwrap_or(0.0),
    );
    set(
        layers,
        "core.safety_gate_ms",
        crate::stats::median(&gate_us).unwrap_or(0.0) / 1e3,
    );

    let dir = ScratchDir::new("journal")?;
    let journal = ed_atlas::Journal::create(&dir.0.join("journal.jsonl"), "ledger", 64)
        .map_err(|e| format!("journal create: {e}"))?;
    let row = "{\"cell\":0,\"case\":\"six_bus\",\"outcome\":\"completed\",\"violation_pct\":0}";
    let mut cell = 0;
    let us = median_us(20, || {
        journal.claim(cell).expect("scratch journal claim");
        journal.result(cell, row).expect("scratch journal result");
        cell += 1;
    });
    set(layers, "atlas.journal_write_ms", us / 1e3);
    Ok(())
}

/// Outside timings of the service layers on seeded request bodies of each
/// class: `json::parse`, and `handlers::handle_work` called directly on
/// `state` with no TCP. Every direct call must answer 200; one that does
/// not counts as a failed operation in `out`.
fn serve(
    seed: u64,
    state: &ed_serve::handlers::AppState,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let bodies = Bodies::new()?;
    let mut rng = gen::stream(seed, "layers.serve");
    for (class, name) in CLASSES.iter().enumerate() {
        let (path, body) = bodies.make(class, &mut rng);
        let parse_us = median_us(50, || {
            black_box(ed_serve::json::parse(black_box(&body)).expect("generated body parses"));
        });
        set(layers, &format!("serve.json_parse_us.{name}"), parse_us);
        let req = ed_serve::http::Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let reps = if class == 0 { 3 } else { 10 };
        let mut answers = Vec::with_capacity(reps);
        let handler_us = median_us(reps, || {
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            answers.push(ed_serve::handlers::handle_work(state, &req, deadline));
        });
        for a in answers {
            out.check(if a.status == 200 {
                Ok(())
            } else {
                Err(format!(
                    "direct {name} handler call answered {}: {}",
                    a.status, a.body
                ))
            });
        }
        set(
            layers,
            &format!("serve.handler_ms.{name}"),
            handler_us / 1e3,
        );
    }
    Ok(())
}

/// What every traced run adds after its traced phase: the tracing
/// overhead (median traced operation over the median untraced one) and the
/// outside timings of the layers' public calls, `net` being the workload's
/// largest network and `state` the handler state to time.
pub fn finish(
    seed: u64,
    plain_ms: &[f64],
    traced_ms: &[f64],
    net: &ed_powerflow::Network,
    state: &ed_serve::handlers::AppState,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let plain = crate::stats::median(plain_ms).unwrap_or(0.0);
    let traced = crate::stats::median(traced_ms).unwrap_or(0.0);
    set(
        layers,
        "obs.trace_overhead_pct",
        100.0 * ratio(traced - plain, plain),
    );
    linalg(seed, layers)?;
    calls(seed, net, layers)?;
    serve(seed, state, layers, out)
}

/// Every [`PER_LAYER`] metric, zero where the workload left it unset,
/// then the [`SERVE_LAYER`] metrics when `serve` is set.
pub fn complete(layers: &Layers, serve: bool) -> Vec<crate::report::Metric> {
    let extra = if serve { SERVE_LAYER } else { &[] };
    PER_LAYER
        .iter()
        .chain(extra)
        .map(|(name, unit)| {
            crate::report::Metric::new(*name, unit, layers.get(*name).copied().unwrap_or(0.0))
        })
        .collect()
}
