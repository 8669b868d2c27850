//! `atlas`: `ed_atlas::run_atlas` over three_bus and six_bus, 24 hours,
//! `ed_k 2`, one contingency, exact tier. Every timed run journals into a
//! fresh scratch directory and starts with an empty solution pool, as a
//! fresh `ed-atlas` process does; each run's permissible band is drawn
//! from the seed, so every cell of every run is a distinct scenario.

use crate::gen::{self, Rng, StdRng};
use crate::harness::{ms_since, traced, Ctx, Layers, Outcome, ScratchDir, Setups};
use crate::report::Metric;
use ed_atlas::cell::{execute_cell, CellInput};
use ed_atlas::{run_atlas, AtlasOptions, AtlasReport, AtlasSpec, CaseGrid, RowKind, Tier};
use std::time::Instant;

fn spec(band: (f64, f64)) -> AtlasSpec {
    AtlasSpec {
        cases: vec!["three_bus".into(), "six_bus".into()],
        hours: 24,
        ed_k: 2,
        contingencies: 1,
        tier: Tier::Exact,
        band,
        ..AtlasSpec::default()
    }
}

/// Cells the spec enumerates: per case, `ed_k` singletons plus the pair,
/// times (intact + 1 outage), times 24 hours.
const CELLS: usize = 2 * 3 * 2 * 24;

fn check_report(r: &AtlasReport) -> Result<(), String> {
    if r.rows.len() != CELLS {
        return Err(format!("{} rows for {CELLS} cells", r.rows.len()));
    }
    if let Some((i, row)) = r.rows.iter().enumerate().find(|(i, row)| row.cell != *i) {
        return Err(format!("silent hole: row {i} holds cell {}", row.cell));
    }
    if r.quarantined() > 0 {
        return Err(format!("{} cells quarantined", r.quarantined()));
    }
    Ok(())
}

#[derive(Default)]
struct Phase {
    walls_ms: Vec<f64>,
    cells: usize,
    exact: usize,
    screen: usize,
    untestable: usize,
    retries: u64,
}

fn phase(
    ctx: &Ctx,
    rng: &mut StdRng,
    seconds: f64,
    setups: &mut Setups<impl FnMut() -> Result<(), String>>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut set_up_s = 0.0;
    while p.walls_ms.is_empty() || start.elapsed().as_secs_f64() - set_up_s < seconds {
        set_up_s += setups.between()?;
        let band = (
            0.75 + rng.gen_range(-0.02..0.02),
            1.25 + rng.gen_range(-0.02..0.02),
        );
        let dir = ScratchDir::new("atlas")?;
        let mut opts = AtlasOptions::new(spec(band), dir.0.join("journal.jsonl"));
        opts.threads = ctx.threads();
        ed_core::pool::SolutionPool::global().clear();
        let t = Instant::now();
        let r = run_atlas(&opts);
        p.walls_ms.push(ms_since(t));
        match r {
            Ok(r) => {
                out.check(check_report(&r).map_err(|e| format!("atlas with band {band:?}: {e}")));
                p.cells += r.rows.len();
                p.exact += r
                    .rows
                    .iter()
                    .filter(|x| x.tier == Some(Tier::Exact))
                    .count();
                p.screen += r
                    .rows
                    .iter()
                    .filter(|x| x.tier == Some(Tier::Screen))
                    .count();
                p.untestable += r
                    .rows
                    .iter()
                    .filter(|x| x.kind == RowKind::Untestable)
                    .count();
                p.retries += r.rows.iter().map(|x| u64::from(x.retries)).sum::<u64>();
            }
            Err(e) => out.check(Err(format!("atlas with band {band:?}: {e}"))),
        }
    }
    Ok(p)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: both cases' grids (case build, base dispatch, scenarios) and
    // an untimed warm-up: the 24 hours of three_bus's first E_D subset,
    // intact, on a band (0.7, 1.3) no timed run uses. It writes no journal,
    // so fsync latency stays out of `setup_s`.
    let (mut setups, ()) = Setups::start(
        || {
            let warm = spec((0.7, 1.3));
            let grids = warm
                .cases
                .iter()
                .map(|case| CaseGrid::build(case, &warm))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("atlas grid: {e}"))?;
            let g = &grids[0];
            for step in g.scenarios[0].steps() {
                let input = CellInput {
                    net: &g.net,
                    subset: &g.ed_subsets[0],
                    outage: None,
                    step,
                    static_ratings: &g.static_ratings,
                    band: warm.band,
                    node_limit: warm.node_limit,
                    warm: None,
                };
                execute_cell(&input, Tier::Exact).map_err(|e| format!("warm-up cell: {e:?}"))?;
            }
            Ok(())
        },
        ctx.seconds,
    )?;
    out.provenance = vec![("atlas_threads", ctx.threads())];
    let mut rng = gen::stream(ctx.seed, "atlas.band");
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(ctx, &mut rng, seconds, &mut setups, &mut out)?;
    let total_s = plain.walls_ms.iter().sum::<f64>() / 1e3;
    out.ops_per_s = plain.cells as f64 / total_s;
    out.op_ms = plain.walls_ms.clone();
    out.named = vec![
        Metric::new("atlas_cells_per_s", "1/s", out.ops_per_s),
        Metric::new("atlas_runs", "count", plain.walls_ms.len() as f64),
    ];
    if ctx.trace {
        let (tp, report) = traced(|| phase(ctx, &mut rng, seconds, &mut setups, &mut out));
        let tp = tp?;
        let mut layers = Layers::new();
        let runs = tp.walls_ms.len().max(1) as f64;
        crate::layers::from_trace(&report, tp.walls_ms.len(), &mut layers);
        layers.insert("atlas.exact_cells".into(), tp.exact as f64 / runs);
        layers.insert("atlas.screen_cells".into(), tp.screen as f64 / runs);
        layers.insert("atlas.untestable_cells".into(), tp.untestable as f64 / runs);
        layers.insert("atlas.retries".into(), tp.retries as f64 / runs);
        let state = crate::serve_mix::detached_state();
        let six = ed_cases::six_bus();
        crate::layers::finish(
            ctx.seed,
            &plain.walls_ms,
            &tp.walls_ms,
            &six,
            &state,
            &mut layers,
            &mut out,
        )?;
        out.layers = layers;
    }
    out.setup_s = setups.median_s()?;
    Ok(out)
}
