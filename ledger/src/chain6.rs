//! `chain6`: Algorithm 1 re-solved hour after hour on the six-bus case over
//! a seeded multi-day load profile, closed loop, one caller. Each hour hands
//! its seed basis to the next as the warm basis, so the presolve patch, the
//! factor pool and the basis hand-off are all on the timed path. A day's
//! warm hours are timed back to back, alone; then each is checked against
//! a cold solve of the same hour, computed outside the timed hours.

use crate::gen::{self, Rng, StdRng};
use crate::harness::{ms_since, Ctx, Layers, Outcome, Setups};
use crate::report::Metric;
use ed_core::attack::{optimal_attack, AttackConfig, AttackResult};
use ed_powerflow::{LineId, Network};
use std::time::Instant;

const HOURS_PER_DAY: usize = 24;

/// DLR lines 4 and 8, true ratings `0.9·u`, band `[0.5, 2]·u`, certify and
/// presolve on, heuristic off, one thread; `warm` toggles every warm path.
fn config(net: &Network, factor: f64, warm: bool) -> AttackConfig {
    let dlr = vec![LineId(4), LineId(8)];
    let rating = |l: &LineId| net.lines()[l.0].rating_mva;
    let u_d: Vec<f64> = dlr.iter().map(|l| 0.9 * rating(l)).collect();
    let lo: Vec<f64> = dlr.iter().map(|l| 0.5 * rating(l)).collect();
    let hi: Vec<f64> = dlr.iter().map(|l| 2.0 * rating(l)).collect();
    let demand: Vec<f64> = net.buses().iter().map(|b| b.demand_mw * factor).collect();
    let mut c = AttackConfig::new(dlr)
        .bounds_per_line(lo, hi)
        .true_ratings(u_d)
        .demand(demand);
    c.options.certify = Some(true);
    c.options.presolve = Some(true);
    c.options.threads = Some(1);
    c.options.use_heuristic = false;
    c.options.warm_start = Some(warm);
    c
}

/// The seeded profile: a diurnal curve (nominal demand scaled within
/// `0.9..1.05`), a per-day offset in `±0.005` and per-hour noise in `±0.005`.
struct Profile {
    rng: StdRng,
    day_offset: f64,
    hour: usize,
}

impl Profile {
    fn next(&mut self) -> f64 {
        let h = self.hour % HOURS_PER_DAY;
        if h == 0 {
            self.day_offset = self.rng.gen_range(-0.005..0.005);
        }
        self.hour += 1;
        let diurnal = 0.9 + 0.15 * (std::f64::consts::PI * h as f64 / HOURS_PER_DAY as f64).sin();
        diurnal + self.day_offset + self.rng.gen_range(-0.005..0.005)
    }
}

/// Answer fields that must be bit-identical between warm and cold.
type AnswerBits = (u64, u64, Vec<u64>, Vec<u64>, Option<(usize, i8)>);

fn answer_bits(r: &AttackResult) -> AnswerBits {
    (
        r.ucap_pct.to_bits(),
        r.overload_mw.to_bits(),
        r.ua_mw.iter().map(|v| v.to_bits()).collect(),
        r.dispatch_mw.iter().map(|v| v.to_bits()).collect(),
        r.target.map(|(l, d)| (l.0, d)),
    )
}

fn check_certified(r: &AttackResult) -> Result<(), String> {
    let n = r.subproblems.len();
    if r.sweep.uncertified > 0
        || r.sweep.heuristic_floor > 0
        || r.sweep.certified + r.sweep.cert_repaired != n
    {
        return Err(format!(
            "certified {} repaired {} uncertified {} floors {} of {n}",
            r.sweep.certified, r.sweep.cert_repaired, r.sweep.uncertified, r.sweep.heuristic_floor
        ));
    }
    Ok(())
}

/// Warm answer against the cold solve of the same hour: the answer fields
/// bit for bit; each subproblem's value to the certificate standard
/// (`1e-9` relative), since a warm pivot path may reach the same vertex
/// with last-bit drift in a subproblem that does not win.
fn check_against_cold(warm: &AttackResult, cold: &AttackResult) -> Result<(), String> {
    if answer_bits(warm) != answer_bits(cold) {
        return Err(format!(
            "answer differs from cold: ucap {} vs {}",
            warm.ucap_pct, cold.ucap_pct
        ));
    }
    let close = warm.subproblems.len() == cold.subproblems.len()
        && warm
            .subproblems
            .iter()
            .zip(&cold.subproblems)
            .all(|(w, c)| (w.violation - c.violation).abs() <= 1e-9 * (1.0 + c.violation.abs()));
    if !close {
        return Err("subproblem values differ from cold beyond 1e-9".into());
    }
    Ok(())
}

#[derive(Default)]
struct Phase {
    /// Wall of each warm hour, ms.
    warm_ms: Vec<f64>,
    /// Mean warm hour of each day, ms.
    day_ms: Vec<f64>,
    /// Wall of each cold reference hour, ms.
    cold_ms: Vec<f64>,
    certified: usize,
    subproblems: usize,
}

struct Chain {
    profile: Profile,
    handoff: Option<ed_optim::lp::Basis>,
}

/// One warm hour at load factor `f`, seeded with the previous hour's
/// basis, timed into `walls_ms`; it hands its own seed basis to the next
/// hour.
fn warm_hour(net: &Network, chain: &mut Chain, f: f64, walls_ms: &mut Vec<f64>) -> Solved {
    let mut cfg = config(net, f, true);
    cfg.options.warm_basis = chain.handoff.take();
    let t = Instant::now();
    let r = optimal_attack(net, &cfg);
    walls_ms.push(ms_since(t));
    if let Ok(r) = &r {
        chain.handoff = r.seed_basis.clone();
    }
    r
}

/// Cold references of the hours at load factors `factors`, solved on
/// `threads` threads, each with its wall in ms, in hour order.
fn cold_refs(net: &Network, factors: &[f64], threads: usize) -> Vec<(f64, Solved)> {
    let chunk = factors.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let workers: Vec<_> = factors
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&f| {
                            let t = Instant::now();
                            let r = optimal_attack(net, &config(net, f, false));
                            (ms_since(t), r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("cold reference thread panicked"))
            .collect()
    })
}

/// An hour's answer.
type Solved = Result<AttackResult, ed_core::CoreError>;

/// One warm hour against the cold reference of the same hour.
fn check_hour(warm: &Solved, cold: &Solved, p: &mut Phase) -> Result<(), String> {
    let w = warm
        .as_ref()
        .map_err(|e| format!("warm hour failed: {e}"))?;
    let c = cold
        .as_ref()
        .map_err(|e| format!("cold reference failed: {e}"))?;
    p.certified += w.sweep.certified + w.sweep.cert_repaired;
    p.subproblems += w.subproblems.len();
    check_certified(w)?;
    check_against_cold(w, c)
}

/// Days of warm hours until `seconds` have elapsed. Each day's hours are
/// timed back to back (the recorder on for them when `trace` is set); then,
/// untimed and unrecorded, each is checked against its cold reference,
/// solved on `threads` threads. A day, not an hour, is the unit of work
/// whose wall is reported: on a shared host whole seconds at a time run
/// 50 % slower, and the median of single hours jumps between the two
/// speeds from run to run, while a day's mean hour moves with the share
/// of slow time only.
fn phase(
    net: &Network,
    chain: &mut Chain,
    seconds: f64,
    trace: bool,
    threads: usize,
    setups: &mut Setups<impl FnMut() -> Result<Network, String>>,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut set_up_s = 0.0;
    while p.warm_ms.is_empty() || start.elapsed().as_secs_f64() - set_up_s < seconds {
        set_up_s += setups.between()?;
        let factors: Vec<f64> = (0..HOURS_PER_DAY).map(|_| chain.profile.next()).collect();
        ed_obs::set_enabled(trace);
        let warm: Vec<Solved> = factors
            .iter()
            .map(|&f| warm_hour(net, chain, f, &mut p.warm_ms))
            .collect();
        ed_obs::set_enabled(false);
        let day = &p.warm_ms[p.warm_ms.len() - HOURS_PER_DAY..];
        p.day_ms
            .push(day.iter().sum::<f64>() / HOURS_PER_DAY as f64);
        let cold = cold_refs(net, &factors, threads);
        for ((f, w), (cold_ms, c)) in factors.iter().zip(&warm).zip(&cold) {
            p.cold_ms.push(*cold_ms);
            let verdict = check_hour(w, c, &mut p);
            out.check(verdict.map_err(|e| format!("hour at load factor {f}: {e}")));
        }
    }
    Ok(p)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: case build, shared factors and one untimed cold warm-up hour
    // at a load factor (0.8) below the profile's range.
    let (mut setups, net) = Setups::start(
        || {
            let net = ed_cases::six_bus();
            ed_powerflow::FactorCache::shared(&net).map_err(|e| e.to_string())?;
            optimal_attack(&net, &config(&net, 0.8, false)).map_err(|e| e.to_string())?;
            Ok(net)
        },
        ctx.seconds,
    )?;
    out.provenance = vec![("sweep_threads", 1), ("checker_threads", ctx.threads())];
    let mut chain = Chain {
        profile: Profile {
            rng: gen::stream(ctx.seed, "chain6.profile"),
            day_offset: 0.0,
            hour: 0,
        },
        handoff: None,
    };
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(
        &net,
        &mut chain,
        seconds,
        false,
        ctx.threads(),
        &mut setups,
        &mut out,
    )?;
    let warm_total_s: f64 = plain.warm_ms.iter().sum::<f64>() / 1e3;
    out.ops_per_s = plain.warm_ms.len() as f64 / warm_total_s;
    out.op_ms = plain.day_ms.clone();
    out.named = vec![
        Metric::new(
            "chain_hour_ms",
            "ms",
            crate::stats::median(&plain.day_ms).unwrap_or(0.0),
        ),
        Metric::new("chain_hour_ms.days", "count", plain.day_ms.len() as f64),
        Metric::new("chain_hour_ms.hours", "count", plain.warm_ms.len() as f64),
    ];

    if ctx.trace {
        let mark = ed_obs::mark();
        let tp = phase(
            &net,
            &mut chain,
            seconds,
            true,
            ctx.threads(),
            &mut setups,
            &mut out,
        )?;
        let report = ed_obs::report_since(&mark);
        let mut layers = Layers::new();
        crate::layers::from_trace(&report, tp.warm_ms.len(), &mut layers);
        layers.insert(
            "core.certified_share".into(),
            tp.certified as f64 / tp.subproblems.max(1) as f64,
        );
        let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
        layers.insert(
            "core.warm_cold_ratio".into(),
            median(&plain.warm_ms) / median(&plain.cold_ms),
        );
        let state = crate::serve_mix::detached_state();
        crate::layers::finish(
            ctx.seed,
            &plain.day_ms,
            &tp.day_ms,
            &net,
            &state,
            &mut layers,
            &mut out,
        )?;
        out.layers = layers;
    }
    out.setup_s = setups.median_s()?;
    Ok(out)
}
