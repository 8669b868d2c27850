//! `serve_mix`: an open loop against an in-process `ed-serve` with its
//! production defaults (no chaos). Arrivals follow a seeded schedule at a
//! few fixed offered rates, sent by at most `nproc` client threads with one
//! connection each; every request is timed from when it was due.
//!
//! Classes: every fourth request is the heavy `/dispatch` on the 118-bus
//! case with a seeded load level and DLR-perturbed ratings; the rest are
//! light, drawn evenly from `/dispatch` and `/certify` on six_bus, `/sweep`
//! on three_bus (three recurring scenarios, so the warm cache and the
//! solution pool have something to serve) and `/safety-audit` of a 54-unit
//! 118-bus dispatch.

use crate::gen::{self, Rng, StdRng};
use crate::harness::{Ctx, Layers, Outcome, Setups};
use crate::loadgen::{self, Sample};
use crate::report::Metric;
use crate::stats::{median, percentile, tail};
use ed_serve::handlers::{AppState, ServerConfig};
use ed_serve::json::{self, Json};
use ed_serve::{cache::WarmCache, Server};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;

/// Request classes; index 0 is the heavy class.
pub const CLASSES: [&str; 5] = ["dispatch118", "dispatch6", "certify6", "sweep3", "audit118"];

/// Offered rates (requests/s), the middle one nominal, and the share of
/// the measuring time each gets. Heavy dispatches of one case run one at a
/// time, so the heavy class saturates near 4/s: the top rate (5 heavy/s)
/// overloads the service, the middle one (2 heavy/s) leaves it headroom.
const RATES: [f64; 3] = [4.0, 8.0, 20.0];
const RATE_SHARE: [f64; 3] = [0.1, 0.7, 0.2];
const MID: usize = 1;

/// Limits a rate must meet to count towards `max_rps`.
const LIGHT_P95_LIMIT_MS: f64 = 100.0;
const HEAVY_P90_LIMIT_MS: f64 = 1000.0;
const LATENESS_SLACK_MS: f64 = 50.0;

/// Generates request bodies.
pub struct Bodies {
    net118: ed_powerflow::Network,
    six: ed_powerflow::Network,
    base118_p: Vec<f64>,
}

fn nums(v: &[f64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(","))
}

impl Bodies {
    /// Builds the cases and the base 118-bus dispatch the audits replay.
    ///
    /// # Errors
    ///
    /// The base dispatch fails.
    pub fn new() -> Result<Bodies, String> {
        let net118 = ed_cases::ieee118_like();
        let base = ed_core::dispatch::DcOpf::new(&net118)
            .solve()
            .map_err(|e| e.to_string())?;
        Ok(Bodies {
            net118,
            six: ed_cases::six_bus(),
            base118_p: base.p_mw,
        })
    }

    /// `(path, body)` of a seeded request of class `class`.
    pub fn make(&self, class: usize, rng: &mut StdRng) -> (&'static str, String) {
        let scaled = |net: &ed_powerflow::Network, level: f64| -> Vec<f64> {
            net.buses().iter().map(|b| b.demand_mw * level).collect()
        };
        match class {
            0 => {
                let level = rng.gen_range(0.97..1.03);
                let ratings: Vec<f64> = self
                    .net118
                    .lines()
                    .iter()
                    .map(|l| l.rating_mva * rng.gen_range(1.0..1.15))
                    .collect();
                let body = format!(
                    "{{\"case\":\"ieee118\",\"demand_mw\":{},\"ratings_mw\":{}}}",
                    nums(&scaled(&self.net118, level)),
                    nums(&ratings)
                );
                ("/dispatch", body)
            }
            1 | 2 => {
                let level = rng.gen_range(0.9..1.0);
                let path = if class == 1 { "/dispatch" } else { "/certify" };
                (
                    path,
                    format!(
                        "{{\"case\":\"six_bus\",\"demand_mw\":{}}}",
                        nums(&scaled(&self.six, level))
                    ),
                )
            }
            3 => {
                let lo = [100, 105, 110][rng.gen_range(0..3usize)];
                (
                    "/sweep",
                    format!("{{\"case\":\"three_bus\",\"bounds\":[{lo},200]}}"),
                )
            }
            _ => {
                let level = rng.gen_range(0.97..1.0);
                let p: Vec<f64> = self.base118_p.iter().map(|p| p * level).collect();
                let body = format!(
                    "{{\"case\":\"ieee118\",\"demand_mw\":{},\"p_mw\":{}}}",
                    nums(&scaled(&self.net118, level)),
                    nums(&p)
                );
                ("/safety-audit", body)
            }
        }
    }
}

/// Handler state with production defaults and no listener, for timing
/// `handle_work` directly.
pub fn detached_state() -> AppState {
    AppState {
        cache: WarmCache::new(),
        cfg: ServerConfig::default(),
    }
}

/// The fail-closed contract as a client checks it: a 200, with
/// `safety.passed` on every dispatch, a certified trust label (`certified`
/// or `repaired:<backend>`, both carrying a passing certificate) on every
/// certify, no uncertified subproblem on a sweep, and an audit verdict.
fn check_response(class: usize, response: &Result<(u16, String), String>) -> Result<(), String> {
    let name = CLASSES[class];
    let (status, body) = response
        .as_ref()
        .map_err(|e| format!("{name}: transport: {e}"))?;
    if *status != 200 {
        return Err(format!(
            "{name}: status {status}: {}",
            body.chars().take(160).collect::<String>()
        ));
    }
    let v = json::parse(body).map_err(|e| format!("{name}: unparseable answer: {e}"))?;
    let field = |path: &[&str]| path.iter().try_fold(&v, |j, k| j.get(k));
    let ok = match class {
        0 | 1 => matches!(field(&["safety", "passed"]), Some(Json::Bool(true))),
        2 => field(&["trust"])
            .and_then(Json::as_str)
            .is_some_and(|t| t == "certified" || t.starts_with("repaired:")),
        3 => field(&["sweep", "uncertified"]).and_then(Json::as_u64) == Some(0),
        _ => matches!(field(&["audit", "passed"]), Some(Json::Bool(_))),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{name}: answer breaks the contract: {}",
            body.chars().take(160).collect::<String>()
        ))
    }
}

/// A started server that is shut down (drained and joined) when dropped.
struct Running(Option<Server>);

impl Running {
    fn server(&self) -> &Server {
        self.0.as_ref().expect("server runs until drop")
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(s) = self.0.take() {
            s.shutdown();
        }
    }
}

type Response = Result<(u16, String), String>;

/// One request of a phase.
struct Req {
    class: usize,
    path: &'static str,
    body: String,
}

/// A phase's schedule: `rate` requests/s over `seconds`, every fourth
/// request heavy (so heavy arrivals are spread out, not bunched by chance)
/// and the others a seeded light class.
fn requests(bodies: &Bodies, rng: &mut StdRng, rate: f64, seconds: f64) -> (Vec<f64>, Vec<Req>) {
    let due = loadgen::schedule(rng, rate, seconds);
    let reqs = (0..due.len())
        .map(|i| {
            let class = if i % 4 == 0 {
                0
            } else {
                1 + rng.gen_range(0..4usize)
            };
            let (path, body) = bodies.make(class, rng);
            Req { class, path, body }
        })
        .collect();
    (due, reqs)
}

struct PhaseResult {
    rate: f64,
    samples: Vec<Sample<Response>>,
    classes: Vec<usize>,
    wall_s: f64,
    failed: usize,
}

impl PhaseResult {
    fn latencies(&self, heavy: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| (self.classes[s.index] == 0) == heavy)
            .map(|s| s.latency_ms)
            .collect()
    }

    fn class_latencies(&self, class: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| self.classes[s.index] == class)
            .map(|s| s.latency_ms)
            .collect()
    }

    /// Whether the rate meets every limit: light p95, heavy p90, no
    /// failure, and no growing generator backlog.
    fn meets_limits(&self) -> bool {
        let light_p95 = percentile(&self.latencies(false), 0.95).unwrap_or(f64::INFINITY);
        let heavy_p90 = percentile(&self.latencies(true), 0.90).unwrap_or(0.0);
        light_p95 <= LIGHT_P95_LIMIT_MS
            && heavy_p90 <= HEAVY_P90_LIMIT_MS
            && self.failed == 0
            && !loadgen::lateness_grows(&self.samples, LATENESS_SLACK_MS)
    }

    fn achieved_rps(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }
}

struct Mix<'a> {
    ctx: &'a Ctx,
    bodies: &'a Bodies,
    rng: StdRng,
    seen: BTreeSet<String>,
    repeats: usize,
    requests: usize,
    sweeps: (u64, u64),
}

impl Mix<'_> {
    fn phase(
        &mut self,
        server: &Server,
        rate: f64,
        seconds: f64,
        out: &mut Outcome,
    ) -> PhaseResult {
        let (due, reqs) = requests(self.bodies, &mut self.rng, rate, seconds);
        for r in &reqs {
            self.requests += 1;
            if !self.seen.insert(format!("{}{}", r.path, r.body)) {
                self.repeats += 1;
            }
        }
        let addr = server.addr();
        let (samples, wall_s) = loadgen::run(&due, self.ctx.threads(), |i| {
            ed_serve::chaos::exchange(addr, "POST", reqs[i].path, &[], &reqs[i].body)
        });
        let mut failed = 0;
        for s in &samples {
            let class = reqs[s.index].class;
            let verdict = check_response(class, &s.result);
            if verdict.is_err() {
                failed += 1;
            }
            if class == 3 {
                if let Ok((200, body)) = &s.result {
                    let v = json::parse(body).ok();
                    let get = |k: &[&str]| {
                        v.as_ref()
                            .and_then(|v| k.iter().try_fold(v, |j, k| j.get(k)))
                            .and_then(Json::as_u64)
                    };
                    self.sweeps.0 += get(&["sweep", "certified"]).unwrap_or(0)
                        + get(&["sweep", "cert_repaired"]).unwrap_or(0);
                    self.sweeps.1 += get(&["subproblems"]).unwrap_or(0);
                }
            }
            out.check(verdict.map_err(|e| format!("at {rate} rps, request {}: {e}", s.index)));
        }
        let classes = reqs.iter().map(|r| r.class).collect();
        PhaseResult {
            rate,
            samples,
            classes,
            wall_s,
            failed,
        }
    }
}

fn start_server() -> Result<Running, String> {
    let server = Running(Some(
        Server::start(ServerConfig::default()).map_err(|e| format!("server start: {e}"))?,
    ));
    Ok(server)
}

/// Warm-up: one request of each class on scenarios the timed phases never
/// send (nominal demand and static ratings; a sweep band of 90–200).
fn warm_up(server: &Server, bodies: &Bodies) -> Result<(), String> {
    let addr = server.addr();
    let p = nums(&bodies.base118_p);
    for (class, path, body) in [
        (0, "/dispatch", "{\"case\":\"ieee118\"}".to_string()),
        (1, "/dispatch", "{\"case\":\"six_bus\"}".to_string()),
        (2, "/certify", "{\"case\":\"six_bus\"}".to_string()),
        (
            3,
            "/sweep",
            "{\"case\":\"three_bus\",\"bounds\":[90,200]}".to_string(),
        ),
        (
            4,
            "/safety-audit",
            format!("{{\"case\":\"ieee118\",\"p_mw\":{p}}}"),
        ),
    ] {
        check_response(
            class,
            &ed_serve::chaos::exchange(addr, "POST", path, &[], &body),
        )
        .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

fn counter(c: &std::sync::atomic::AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let bodies = Bodies::new()?;
    // Set-up: server start, per-case warm cache entries and factors, and
    // the warm-up requests.
    let (mut setups, running) = Setups::start(
        || {
            let running = start_server()?;
            warm_up(running.server(), &bodies)?;
            Ok(running)
        },
        ctx.seconds,
    )?;
    out.setup_s = setups.median_s()?;
    let server = running.server();
    out.provenance = vec![
        ("serve_workers", server.state.cfg.workers),
        ("client_threads", ctx.threads()),
    ];
    let mut mix = Mix {
        ctx,
        bodies: &bodies,
        rng: gen::stream(ctx.seed, "serve_mix.requests"),
        seen: BTreeSet::new(),
        repeats: 0,
        requests: 0,
        sweeps: (0, 0),
    };

    if !ctx.trace {
        let phases: Vec<PhaseResult> = RATES
            .iter()
            .zip(RATE_SHARE)
            .map(|(&rate, share)| mix.phase(server, rate, share * ctx.seconds, &mut out))
            .collect();
        let mid = &phases[MID];
        out.op_ms = mid.latencies(false);
        out.ops_per_s = phases
            .iter()
            .rev()
            .find(|p| p.meets_limits())
            .map_or(0.0, PhaseResult::achieved_rps);
        let heavy = mid.latencies(true);
        let (lq, lt) = tail(&out.op_ms).unwrap_or((0.5, 0.0));
        let (hq, ht) = tail(&heavy).unwrap_or((0.5, 0.0));
        out.named = vec![
            Metric::new("light_p50_ms", "ms", median(&out.op_ms).unwrap_or(0.0)),
            Metric::new("light_tail_ms", "ms", lt),
            Metric::new("light_tail_q", "ratio", lq),
            Metric::new("light.samples", "count", out.op_ms.len() as f64),
            Metric::new("dispatch118_p50_ms", "ms", median(&heavy).unwrap_or(0.0)),
            Metric::new("dispatch118_tail_ms", "ms", ht),
            Metric::new("dispatch118_tail_q", "ratio", hq),
            Metric::new("dispatch118.samples", "count", heavy.len() as f64),
            Metric::new("max_rps", "1/s", out.ops_per_s),
        ];
        for p in &phases {
            let r = p.rate;
            out.named.push(Metric::new(
                format!("rate{r}.light_p95_ms"),
                "ms",
                percentile(&p.latencies(false), 0.95).unwrap_or(0.0),
            ));
            out.named.push(Metric::new(
                format!("rate{r}.dispatch118_p90_ms"),
                "ms",
                percentile(&p.latencies(true), 0.90).unwrap_or(0.0),
            ));
            out.named.push(Metric::new(
                format!("rate{r}.achieved_rps"),
                "1/s",
                p.achieved_rps(),
            ));
            out.named.push(Metric::new(
                format!("rate{r}.meets_limits"),
                "bool",
                f64::from(u8::from(p.meets_limits())),
            ));
        }
        return Ok(out);
    }

    // Traced run: the nominal rate untraced, then again traced.
    let half = RATE_SHARE[MID] * ctx.seconds / 2.0;
    let plain = mix.phase(server, RATES[MID], half, &mut out);
    let m = ed_serve::metrics::metrics();
    let before = [
        &m.cache_hits,
        &m.cache_misses,
        &m.sweep_basis_hits,
        &m.refused,
        &m.shed_deadline,
    ]
    .map(counter);
    let (traced_phase, report) =
        crate::harness::traced(|| mix.phase(server, RATES[MID], half, &mut out));
    let after = [
        &m.cache_hits,
        &m.cache_misses,
        &m.sweep_basis_hits,
        &m.refused,
        &m.shed_deadline,
    ]
    .map(counter);
    let n = traced_phase.samples.len();
    let mut layers = Layers::new();
    crate::layers::from_trace(&report, n, &mut layers);
    for (i, name) in [
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.sweep_basis_hits",
        "serve.refused",
        "serve.shed",
    ]
    .iter()
    .enumerate()
    {
        layers.insert((*name).into(), (after[i] - before[i]) / n.max(1) as f64);
    }
    crate::layers::finish(
        ctx.seed,
        &plain.latencies(false),
        &traced_phase.latencies(false),
        &bodies.net118,
        &server.state,
        &mut layers,
        &mut out,
    )?;
    for (class, name) in CLASSES.iter().enumerate() {
        let e2e = median(&plain.class_latencies(class)).unwrap_or(0.0);
        let handler = layers
            .get(&format!("serve.handler_ms.{name}"))
            .copied()
            .unwrap_or(0.0);
        layers.insert(format!("serve.transport_queue_ms.{name}"), e2e - handler);
    }
    let heavy = plain.latencies(true);
    layers.insert(
        "serve.dispatch118_p50_ms".into(),
        median(&heavy).unwrap_or(0.0),
    );
    layers.insert(
        "serve.dispatch118_tail_ms".into(),
        tail(&heavy).map_or(0.0, |t| t.1),
    );
    let late: Vec<f64> = plain.samples.iter().map(|s| s.late_ms).collect();
    layers.insert(
        "loadgen.late_p95_ms".into(),
        percentile(&late, 0.95).unwrap_or(0.0),
    );
    layers.insert(
        "serve.repeat_scenario_share".into(),
        mix.repeats as f64 / mix.requests.max(1) as f64,
    );
    layers.insert(
        "core.certified_share".into(),
        mix.sweeps.0 as f64 / mix.sweeps.1.max(1) as f64,
    );
    out.op_ms = plain.latencies(false);
    out.layers = layers;
    drop(running);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        let bodies = Bodies::new().expect("base dispatch solves");
        let draw = |seed| {
            let (due, reqs) = requests(
                &bodies,
                &mut gen::stream(seed, "serve_mix.requests"),
                8.0,
                3.0,
            );
            let reqs: Vec<(usize, &str, String)> = reqs
                .into_iter()
                .map(|r| (r.class, r.path, r.body))
                .collect();
            (due, reqs)
        };
        let (a, b) = (draw(5), draw(5));
        assert_eq!(a, b);
        assert_ne!(a, draw(6));
        assert_eq!(
            a.1.iter().filter(|r| r.0 == 0).count(),
            6,
            "every fourth of 24 requests is heavy"
        );
    }

    #[test]
    fn contract_violations_are_failures() {
        let ok = |body: &str| Ok((200, body.to_string()));
        assert!(check_response(1, &ok("{\"safety\":{\"passed\":true}}")).is_ok());
        assert!(check_response(1, &ok("{\"safety\":{\"passed\":false}}")).is_err());
        assert!(check_response(2, &ok("{\"trust\":\"repaired:ipm\"}")).is_ok());
        assert!(check_response(2, &ok("{\"trust\":\"uncertified\"}")).is_err());
        assert!(check_response(0, &Ok((503, "{}".to_string()))).is_err());
        assert!(check_response(4, &Err("connect: refused".to_string())).is_err());
    }
}
