//! `ed-ledger`: the repository benchmark.
//!
//! ```text
//! ed-ledger --workload <attack118|atlas|chain6|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures one workload for `--seconds` and prints, as its last
//! stdout line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The line before it is the run's record: seed,
//! commit, thread counts, and the workload's own named figures. See
//! `README.md` in this directory for the workloads and the metric map.

mod atlas;
mod attack118;
mod chain6;
mod gen;
mod harness;
mod layers;
mod loadgen;
mod report;
mod serve_mix;
mod stats;

use harness::{Ctx, Outcome};
use report::{jstr, Metric};

/// The end-to-end metrics every workload reports, with units. Each is the
/// workload's own unit of work: a sweep (attack118), an atlas run (atlas),
/// an hourly re-solve (chain6), a light request at the nominal rate
/// (serve_mix).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The workloads this program runs. `BENCHMARK.json` lists those the
/// regression check repeats; `serve_mix` is runnable but left out of it
/// (see `README.md`).
pub const WORKLOADS: &[&str] = &["attack118", "atlas", "chain6", "serve_mix"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            hw_threads,
        },
    })
}

fn record_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let mut fields = vec![
        format!("\"workload\":{}", jstr(&args.workload)),
        format!("\"seed\":{}", args.ctx.seed),
        format!("\"commit\":{}", jstr(&harness::commit())),
        format!("\"trace\":{}", args.ctx.trace),
        format!("\"seconds\":{}", args.ctx.seconds),
        format!("\"hardware_threads\":{}", args.ctx.hw_threads),
    ];
    for key in harness::PROVENANCE {
        let v = out
            .provenance
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v);
        fields.push(format!("{}:{v}", jstr(key)));
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let mut named = out.named.clone();
    named.push(Metric::new("fail_frac", "ratio", fail_frac));
    fields.push(format!("\"figures\":{}", report::metrics_object(&named)?));
    Ok(format!("{{\"record\":{{{}}}}}", fields.join(",")))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // End-to-end runs keep the recorder off whatever the environment says;
    // traced runs switch it on only around their traced phase.
    ed_obs::set_enabled(false);
    let out = match args.workload.as_str() {
        "attack118" => attack118::run(&args.ctx),
        "atlas" => atlas::run(&args.ctx),
        "chain6" => chain6::run(&args.ctx),
        _ => serve_mix::run(&args.ctx),
    }?;
    if out.attempted == 0 {
        return Err("the workload attempted nothing".into());
    }
    let metrics: Vec<Metric> = if args.ctx.trace {
        layers::complete(&out.layers, args.workload == "serve_mix")
    } else {
        let (_, tail) = stats::tail(&out.op_ms).ok_or("no timed operation")?;
        let values = [
            out.setup_s,
            harness::peak_rss_mb()?,
            stats::median(&out.op_ms).ok_or("no timed operation")?,
            tail,
            out.ops_per_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| Metric::new(*n, u, v))
            .collect()
    };
    println!("{}", record_line(&args, &out)?);
    println!(
        "{}",
        report::result_line(out.attempted, out.failed, &metrics)?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ed-ledger: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names workloads this program
    /// runs and exactly the metrics it prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text = include_str!("../../BENCHMARK.json");
        let v = ed_serve::json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| match v.get(key) {
            Some(ed_serve::json::Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |j: &ed_serve::json::Json, k: &str| {
            j.get(k).and_then(|x| x.as_str()).map(str::to_string)
        };
        let workloads: Vec<String> = list("workloads")
            .iter()
            .filter_map(|w| field(w, "name"))
            .collect();
        assert!(!workloads.is_empty() && workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
        for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", layers::PER_LAYER)] {
            let got: Vec<(String, String)> = list(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name").expect("name"),
                        field(m, "unit").expect("unit"),
                    )
                })
                .collect();
            let want: Vec<(String, String)> = expected
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
            assert!(got
                .iter()
                .all(|(n, u)| report::valid_name(n) && report::valid_unit(u)));
        }
    }

    /// The `serve_mix`-only metrics are valid names, printed nowhere else,
    /// so none of them is in `BENCHMARK.json`.
    #[test]
    fn serve_only_metrics_stay_out_of_the_common_list() {
        for (name, unit) in layers::SERVE_LAYER {
            assert!(
                report::valid_name(name) && report::valid_unit(unit),
                "{name}"
            );
            assert!(!layers::PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}
