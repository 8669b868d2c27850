//! What every workload shares: the run context, the outcome it hands back,
//! set-up timing, the traced region, and provenance.

use crate::report::Metric;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// The thread and worker counts every record line carries.
pub const PROVENANCE: [&str; 5] = [
    "sweep_threads",
    "checker_threads",
    "atlas_threads",
    "serve_workers",
    "client_threads",
];

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

/// Command-line context of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed; every input is drawn from it.
    pub seed: u64,
    /// Measuring time of the run, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// `std::thread::available_parallelism`.
    pub hw_threads: usize,
}

impl Ctx {
    /// Worker threads for the solver pools: two, never above the hardware.
    pub fn threads(&self) -> usize {
        self.hw_threads.clamp(1, 2)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus their checks).
    pub attempted: u64,
    /// Operations that failed, answered wrongly, or were refused.
    pub failed: u64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of each timed operation, ms (untraced).
    pub op_ms: Vec<f64>,
    /// Completed work per second of timed wall.
    pub ops_per_s: f64,
    /// The workload's own named end-to-end figures (record line).
    pub named: Vec<Metric>,
    /// Thread and worker counts used, by name (see [`PROVENANCE`]); a
    /// count the workload does not use is 0.
    pub provenance: Vec<(&'static str, usize)>,
    /// Per-layer values (traced runs).
    pub layers: Layers,
}

impl Outcome {
    /// Counts one attempted operation and whether it failed, logging why.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            eprintln!("ed-ledger: check failed: {why}");
        }
    }
}

/// Set-up timing. The first set-up runs before the timed phase and its
/// state is the one the run uses; the others repeat it between timed
/// operations, spread evenly over the run, so their median samples the
/// host over the same stretch of time as the operations do.
pub struct Setups<F> {
    setup: F,
    walls: Vec<f64>,
    every_s: f64,
    first: Instant,
}

impl<T, F: FnMut() -> Result<T, String>> Setups<F> {
    /// Runs and times the first set-up of a run measuring `seconds`.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn start(mut setup: F, seconds: f64) -> Result<(Setups<F>, T), String> {
        let t = Instant::now();
        let state = setup()?;
        let setups = Setups {
            setup,
            walls: vec![t.elapsed().as_secs_f64()],
            every_s: seconds / SETUP_REPS as f64,
            first: Instant::now(),
        };
        Ok((setups, state))
    }

    fn once(&mut self) -> Result<(), String> {
        let t = Instant::now();
        drop((self.setup)()?);
        self.walls.push(t.elapsed().as_secs_f64());
        Ok(())
    }

    /// Called between two timed operations: runs the set-ups that are due
    /// (the `k`-th one `k` shares of the run after the first), unless the
    /// `ed-obs` recorder is on (a traced phase records only its
    /// operations). Returns the seconds they took, which the caller leaves
    /// out of its measuring time.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn between(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        if !ed_obs::enabled() {
            let due = 1 + (self.first.elapsed().as_secs_f64() / self.every_s) as usize;
            while self.walls.len() < due.min(SETUP_REPS) {
                self.once()?;
            }
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// The median set-up wall, seconds, after topping the set-ups up to
    /// [`SETUP_REPS`].
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn median_s(&mut self) -> Result<f64, String> {
        while self.walls.len() < SETUP_REPS {
            self.once()?;
        }
        Ok(crate::stats::median(&self.walls).expect("at least one set-up"))
    }
}

/// Runs `f` with the `ed-obs` recorder on and returns its result with
/// everything recorded meanwhile. The recorder is off again afterwards.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, ed_obs::TraceReport) {
    ed_obs::set_enabled(true);
    let mark = ed_obs::mark();
    let out = f();
    let report = ed_obs::report_since(&mark);
    ed_obs::set_enabled(false);
    (out, report)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&walls).expect("at least one rep")
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` when the
/// checkout is a repository, else `"unknown"`.
pub fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// A fresh scratch directory inside the checkout's build directory,
/// removed by [`ScratchDir`]'s drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates `.bench_build/ledger-<pid>-<tag>`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let p = PathBuf::from(".bench_build").join(format!("ledger-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("creating {}: {e}", p.display()))?;
        Ok(ScratchDir(p))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
