//! End-to-end and per-layer benchmark of the mobile-collectors workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]
//! ```
//!
//! Each workload runs in its own process with a fixed worker-thread
//! count. All inputs come from `--seed`; the program only receives them.
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, timed by spans this
//! benchmark opens around the program's public calls. Every run also
//! writes a record (host readings, metrics and, when traced, the spans)
//! to `DIR/<workload>-seed<n>-trace<t>.json`.

mod flat;
mod gen;
mod hier;
mod host;
mod stats;
mod trace;

use stats::{median, num, percentile, Metrics};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use trace::{json_object, Tracer};

/// The paper's transmission range, metres.
pub const RANGE: f64 = 30.0;

/// Ops per run: `seconds` at the workload's nominal rate on the
/// reference host, but never fewer than 100 so that p90 has ten samples
/// beyond it. A fixed count (not a deadline) gives every run of a seed
/// the same work and the same final plan.
pub fn op_count(seconds: u64, nominal_per_s: f64) -> usize {
    ((seconds as f64 * nominal_per_s).round() as usize).max(100)
}

/// Every per-layer metric with its unit, in print order. A workload
/// that never calls a layer reports 0 for it.
pub const LAYERS: &[(&str, &str)] = &[
    ("net.build_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("cover.cache_probes", "count"),
    ("cover.reevals", "count"),
    ("tour.moves", "count"),
    ("core.hier_build_s", "s"),
    ("core.hier_delta_ms", "ms"),
    ("core.validate_live_ms", "ms"),
    ("core.dirty_tiles", "count"),
    ("core.replanned_stop_share", "ratio"),
    ("serve.session.deaths_ms", "ms"),
    ("serve.session.growth_ms", "ms"),
    ("net.rebuild_ms", "ms"),
    ("cover.instance_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("par.busy_ratio", "ratio"),
    ("obs.allocs_per_op", "count"),
    ("obs.alloc_mib_per_op", "MiB"),
    ("trace.overhead_ms", "ms"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Run {
    pub threads: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub errors: Vec<String>,
    pub e2e: Metrics,
    /// Per-layer values set so far; see [`LAYERS`].
    pub layers: Vec<(&'static str, f64)>,
    /// Host readings and other recorded-only figures.
    pub notes: Vec<(&'static str, f64)>,
    pub tracer: Option<Tracer>,
    /// Every op's latency, in op order, and (churn) its delta kind.
    pub op_latency_ms: Vec<f64>,
    pub op_kinds: Vec<&'static str>,
    /// Seconds of each set-up, the run's own first.
    pub setup_reps_s: Vec<f64>,
}

/// Inputs to the end-to-end metrics every workload reports.
pub struct OpPhase {
    /// Seconds of each set-up, the run's own first.
    pub setup_s: Vec<f64>,
    /// Per-op latency in ms; a failed op is `INFINITY` (it misses any
    /// latency limit).
    pub latency_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
    pub tour_km: f64,
    pub peak_rss_mib: f64,
}

impl Run {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.push((name, value));
    }

    /// The per-layer metrics in [`LAYERS`] order.
    pub fn layer_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in LAYERS {
            let v = self.layers.iter().rev().find(|(n, _)| *n == name);
            m.add(name, v.map_or(0.0, |l| l.1), unit);
        }
        m
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.errors.push(msg);
        }
    }

    /// Fills the end-to-end metrics and the op phase's host readings.
    pub fn finish_ops(&mut self, p: &OpPhase) {
        self.op_latency_ms = p.latency_ms.clone();
        self.setup_reps_s = p.setup_s.clone();
        let mut sorted = p.latency_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let done = sorted.iter().filter(|v| v.is_finite()).count();
        self.attempted = sorted.len() as u64;
        self.failed = (sorted.len() - done) as u64;
        let m = &mut self.e2e;
        m.add("setup_s", median(&p.setup_s), "s");
        for (name, q) in [("op_p50_ms", 0.5), ("op_p90_ms", 0.9)] {
            match percentile(&sorted, q) {
                Some(v) => m.add(name, v, "ms"),
                None => {
                    let msg = format!("{name}: fewer than 10 of {} ops beyond it", sorted.len());
                    self.errors.push(msg);
                }
            }
        }
        let m = &mut self.e2e;
        m.add("ops_per_s", done as f64 / p.wall_s, "1/s");
        m.add("tour_km", p.tour_km, "km");
        m.add("peak_rss_mib", p.peak_rss_mib, "MiB");
        m.add("ok_ops_share", done as f64 / sorted.len() as f64, "ratio");
        self.layer("par.busy_ratio", p.cpu_s / p.wall_s);
        self.notes.extend([
            ("op_phase_wall_s", p.wall_s),
            ("op_phase_cpu_s", p.cpu_s),
            ("op_phase_steal_s", p.steal_s),
        ]);
    }
}

/// One invocation's arguments and its start time.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    out_dir: String,
    /// Run only the set-up and print its seconds (see [`child_setups`]).
    setup_only: bool,
    pub start: Instant,
}

fn parse_args(start: Instant) -> Result<Ctx, String> {
    let mut c = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out_dir: "perfbench/out".into(),
        setup_only: false,
        start,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {v}: {e}");
        let flag01 = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} takes 0 or 1, got {v}")),
        };
        match flag.as_str() {
            "--workload" => c.workload = v,
            "--seed" => c.seed = v.parse().map_err(bad)?,
            "--seconds" => c.seconds = v.parse().map_err(bad)?,
            "--trace" => c.trace = flag01(&v)?,
            "--setup-only" => c.setup_only = flag01(&v)?,
            "--out-dir" => c.out_dir = v,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if c.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(c)
}

/// Whether a set-up repetition runs before op `i` of `ops`, so that
/// `reps` set-ups in all — the run's own plus `reps - 1` repetitions —
/// are spread evenly over the op phase. The host's speed changes within
/// seconds, so repetitions in a row would all meet the same host state.
pub fn setup_due(i: usize, ops: usize, reps: usize) -> bool {
    i > 0 && i * reps / ops != (i - 1) * reps / ops
}

/// One set-up repetition, in a fresh process of this binary, so that it
/// starts from process start and does not inflate the run's peak RSS.
/// Returns its seconds and the time it kept the op phase paused.
pub fn child_setup(ctx: &Ctx) -> Result<(f64, Duration), String> {
    let t = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(&exe)
        .args(["--workload", &ctx.workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--setup-only", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().strip_prefix("setup_s ").map(str::parse::<f64>) {
        Some(Ok(s)) if out.status.success() => Ok((s, t.elapsed())),
        _ => Err(format!("set-up child failed: {}: {text}", out.status)),
    }
}

/// A workload's full run and its set-up alone.
type Workload = (
    fn(&Ctx) -> Result<Run, String>,
    fn(&Ctx) -> Result<f64, String>,
);

fn main() {
    let start = Instant::now();
    let steal0 = host::steal_seconds();
    let ctx = match parse_args(start) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (run, setup_only): Workload = match ctx.workload.as_str() {
        "plan_flat_2k" => (flat::run, flat::setup_only),
        "churn_hier_300k" => (hier::run, hier::setup_only),
        w => {
            eprintln!("perfbench: unknown workload {w:?} (plan_flat_2k, churn_hier_300k)");
            std::process::exit(2);
        }
    };
    if ctx.setup_only {
        match setup_only(&ctx) {
            Ok(s) => println!("setup_s {s:?}"),
            Err(e) => {
                eprintln!("perfbench: {} set-up: {e}", ctx.workload);
                std::process::exit(1);
            }
        }
        return;
    }
    let mut run = match run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    run.notes.extend([
        ("threads", run.threads as f64),
        (
            "available_parallelism",
            host::available_parallelism() as f64,
        ),
        ("run_steal_s", host::steal_seconds() - steal0),
        ("run_cpu_s", host::process_cpu_seconds()),
        ("run_wall_s", start.elapsed().as_secs_f64()),
    ]);

    let layers = run.layer_metrics();
    let shown = if ctx.trace { &layers } else { &run.e2e };
    for (name, value, unit) in shown.iter() {
        eprintln!("  {:<28} {value:>14.4} {unit}", name);
    }
    for (name, value) in &run.notes {
        eprintln!("  [{name}] {value:.4}");
    }
    if let Err(e) = write_record(&ctx, &run) {
        eprintln!("perfbench: could not write the run record: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.errors.is_empty(),
        run.attempted.max(1),
        run.failed,
        shown.to_json()
    );
}

fn write_record(args: &Ctx, run: &Run) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        args.out_dir,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let errors: Vec<String> = run.errors.iter().map(|e| format!("{e:?}")).collect();
    let body = format!(
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"seconds\": {},\n\"trace\": {},\n\
         \"correct\": {},\n\"errors\": [{}],\n\"attempted\": {},\n\"failed\": {},\n\
         \"host\": {},\n\"setup_reps_s\": [{}],\n\"op_latency_ms\": [{}],\n\"op_kinds\": [{}],\n\"end_to_end\": {},\n\"per_layer\": {},\n\"spans\": {}\n}}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.errors.is_empty(),
        errors.join(", "),
        run.attempted,
        run.failed,
        json_object(&run.notes),
        run.setup_reps_s.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", "),
        run.op_latency_ms.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", "),
        run.op_kinds.iter().map(|k| format!("\"{k}\"")).collect::<Vec<_>>().join(", "),
        run.e2e.to_json(),
        run.layer_metrics().to_json(),
        run.tracer.as_ref().map_or("[]".into(), Tracer::to_json),
    );
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_reps_spread_over_the_op_phase() {
        for (ops, reps) in [(600, 15), (200, 3), (100, 1), (7, 7)] {
            let due: Vec<usize> = (0..ops).filter(|&i| setup_due(i, ops, reps)).collect();
            assert_eq!(due.len(), reps - 1, "{ops} ops, {reps} set-ups");
            // Evenly spaced: the gaps differ by at most one op.
            let mut edges = vec![0];
            edges.extend(&due);
            edges.push(ops);
            let gaps: Vec<usize> = edges.windows(2).map(|w| w[1] - w[0]).collect();
            let (lo, hi) = (gaps.iter().min().unwrap(), gaps.iter().max().unwrap());
            assert!(hi - lo <= 1, "{ops} ops, {reps} set-ups: gaps {gaps:?}");
        }
    }
}
