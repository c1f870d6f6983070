//! `churn_hier_300k`: one client on one loopback connection drives a real
//! `mdg-serve` daemon (default `ServeConfig`) in a closed loop — a cold
//! `plan` of 300k sensors, which the default config serves as a hier
//! session, then a stream of small `delta`s. Afterwards the same delta
//! sequence is replayed in-process through `HierPlan`, which checks
//! every served tour to the bit and, in a traced run, splits each delta
//! by layer.

use crate::gen::{side_for, uniform_field, ChurnGen, Delta, Rng};
use crate::host::{peak_rss_mib, Clock};
use crate::stats::{median, median_or_zero};
use crate::trace::Tracer;
use crate::{child_setup, op_count, setup_due, Ctx, OpPhase, Run, RANGE};
use mdg_core::{GatheringPlan, HierConfig, HierPlan, PlannerConfig};
use mdg_geom::Point;
use mdg_serve::{Client, ServeConfig, Server};
use std::time::{Duration, Instant};

const N: usize = 300_000;
const THREADS: usize = 2;
/// One death per delta, plus one added sensor every fourth delta.
const DEATHS: usize = 1;
const GROW_EVERY: usize = 4;
/// Deltas per second on the reference host (≈95 ms each).
const NOMINAL_PER_S: f64 = 10.0;
/// Set-ups per untraced run, spread over the op phase; `setup_s` is
/// their median.
const SETUP_REPS: usize = 3;
const FIELD: &str = "field";
const FIELD_STREAM: u64 = 1;
const CHURN_STREAM: u64 = 2;

struct Inputs {
    sensors: Vec<Point>,
    sink: Point,
    deltas: Vec<Delta>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let side = side_for(N);
    let mut churn = ChurnGen::new(
        Rng::new(ctx.seed, CHURN_STREAM),
        N,
        side,
        DEATHS,
        GROW_EVERY,
    );
    Inputs {
        sensors: uniform_field(&mut Rng::new(ctx.seed, FIELD_STREAM), N, side),
        sink: Point::new(side / 2.0, side / 2.0),
        deltas: (0..op_count(ctx.seconds, NOMINAL_PER_S))
            .map(|_| churn.next_delta())
            .collect(),
    }
}

/// How a delta meets the plan it is applied to.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Deaths only, none of them a stop's anchor sensor.
    Trivial,
    /// Deaths only, at least one at a stop's anchor sensor.
    Anchor,
    /// Adds a sensor (and kills some).
    Growth,
}

/// Each kind with its label and the names of its share of ops and its
/// served p50 in the run record.
const KINDS: [(Kind, &str, &str, &str); 3] = [
    (
        Kind::Trivial,
        "trivial_death",
        "mix.trivial_death_share",
        "served_p50_trivial_death_ms",
    ),
    (
        Kind::Anchor,
        "anchor_death",
        "mix.anchor_death_share",
        "served_p50_anchor_death_ms",
    ),
    (
        Kind::Growth,
        "growth",
        "mix.growth_share",
        "served_p50_growth_ms",
    ),
];

fn kind_of(plan: &GatheringPlan, d: &Delta) -> Kind {
    if !d.added.is_empty() {
        Kind::Growth
    } else if d.died.iter().any(|&s| {
        plan.polling_points
            .iter()
            .any(|pp| pp.candidate as u64 == s)
    }) {
        Kind::Anchor
    } else {
        Kind::Trivial
    }
}

struct Daemon {
    server: Server,
    client: Client,
}

impl Daemon {
    /// Starts a daemon, connects, and plans the field cold.
    fn start(inp: &Inputs) -> Result<Daemon, String> {
        let server = Server::start(ServeConfig::default()).map_err(|e| format!("start: {e}"))?;
        let client = match Client::connect(server.local_addr()) {
            Ok(c) => c,
            Err(e) => {
                server.shutdown();
                server.join();
                return Err(format!("connect: {e}"));
            }
        };
        let mut d = Daemon { server, client };
        let cold = d
            .client
            .plan_sensors(FIELD, inp.sensors.clone(), Some(inp.sink), RANGE);
        if !matches!(cold, Ok(Ok(_))) {
            d.stop();
            return Err(format!("cold plan failed: {cold:?}"));
        }
        Ok(d)
    }

    fn stop(mut self) {
        if let Err(e) = self.client.shutdown() {
            eprintln!("perfbench: shutdown request failed: {e}");
            self.server.shutdown();
        }
        self.server.join();
    }
}

/// Set-up alone: inputs, daemon, cold plan. Returns seconds since
/// process start.
pub fn setup_only(ctx: &Ctx) -> Result<f64, String> {
    mdg_par::set_threads(THREADS);
    let daemon = Daemon::start(&inputs(ctx))?;
    let s = ctx.start.elapsed().as_secs_f64();
    daemon.stop();
    Ok(s)
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    mdg_par::set_threads(THREADS);
    let mut run = Run {
        threads: THREADS,
        ..Run::default()
    };
    let inp = inputs(ctx);
    let mut daemon = Daemon::start(&inp)?;
    let setup_s = ctx.start.elapsed().as_secs_f64();
    let kind = daemon
        .client
        .metrics()
        .ok()
        .and_then(|m| m.ok())
        .and_then(|m| m.sessions.into_iter().next())
        .map(|s| s.kind);
    run.check(kind.as_deref() == Some("hier"), || {
        format!("daemon made a {kind:?} session, expected hier")
    });

    // Op phase: one delta round trip per op, timed from send to parsed
    // reply.
    let ops = inp.deltas.len();
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = vec![setup_s];
    let mut paused = Duration::ZERO;
    let clock = Clock::now();
    let t_phase = Instant::now();
    let mut latency_ms = Vec::with_capacity(ops);
    let mut wire_ms = Vec::with_capacity(ops);
    let mut served: Vec<Option<f64>> = Vec::with_capacity(ops);
    let mut replans = 0;
    for (k, d) in inp.deltas.iter().enumerate() {
        if setup_due(k, ops, reps) {
            let (s, took) = child_setup(ctx)?;
            setups.push(s);
            paused += took;
        }
        let (died, added) = (d.died.clone(), d.added.clone());
        let t = Instant::now();
        let reply = daemon.client.delta(FIELD, died, added, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(Ok(s)) => {
                latency_ms.push(ms);
                wire_ms.push(ms - s.elapsed_ms);
                served.push(Some(s.tour_m));
                replans += usize::from(s.mode == "replan");
            }
            other => {
                eprintln!("perfbench: delta {k} failed: {other:?}");
                latency_ms.push(f64::INFINITY);
                served.push(None);
            }
        }
    }
    let wall_s = (t_phase.elapsed() - paused).as_secs_f64();
    let (cpu_s, steal_s) = clock.since();
    let peak = peak_rss_mib();
    let final_plan = daemon.client.get_plan(FIELD);
    daemon.stop();
    let final_plan = match final_plan {
        Ok(Ok(r)) => r.plan,
        other => return Err(format!("get_plan failed: {other:?}")),
    };
    run.layer("serve.wire_ms", median_or_zero(&wire_ms));
    run.notes.push(("served_full_replans", replans as f64));

    // The daemon recorded into the global obs registry; replays record
    // only while a traced step runs.
    mdg_obs::set_enabled(false);
    let mut plain = Replay::new(&inp, None)?;
    if ctx.trace {
        let mut tr = Tracer::new(ops * 3 + 1);
        let mut traced = Replay::new(&inp, Some(&mut tr))?;
        let c0 = counters();
        let a0 = mdg_obs::alloc::totals();
        // Plain and traced steps of each delta run back to back, in
        // alternating order, so the host's speed changes reach both
        // sides of the tracing overhead alike.
        for (k, d) in inp.deltas.iter().enumerate() {
            if k % 2 == 0 {
                plain.step(k, d, None)?;
                traced.step(k, d, Some(&mut tr))?;
            } else {
                traced.step(k, d, Some(&mut tr))?;
                plain.step(k, d, None)?;
            }
        }
        let allocs = mdg_obs::alloc::totals().since(&a0);
        let c1 = counters();
        check_replay(&mut run, &traced, &served, &final_plan);
        let per_op = |v: u64| v as f64 / ops as f64;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let overhead: Vec<f64> = traced
            .op_ms
            .iter()
            .zip(&plain.op_ms)
            .map(|(t, p)| t - p)
            .collect();
        for (name, v) in [
            ("cover.cache_probes", per_op(c1[0] - c0[0])),
            ("cover.reevals", per_op(c1[1] - c0[1])),
            ("tour.moves", per_op(c1[2] - c0[2] + c1[3] - c0[3])),
            ("obs.allocs_per_op", per_op(allocs.count)),
            (
                "obs.alloc_mib_per_op",
                per_op(allocs.bytes) / (1 << 20) as f64,
            ),
            (
                "core.hier_build_s",
                median(&tr.total_ms("core.hier_build")) / 1e3,
            ),
            ("core.hier_delta_ms", median(&tr.self_ms("core.hier_delta"))),
            (
                "core.validate_live_ms",
                median(&tr.self_ms("core.validate_live")),
            ),
            ("core.dirty_tiles", mean(&traced.dirty_tiles)),
            ("core.replanned_stop_share", mean(&traced.replanned_share)),
            ("trace.overhead_ms", median(&overhead)),
        ] {
            run.layer(name, v);
        }
        run.tracer = Some(tr);
    } else {
        for (k, d) in inp.deltas.iter().enumerate() {
            plain.step(k, d, None)?;
        }
    }
    check_replay(&mut run, &plain, &served, &final_plan);
    for (kind, _, share_name, p50_name) in KINDS {
        let of_kind: Vec<f64> = plain
            .kinds
            .iter()
            .zip(&latency_ms)
            .filter(|(&x, _)| x == kind)
            .map(|(_, &ms)| ms)
            .collect();
        run.notes
            .push((share_name, of_kind.len() as f64 / ops as f64));
        run.notes.push((p50_name, median_or_zero(&of_kind)));
    }
    run.op_kinds = plain
        .kinds
        .iter()
        .map(|&k| KINDS.iter().find(|x| x.0 == k).map_or("", |x| x.1))
        .collect();
    drop(plain);

    run.finish_ops(&OpPhase {
        setup_s: setups,
        latency_ms,
        wall_s,
        cpu_s,
        steal_s,
        tour_km: final_plan.tour_length / 1e3,
        peak_rss_mib: peak,
    });
    Ok(run)
}

/// Checks a replay against the daemon: every delta's tour and the final
/// plan must match to the bit, and the served plan must cover every live
/// sensor.
fn check_replay(run: &mut Run, r: &Replay, served: &[Option<f64>], final_plan: &GatheringPlan) {
    let mismatches: Vec<usize> = (0..served.len())
        .filter(|&k| served[k].map(f64::to_bits) != r.tours.get(k).map(|t| t.to_bits()))
        .collect();
    run.check(mismatches.is_empty(), || {
        format!(
            "{} served tours differ from the in-process replay, first at delta {}",
            mismatches.len(),
            mismatches[0]
        )
    });
    let plan = r.hier.plan();
    run.check(final_plan == plan, || {
        format!(
            "final served plan ({} m) differs from the replay ({} m)",
            final_plan.tour_length, plan.tour_length
        )
    });
    let valid = final_plan.validate_live(&r.sensors, RANGE, &r.alive);
    run.check(valid.is_ok(), || {
        format!("final served plan invalid: {valid:?}")
    });
}

/// The obs counters the per-layer metrics read: cache probes, lazy
/// re-evaluations, 2-opt moves, Or-opt moves.
fn counters() -> [u64; 4] {
    [
        "tour_aware/cache_probes",
        "lazy_greedy/reevals",
        "improve/two_opt_moves",
        "improve/or_opt_moves",
    ]
    .map(|name| mdg_obs::counter(name).get())
}

fn timed<R>(tr: &mut Option<&mut Tracer>, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, op, f),
        None => f(),
    }
}

/// The delta sequence replayed in-process through `HierPlan`, the way
/// the daemon's hier session applies it, one `step` per delta.
struct Replay {
    hier: HierPlan,
    sensors: Vec<Point>,
    alive: Vec<bool>,
    /// Per-delta `apply_delta` + `validate_live` time, ms.
    op_ms: Vec<f64>,
    kinds: Vec<Kind>,
    /// Tour after each delta, metres.
    tours: Vec<f64>,
    dirty_tiles: Vec<f64>,
    /// Replanned stops / plan stops, per delta.
    replanned_share: Vec<f64>,
}

impl Replay {
    /// Builds and validates the cold plan; with a tracer, inside a
    /// `core.hier_build` span.
    fn new(inp: &Inputs, mut tr: Option<&mut Tracer>) -> Result<Replay, String> {
        let sensors = inp.sensors.clone();
        let cfg = HierConfig {
            base: PlannerConfig::default(),
            ..HierConfig::default()
        };
        let hier = timed(&mut tr, "core.hier_build", 0, || {
            HierPlan::build(&sensors, inp.sink, RANGE, cfg)
        })
        .map_err(|e| format!("hier build: {e}"))?;
        hier.plan().validate(&sensors, RANGE)?;
        let ops = inp.deltas.len();
        Ok(Replay {
            hier,
            alive: vec![true; sensors.len()],
            sensors,
            op_ms: Vec::with_capacity(ops),
            kinds: Vec::with_capacity(ops),
            tours: Vec::with_capacity(ops),
            dirty_tiles: Vec::with_capacity(ops),
            replanned_share: Vec::with_capacity(ops),
        })
    }

    /// Applies delta `k`. With a tracer, the step runs inside spans
    /// (`delta` → `core.hier_delta`, `core.validate_live`) with the obs
    /// counters and the counting allocator on.
    fn step(&mut self, k: usize, d: &Delta, mut tr: Option<&mut Tracer>) -> Result<(), String> {
        let op = k as u64 + 1;
        self.kinds.push(kind_of(self.hier.plan(), d));
        // Only newly dead ids dirty a tile; additions append.
        let mut newly_dead = Vec::with_capacity(d.died.len());
        for &s in &d.died {
            if std::mem::replace(&mut self.alive[s as usize], false) {
                newly_dead.push(s as u32);
            }
        }
        self.sensors.extend_from_slice(&d.added);
        self.alive.resize(self.sensors.len(), true);

        let traced = tr.is_some();
        mdg_obs::set_enabled(traced);
        mdg_obs::alloc::set_counting(traced);
        let t = Instant::now();
        let root = tr.as_mut().map(|t| t.begin("delta", op));
        let (sensors, alive) = (&self.sensors, &self.alive);
        let hier = &mut self.hier;
        let report = timed(&mut tr, "core.hier_delta", op, || {
            hier.apply_delta(sensors, alive, &newly_dead, None)
        });
        let valid = timed(&mut tr, "core.validate_live", op, || {
            hier.plan().validate_live(sensors, RANGE, alive)
        });
        if let (Some(t), Some(id)) = (tr.as_mut(), root) {
            t.end(id);
        }
        self.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        mdg_obs::alloc::set_counting(false);
        mdg_obs::set_enabled(false);
        let report = report.map_err(|e| format!("replay delta {k}: {e}"))?;
        valid.map_err(|e| format!("replay delta {k}: {e}"))?;
        let stops = self.hier.plan().n_polling_points().max(1);
        self.dirty_tiles.push(report.dirty_tiles as f64);
        self.replanned_share
            .push(report.replanned_stops as f64 / stops as f64);
        self.tours.push(self.hier.plan().tour_length);
        Ok(())
    }
}
