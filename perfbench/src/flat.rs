//! `plan_flat_2k`: a closed loop of cold flat plans at the paper's scale.
//!
//! One op is `Network::build` → `ShdgPlanner::plan` →
//! `GatheringPlan::validate` on a field of its own. No session, serve
//! layer or pool is involved, so kernel changes show here and session,
//! serve and pool changes should not.
//!
//! The traced run also probes the flat serving session in-process (see
//! [`session_probe`]), so its layers are measured although no workload
//! serves a flat session end to end.

use crate::gen::{side_for, uniform_field, ChurnGen, Rng};
use crate::host::{peak_rss_mib, Clock};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{child_setup, op_count, setup_due, Ctx, OpPhase, Run, RANGE};
use mdg_core::{PlannerConfig, ShdgPlanner};
use mdg_cover::CoverageInstance;
use mdg_geom::{Aabb, Point};
use mdg_net::{Deployment, Network};
use mdg_serve::FieldSession;
use std::time::{Duration, Instant};

const N: usize = 2_000;
const THREADS: usize = 1;
/// Plans per second on the reference host (≈33 ms each).
const NOMINAL_PER_S: f64 = 30.0;
/// Set-ups per untraced run, spread over the op phase; `setup_s` is
/// their median.
const SETUP_REPS: usize = 21;
const FIELD_STREAM: u64 = 1;
const WARMUP_STREAM: u64 = 2;
const PROBE_FIELD_STREAM: u64 = 3;
const PROBE_CHURN_STREAM: u64 = 4;

/// The flat session probe: a 10k-sensor field; each delta kills 10 live
/// sensors and every fourth also adds one.
const PROBE_N: usize = 10_000;
const PROBE_DELTAS: usize = 40;
const PROBE_DEATHS: usize = 10;
const PROBE_GROW_EVERY: usize = 4;
/// Repetitions of each isolated call on the grown probe field.
const ISOLATED_REPS: usize = 5;

fn deployment(sensors: &[Point]) -> Deployment {
    let side = side_for(N);
    Deployment {
        sensors: sensors.to_vec(),
        sink: Point::new(side / 2.0, side / 2.0),
        field: Aabb::new(Point::new(0.0, 0.0), Point::new(side, side)),
    }
}

/// One op: the tour length of a validated plan, or why it failed.
fn plan_one(dep: Deployment) -> Result<f64, String> {
    let net = Network::build(dep, RANGE);
    let plan = ShdgPlanner::new().plan(&net).map_err(|e| e.to_string())?;
    plan.validate(&net.deployment.sensors, RANGE)?;
    Ok(plan.tour_length)
}

/// Set-up: every op's field, then one untimed warm-up plan on a field
/// of its own so lazy process state is in place.
fn setup(ctx: &Ctx) -> Result<Vec<Vec<Point>>, String> {
    mdg_par::set_threads(THREADS);
    let ops = op_count(ctx.seconds, NOMINAL_PER_S);
    let mut rng = Rng::new(ctx.seed, FIELD_STREAM);
    let fields = (0..ops)
        .map(|_| uniform_field(&mut rng, N, side_for(N)))
        .collect();
    let warm = uniform_field(&mut Rng::new(ctx.seed, WARMUP_STREAM), N, side_for(N));
    plan_one(deployment(&warm))?;
    Ok(fields)
}

pub fn setup_only(ctx: &Ctx) -> Result<f64, String> {
    setup(ctx)?;
    Ok(ctx.start.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let fields = setup(ctx)?;
    let setup_s = ctx.start.elapsed().as_secs_f64();
    let mut run = Run {
        threads: THREADS,
        ..Run::default()
    };
    let ops = fields.len();
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = vec![setup_s];
    let mut paused = Duration::ZERO;

    let clock = Clock::now();
    let t_phase = Instant::now();
    let mut latency_ms = Vec::with_capacity(ops);
    let mut tours = Vec::with_capacity(ops);
    for (i, f) in fields.iter().enumerate() {
        if setup_due(i, ops, reps) {
            let (s, took) = child_setup(ctx)?;
            setups.push(s);
            paused += took;
        }
        let dep = deployment(f);
        let t = Instant::now();
        let r = plan_one(dep);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(tour) => {
                latency_ms.push(ms);
                tours.push(tour);
            }
            Err(e) => {
                eprintln!("perfbench: op {i} failed: {e}");
                latency_ms.push(f64::INFINITY);
                tours.push(f64::NAN);
            }
        }
    }
    let wall_s = (t_phase.elapsed() - paused).as_secs_f64();
    let (cpu_s, steal_s) = clock.since();
    let peak = peak_rss_mib();

    // Plans are deterministic: the first field planned again must give
    // the same tour to the bit.
    let again = plan_one(deployment(&fields[0]));
    run.check(
        again.as_ref().ok().map(|t| t.to_bits()) == Some(tours[0].to_bits()),
        || format!("field 0 planned twice gave {:?} then {again:?}", tours[0]),
    );

    if ctx.trace {
        let mut tr = Tracer::new(fields.len() * 4 + PROBE_DELTAS + 2 * ISOLATED_REPS + 1);
        traced_pass(&mut run, &mut tr, &fields, &tours);
        session_probe(&mut run, &mut tr, ctx.seed, fields.len() as u64 + 1)?;
        run.tracer = Some(tr);
    }
    run.finish_ops(&OpPhase {
        setup_s: setups,
        latency_ms,
        wall_s,
        cpu_s,
        steal_s,
        tour_km: tours.iter().filter(|t| t.is_finite()).sum::<f64>() / 1e3,
        peak_rss_mib: peak,
    });
    Ok(run)
}

/// Plans every field again with spans, the program's obs counters and
/// the counting allocator on, and derives the per-layer metrics. Each
/// traced plan follows an untraced plan of the same field, so the
/// tracing overhead is a median of paired differences that the host's
/// speed changes do not reach.
fn traced_pass(run: &mut Run, tr: &mut Tracer, fields: &[Vec<Point>], tours: &[f64]) {
    let probes = mdg_obs::counter("tour_aware/cache_probes");
    let reevals = mdg_obs::counter("lazy_greedy/reevals");
    let two_opt = mdg_obs::counter("improve/two_opt_moves");
    let or_opt = mdg_obs::counter("improve/or_opt_moves");
    let c0 = [probes.get(), reevals.get(), two_opt.get() + or_opt.get()];
    let a0 = mdg_obs::alloc::totals();

    let planner = ShdgPlanner::new();
    let mut overhead_ms = Vec::with_capacity(fields.len());
    for (i, f) in fields.iter().enumerate() {
        // The untraced and the traced plan of a field run back to back,
        // in alternating order, so the host's speed changes reach both
        // sides alike.
        let plain = (i % 2 == 0).then(|| timed_plan(f));
        let (tour, traced_ms) = traced_plan(tr, &planner, f, i as u64 + 1);
        let (plain_ok, plain_ms) = plain.unwrap_or_else(|| timed_plan(f));
        run.check(tour.map(f64::to_bits) == Some(tours[i].to_bits()), || {
            format!("field {i}: traced plan {tour:?} != untraced {}", tours[i])
        });
        if plain_ok {
            overhead_ms.push(traced_ms - plain_ms);
        }
    }

    let a = mdg_obs::alloc::totals().since(&a0);
    let ops = fields.len() as f64;
    let c1 = [probes.get(), reevals.get(), two_opt.get() + or_opt.get()];
    run.layer("net.build_ms", median(&tr.self_ms("net.build")));
    run.layer("core.plan_ms", median(&tr.self_ms("core.plan")));
    run.layer("core.validate_ms", median(&tr.self_ms("core.validate")));
    run.layer("cover.cache_probes", (c1[0] - c0[0]) as f64 / ops);
    run.layer("cover.reevals", (c1[1] - c0[1]) as f64 / ops);
    run.layer("tour.moves", (c1[2] - c0[2]) as f64 / ops);
    run.layer("obs.allocs_per_op", a.count as f64 / ops);
    run.layer(
        "obs.alloc_mib_per_op",
        a.bytes as f64 / ops / (1 << 20) as f64,
    );
    run.layer("trace.overhead_ms", median(&overhead_ms));
}

/// One untraced op: whether it succeeded, and its ms.
fn timed_plan(f: &[Point]) -> (bool, f64) {
    let t = Instant::now();
    let ok = plan_one(deployment(f)).is_ok();
    (ok, t.elapsed().as_secs_f64() * 1e3)
}

/// One traced op (`op` → `net.build`, `core.plan`, `core.validate`) with
/// the obs counters and the counting allocator on: the tour of a valid
/// plan, and the op's ms.
fn traced_plan(tr: &mut Tracer, planner: &ShdgPlanner, f: &[Point], op: u64) -> (Option<f64>, f64) {
    let dep = deployment(f);
    mdg_obs::set_enabled(true);
    mdg_obs::alloc::set_counting(true);
    let root = tr.begin("op", op);
    let net = tr.span("net.build", op, || Network::build(dep, RANGE));
    let plan = tr.span("core.plan", op, || planner.plan(&net));
    let valid = tr.span("core.validate", op, || {
        plan.as_ref()
            .map_err(|e| e.to_string())
            .and_then(|p| p.validate(&net.deployment.sensors, RANGE))
    });
    tr.end(root);
    mdg_obs::alloc::set_counting(false);
    mdg_obs::set_enabled(false);
    let tour = plan.map(|p| p.tour_length).ok().filter(|_| valid.is_ok());
    (tour, tr.ms(root))
}

/// Drives a flat `FieldSession` in-process through a seeded churn, timing
/// each `apply_delta` by kind, then calls the two builds a growth delta
/// repeats — `Network::build` and `CoverageInstance::sensor_sites` —
/// alone on the grown sensor set. Its spans take op ids from `first_op`
/// on.
fn session_probe(run: &mut Run, tr: &mut Tracer, seed: u64, first_op: u64) -> Result<(), String> {
    let side = side_for(PROBE_N);
    let sensors = uniform_field(&mut Rng::new(seed, PROBE_FIELD_STREAM), PROBE_N, side);
    let field = Aabb::from_points(&sensors).ok_or("empty probe field")?;
    let sink = Point::new(side / 2.0, side / 2.0);
    let dep = Deployment {
        sensors,
        sink,
        field,
    };
    let mut session = tr.span("serve.session.plan_cold", first_op, || {
        FieldSession::plan_cold("probe", dep, RANGE, PlannerConfig::default())
    })?;
    let mut churn = ChurnGen::new(
        Rng::new(seed, PROBE_CHURN_STREAM),
        PROBE_N,
        side,
        PROBE_DEATHS,
        PROBE_GROW_EVERY,
    );
    for k in 0..PROBE_DELTAS {
        let d = churn.next_delta();
        let name = if d.added.is_empty() {
            "serve.session.deaths"
        } else {
            "serve.session.growth"
        };
        tr.span(name, first_op + 1 + k as u64, || {
            session.apply_delta(&d.died, &d.added, None)
        })
        .map_err(|e| format!("probe delta {k}: {e}"))?;
    }

    let grown = session.sensors();
    let field = Aabb::from_points(grown).ok_or("empty probe field")?;
    for rep in 0..ISOLATED_REPS {
        let op = first_op + 1 + (PROBE_DELTAS + rep) as u64;
        let dep = Deployment {
            sensors: grown.to_vec(),
            sink,
            field,
        };
        drop(tr.span("net.rebuild", op, || Network::build(dep, RANGE)));
        drop(tr.span("cover.instance", op, || {
            CoverageInstance::sensor_sites(grown, RANGE)
        }));
    }
    // Deaths-only deltas mix trivial ones (no stop lost) with repairs, so
    // their mean, not a median that sits between the two, is reported.
    run.layer(
        "serve.session.deaths_ms",
        mean(&tr.self_ms("serve.session.deaths")),
    );
    run.layer(
        "serve.session.growth_ms",
        mean(&tr.self_ms("serve.session.growth")),
    );
    run.layer("net.rebuild_ms", median(&tr.self_ms("net.rebuild")));
    run.layer("cover.instance_ms", median(&tr.self_ms("cover.instance")));
    Ok(())
}
