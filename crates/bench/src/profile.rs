//! S3 — observability overhead and per-phase profile.
//!
//! Plans one constant-density uniform field twice — profiling off, then
//! profiling on — and reports the wall-clock overhead of the `mdg-obs`
//! instrumentation along with a bit-identity check on the two plans (the
//! observability determinism contract: profiling must only *observe*).
//! Each arm takes the minimum over a few repetitions so the overhead
//! column measures instrumentation cost, not scheduler noise.
//!
//! Setting the `MDG_PROFILE_JSON` environment variable to a path makes the
//! experiment also write the profiled run's span/counter/histogram records
//! there as JSONL (the same format as `mdg plan --profile-json`); this is
//! what CI uploads and what `EXPERIMENTS.md` §S3's per-phase table is
//! derived from. The per-phase tree is printed to stderr either way.

use crate::params::{Params, Profile};
use crate::table::Table;
use mdg_core::{GatheringPlan, ShdgPlanner};
use mdg_net::{DeploymentConfig, Network};
use std::time::Instant;

/// Transmission range for the profiled field (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Repetitions per arm; each arm reports its minimum.
const REPS: usize = 3;

/// Field size per profile: the smoke field matches the CI overhead gate,
/// the default matches the §S3 table in `EXPERIMENTS.md`.
fn field_size(p: &Params) -> usize {
    match p.profile {
        Profile::Smoke => 2_000,
        _ => 20_000,
    }
}

fn timed_plan(net: &Network) -> (GatheringPlan, f64) {
    let t = Instant::now();
    let plan = ShdgPlanner::new()
        .plan(net)
        .expect("uniform field is feasible");
    (plan, t.elapsed().as_secs_f64() * 1e3)
}

/// S3: instrumentation overhead (profiling off vs on) on one plan.
pub fn profile(p: &Params) -> Table {
    let n = field_size(p);
    let side = (n as f64).sqrt() * 10.0;
    let net = Network::build(
        DeploymentConfig::uniform(n, side).generate(p.base_seed),
        RANGE,
    );

    let _obs = crate::obs_lock();
    mdg_obs::set_enabled(false);
    let mut off_ms = f64::INFINITY;
    let mut plan_off: Option<GatheringPlan> = None;
    for _ in 0..REPS {
        let (plan, ms) = timed_plan(&net);
        off_ms = off_ms.min(ms);
        plan_off = Some(plan);
    }

    let mut on_ms = f64::INFINITY;
    let mut plan_on: Option<GatheringPlan> = None;
    let mut prof = mdg_obs::snapshot();
    for _ in 0..REPS {
        mdg_obs::reset();
        mdg_obs::set_enabled(true);
        let (plan, ms) = timed_plan(&net);
        mdg_obs::set_enabled(false);
        prof = mdg_obs::snapshot();
        on_ms = on_ms.min(ms);
        plan_on = Some(plan);
    }
    mdg_obs::reset();

    let identical = plan_off == plan_on;
    assert!(identical, "profiling changed the plan at n = {n}");
    let overhead_pct = (on_ms - off_ms) / off_ms * 100.0;

    eprintln!("{}", prof.render_tree());
    println!(
        "  profile: n = {n:>6}  off {off_ms:>9.1} ms  on {on_ms:>9.1} ms  \
         overhead {overhead_pct:>+6.2} %  plans identical: {identical}"
    );

    if let Ok(path) = std::env::var("MDG_PROFILE_JSON") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, prof.to_jsonl()) {
                eprintln!("could not write {path}: {e}");
            }
        }
    }

    let mut t = Table::new(
        "profile_overhead",
        "mdg-obs instrumentation overhead on one constant-density plan \
         (min over 3 reps per arm)",
        &[
            "n_sensors",
            "plan_off_ms",
            "plan_on_ms",
            "overhead_pct",
            "plans_identical",
        ],
    );
    t.push_row(vec![
        n as f64,
        off_ms,
        on_ms,
        overhead_pct,
        if identical { 1.0 } else { 0.0 },
    ]);
    t.notes = "Single topology (seed = base_seed), side = sqrt(n)·10 m, R = 30 m. Arms are \
               min-of-3 full SHDG plans with mdg-obs profiling disabled vs enabled; \
               plans_identical = 1 asserts the bit-identity contract. MDG_PROFILE_JSON=path \
               additionally dumps the profiled run's records as JSONL."
        .into();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_reports_identical_plans() {
        let t = profile(&Params::smoke());
        assert_eq!(t.rows.len(), 1);
        let ident = t.col("plans_identical").unwrap();
        assert_eq!(t.rows[0][ident], 1.0);
        let off = t.col("plan_off_ms").unwrap();
        let on = t.col("plan_on_ms").unwrap();
        assert!(t.rows[0][off] > 0.0 && t.rows[0][on] > 0.0);
    }
}
