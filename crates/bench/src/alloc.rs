//! S8 — allocation budget of the warm incremental path.
//!
//! Runs a hierarchical session through the same deterministic churn as S6,
//! but under the counting global allocator, and reports what the scratch
//! arenas buy: the cold plan's allocation bill (count/bytes/peak) next to
//! the *steady-state* allocations-per-delta once the pools have reached
//! their high-water capacities. The first few deltas after a cold plan
//! still grow buffers (the pools are empty); the steady window starts
//! after a warm-up so the number reported is the recurring cost a
//! long-lived daemon actually pays per delta — O(dirty tiles), not O(n).
//!
//! Span recording is on through the churn, so the per-span allocation
//! attribution splits each delta's allocations into the dirty tiles'
//! re-plans (the `replan_tiles` span) and everything else
//! (`fixed_allocs_per_delta`): the part that must not grow with the
//! field. Spans only see their own thread's allocations, so the split is
//! exact at one worker thread; with more, the pool workers' share of the
//! re-plans lands in the fixed figure.
//!
//! CI's allocation gate runs the smoke profile (20k and 80k sensors) at
//! `MDG_THREADS=1` and fails the build if `fixed_allocs_per_delta` at 80k
//! exceeds 1.25× the 20k figure — the same deltas must not allocate more
//! outside their tile re-plans on a field four times larger — or if the
//! 20k `allocs_per_delta` exceeds the committed `BENCH_alloc.json`
//! snapshot by more than 10%. Refresh the snapshot with:
//!
//! ```console
//! $ MDG_THREADS=1 MDG_ALLOC_JSON=BENCH_alloc.json \
//!   cargo run --release -p mdg-bench --bin experiments -- alloc
//! ```
//!
//! The experiment reads *process-wide* allocator totals, so its absolute
//! numbers are only exact when it runs alone in the process (the
//! `experiments` binary; CI's gate). Inside `cargo test` other tests
//! allocate concurrently, so the in-experiment assertions stay
//! structural.

use crate::params::{Params, Profile};
use crate::serve_hier::churn_round;
use crate::table::Table;
use mdg_core::PlannerConfig;
use mdg_net::DeploymentConfig;
use mdg_obs::alloc::{counting, set_counting, totals};
use mdg_serve::session::FieldSession;

/// Transmission range for every sweep point (the paper's `R = 30 m`).
const RANGE: f64 = 30.0;

/// Deltas applied before the measured window: lets every scratch pool
/// reach its high-water capacity so the window sees steady state only.
const WARMUP_ROUNDS: usize = 4;

/// Field sizes swept per profile, constant density (side = sqrt(n)·10).
/// The 20k floor matches CI's alloc-gate point: big enough that the field
/// tiles (so deltas stay incremental), small enough for a debug-build CI
/// loop. The smoke profile's 80k point is the gate's "same deltas, 4×
/// the field" comparison (S6's churn kills two sensors per delta at both).
fn sweep(p: &Params) -> &'static [usize] {
    match p.profile {
        Profile::Smoke => &[20_000, 80_000],
        Profile::Default => &[20_000, 100_000],
        Profile::Full => &[20_000, 100_000, 1_000_000],
    }
}

/// Measured steady-state deltas per sweep point. Identical in every
/// profile on purpose: allocation counts are exactly deterministic, and
/// CI's smoke-profile run is gated against the committed full-profile
/// baseline — a shorter window would still contain pool-growth rounds
/// and read systematically high (12 rounds measures ~25% more allocs
/// per delta than 24 at n = 20k). Profiles differ only in the n-sweep,
/// which is the expensive axis.
fn steady_rounds(_p: &Params) -> usize {
    24
}

/// S8: cold-plan allocation bill vs steady-state allocations per warm
/// dirty-tile delta, hier sessions at every point.
pub fn alloc(p: &Params) -> Table {
    let mut t = Table::new(
        "alloc_budget",
        "Allocation budget: cold hier plan vs steady-state warm delta (counting allocator)",
        &[
            "n_sensors",
            "cold_allocs",
            "cold_mib",
            "warm_rounds",
            "allocs_per_delta",
            "fixed_allocs_per_delta",
            "kib_per_delta",
            "peak_mib",
            "reuse_ratio",
        ],
    );
    let _obs = crate::obs_lock();
    let was_counting = counting();
    let was_profiling = mdg_obs::enabled();
    set_counting(true);
    for &n in sweep(p) {
        let side = (n as f64).sqrt() * 10.0;
        let deployment = DeploymentConfig::uniform(n, side).generate(p.base_seed);
        let rounds = WARMUP_ROUNDS + steady_rounds(p);

        let base = totals();
        // Threshold 0: the session is hierarchical at every n, same as S6.
        let mut session =
            FieldSession::plan_cold_auto("s8", deployment, RANGE, PlannerConfig::default(), 0)
                .expect("alloc bench: cold plan");
        let cold = totals().since(&base);

        // Spans go on with the warm-up, so their registry entries exist
        // before the window; in it, each span costs one path string.
        mdg_obs::set_enabled(true);
        for round in 0..WARMUP_ROUNDS {
            let (died, added) = churn_round(n, side, round, rounds);
            session
                .apply_delta(&died, &added, None)
                .expect("alloc bench: warm-up delta");
        }

        let spans_before = mdg_obs::snapshot();
        let base = totals();
        for round in WARMUP_ROUNDS..rounds {
            let (died, added) = churn_round(n, side, round, rounds);
            session
                .apply_delta(&died, &added, None)
                .expect("alloc bench: steady delta");
        }
        let steady = totals().since(&base);
        mdg_obs::set_enabled(was_profiling);
        let replan_allocs: u64 = mdg_obs::snapshot()
            .diff(&spans_before)
            .spans
            .iter()
            .filter(|s| s.path == "hier/delta/replan_tiles")
            .map(|s| s.alloc_count)
            .sum();

        let r = steady_rounds(p) as f64;
        let allocs_per_delta = steady.count as f64 / r;
        let fixed_allocs_per_delta = steady.count.saturating_sub(replan_allocs) as f64 / r;
        let kib_per_delta = steady.bytes as f64 / r / 1024.0;
        let peak_mib = steady.peak as f64 / (1024.0 * 1024.0);
        let cold_mib = cold.bytes as f64 / (1024.0 * 1024.0);
        let reuse_ratio = cold.count as f64 / allocs_per_delta.max(1.0);

        // Structural sanity only — see the module docs on process-wide
        // totals under `cargo test`.
        assert!(cold.count > 0, "counting allocator recorded nothing");
        assert!(
            allocs_per_delta.is_finite() && allocs_per_delta > 0.0,
            "steady window recorded no allocations"
        );

        t.push_row(vec![
            n as f64,
            cold.count as f64,
            cold_mib,
            r,
            allocs_per_delta,
            fixed_allocs_per_delta,
            kib_per_delta,
            peak_mib,
            reuse_ratio,
        ]);
        println!(
            "  alloc: n = {n:>7}  cold {:>10} allocs / {cold_mib:>8.1} MiB  \
             steady {allocs_per_delta:>10.0} allocs/delta ({fixed_allocs_per_delta:>8.0} fixed) / \
             {kib_per_delta:>9.1} KiB  reuse {reuse_ratio:>7.0}x",
            cold.count
        );
    }
    set_counting(was_counting);
    let threads = mdg_par::threads();
    t.notes = format!(
        "Counting global allocator over one hierarchical session per point (hier_threshold = 0), \
         S6's deterministic churn, {threads} worker thread(s), span recording on through the \
         churn. cold_* is the full cold plan's bill; allocs_per_delta / kib_per_delta average \
         the {WARMUP_ROUNDS}-round-warmed steady window, so they exclude pool growth; \
         fixed_allocs_per_delta leaves out the allocations attributed to the delta's \
         replan_tiles span (exact at 1 thread; with more, pool workers' re-plan allocations \
         count as fixed); peak_mib is the high-water live-byte mark during that window; \
         reuse_ratio = cold_allocs / allocs_per_delta. CI (MDG_THREADS=1) fails if \
         fixed_allocs_per_delta at n = 80000 exceeds 1.25x the n = 20000 figure, or the \
         n = 20000 allocs_per_delta exceeds this file's by more than 10%. Numbers are \
         process-wide and only exact when the experiment runs alone in the process."
    );
    if let Ok(path) = std::env::var("MDG_ALLOC_JSON") {
        if !path.is_empty() {
            match serde_json::to_string_pretty(&t) {
                Ok(json) => {
                    if let Err(e) = std::fs::write(&path, json + "\n") {
                        eprintln!("could not write {path}: {e}");
                    }
                }
                Err(e) => eprintln!("could not serialize alloc table: {e}"),
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_alloc_budget_reports_finite_positive_figures() {
        let t = alloc(&Params::smoke());
        assert_eq!(t.rows.len(), 2);
        for col in [
            "cold_allocs",
            "allocs_per_delta",
            "fixed_allocs_per_delta",
            "kib_per_delta",
        ] {
            let i = t.col(col).unwrap();
            for row in &t.rows {
                assert!(
                    row[i].is_finite() && row[i] > 0.0,
                    "{col} must be finite and positive, got {}",
                    row[i]
                );
            }
        }
    }
}
