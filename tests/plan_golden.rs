//! Golden fingerprints for flat [`ShdgPlanner`] plans.
//!
//! A fixed matrix of planner configurations runs over three fields: a
//! 300-sensor field (dense tour path), a 700-sensor sparse field whose
//! plans exceed the 512-stop dense limit (neighbor-list tour path), and a
//! 120-sensor field for the grid-candidate case. Each plan is reduced to a
//! fingerprint: the tour length's bits plus an FNV-1a hash of the
//! assignment and of every polling point's position, candidate and
//! `covered` list.
//!
//! The table was recorded from the planner as it stood before flat and
//! per-tile planning were folded into one region planner, so it pins
//! every flat plan that refactor produces to the bit. It must hold at 1
//! and 4 worker threads.
//!
//! The same file pins the one-tile case of the hierarchical planner: on
//! every field of the `par_equivalence` field set (all of which auto-size
//! to a single tile), `HierPlan::build` must reproduce the flat plan
//! exactly.

use mobile_collectors::core::{
    CandidateMode, CoveringStrategy, GatheringPlan, HierConfig, HierPlan, PlannerConfig,
    ShdgPlanner,
};
use mobile_collectors::net::{DeploymentConfig, Network};
use mobile_collectors::par;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes the tests around the process-global thread override (and
/// honors `MDG_COUNT_ALLOC`, like the other suites).
fn lock() -> MutexGuard<'static, ()> {
    mobile_collectors::obs::alloc::counting_from_env();
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores the thread override even when an assert fires.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        par::set_threads(0);
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `(tour length bits, hash of assignment and every polling point)`.
fn fingerprint(plan: &GatheringPlan) -> (u64, u64) {
    let mut h = Fnv::new();
    h.word(plan.assignment.len() as u64);
    for &a in &plan.assignment {
        h.word(a as u64);
    }
    h.word(plan.polling_points.len() as u64);
    for pp in &plan.polling_points {
        h.word(pp.pos.x.to_bits());
        h.word(pp.pos.y.to_bits());
        h.word(pp.candidate as u64);
        h.word(pp.covered.len() as u64);
        for &s in &pp.covered {
            h.word(u64::from(s));
        }
    }
    (plan.tour_length.to_bits(), h.0)
}

fn field(n: usize, side: f64, seed: u64) -> Network {
    Network::build(DeploymentConfig::uniform(n, side).generate(seed), 30.0)
}

const GREEDY: CoveringStrategy = CoveringStrategy::Greedy;
const TOUR_AWARE: CoveringStrategy = CoveringStrategy::TourAware {
    insertion_weight: 1.0,
};

fn cfg(covering: CoveringStrategy, prune: bool, improve_passes: usize) -> PlannerConfig {
    PlannerConfig {
        covering,
        prune,
        improve_passes,
        ..PlannerConfig::default()
    }
}

/// The configuration matrix: `(field index, config)`. Field 0 is dense,
/// field 1 takes the neighbor-list tour path, field 2 hosts the grid case.
fn cases() -> Vec<(usize, PlannerConfig)> {
    let mut cases = Vec::new();
    for covering in [GREEDY, TOUR_AWARE] {
        for prune in [false, true] {
            for passes in [0, 64] {
                cases.push((0, cfg(covering, prune, passes)));
            }
        }
    }
    for covering in [GREEDY, TOUR_AWARE] {
        for passes in [0, 64] {
            cases.push((1, cfg(covering, true, passes)));
        }
    }
    for cap in [1, 5] {
        for passes in [0, 64] {
            cases.push((
                0,
                PlannerConfig {
                    max_sensors_per_pp: Some(cap),
                    ..cfg(TOUR_AWARE, true, passes)
                },
            ));
        }
    }
    for covering in [GREEDY, TOUR_AWARE] {
        cases.push((
            2,
            PlannerConfig {
                candidates: CandidateMode::Grid { spacing: 20.0 },
                ..cfg(covering, true, 64)
            },
        ));
    }
    cases
}

fn fingerprints() -> Vec<(u64, u64)> {
    let fields = [
        field(300, 400.0, 3),
        field(700, 2_300.0, 100),
        field(120, 200.0, 5),
    ];
    cases()
        .iter()
        .enumerate()
        .map(|(i, (f, cfg))| {
            let net = &fields[*f];
            let plan = ShdgPlanner::with_config(*cfg)
                .plan(net)
                .unwrap_or_else(|e| panic!("case {i}: {e}"));
            plan.validate(&net.deployment.sensors, net.range)
                .unwrap_or_else(|e| panic!("case {i}: {e}"));
            if *f == 1 {
                assert!(
                    plan.n_polling_points() > 512,
                    "case {i}: {} stops, expected the neighbor-list path",
                    plan.n_polling_points()
                );
            }
            fingerprint(&plan)
        })
        .collect()
}

/// One entry per [`cases`] row, in order.
const GOLDEN: &[(u64, u64)] = &[
    (0x40a8a234e8c5f9ad, 0x144f0064c3490767),
    (0x40a6d5f72541527d, 0xcb102d92534060d5),
    (0x40a89c54334ce304, 0xf3027475c49a8d2e),
    (0x40a6d4662fd38977, 0xfb6d401c98313f9c),
    (0x40aa3e7bd1c809fc, 0x3c363033e9f159c5),
    (0x40a840cba2fcaacf, 0x3e506214c8f0d0b8),
    (0x40a7d4b38a9437b5, 0xae885aa98a8e4c9a),
    (0x40a6f6ecdaa1d5e6, 0x1bdaca586e715451),
    (0x40e8eb9d7780880e, 0xb3909ee5ab00c7fb),
    (0x40e651540de4dd9e, 0x92cd98b30432e87e),
    (0x40e91c8d3fab69fb, 0x04b5c3527476134a),
    (0x40e660d4fcd48c40, 0x68609ce04df1f450),
    (0x40b75cc573d8f521, 0xed90dad20fe60c0d),
    (0x40b4c2e5ff8d043d, 0x16bf1b54a3c9f785),
    (0x40aa5b45ef24f918, 0x07d96f4279be8115),
    (0x40a865af91a72f8d, 0xd6e1c5ec300876a9),
    (0x4088160c830820fd, 0x26e78e2df7fff710),
    (0x408a4e12ce6e8b33, 0x540589afedd4c643),
];

#[test]
fn flat_plan_fingerprints_match_at_1_and_4_threads() {
    let _g = lock();
    let _r = Restore;
    for threads in [1, 4] {
        par::set_threads(threads);
        let got = fingerprints();
        if got != GOLDEN {
            let table: String = got
                .iter()
                .map(|(t, h)| format!("    (0x{t:016x}, 0x{h:016x}),\n"))
                .collect();
            let first = got
                .iter()
                .zip(GOLDEN)
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(GOLDEN.len()));
            panic!(
                "{threads} threads: fingerprints diverge at case {first}; computed table:\n{table}"
            );
        }
    }
}

/// The `par_equivalence` field set: twenty dense fields and four whose
/// plans take the neighbor-list tour path.
fn par_equivalence_fields() -> Vec<Network> {
    let dense = (0..20u64).map(|seed| {
        let n = 150 + (seed as usize % 5) * 40;
        let side = 300.0 + (seed as f64 % 3.0) * 100.0;
        field(n, side, seed)
    });
    let sparse = (100..104u64).map(|seed| field(700, 2_300.0, seed));
    dense.chain(sparse).collect()
}

#[test]
fn one_tile_hier_plan_is_the_flat_plan() {
    // Runs at the ambient thread count (`MDG_THREADS`); the golden test
    // above already pins the flat plans at 1 and 4 threads.
    let _g = lock();
    for (i, net) in par_equivalence_fields().iter().enumerate() {
        for base in [cfg(GREEDY, true, 64), cfg(TOUR_AWARE, true, 64)] {
            let flat = ShdgPlanner::with_config(base).plan(net).unwrap();
            let hp = HierPlan::build(
                &net.deployment.sensors,
                net.deployment.sink,
                net.range,
                HierConfig {
                    base,
                    ..HierConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                hp.stats().n_occupied,
                1,
                "field {i}: auto-sized to one tile"
            );
            assert!(
                hp.plan() == &flat,
                "field {i}, {:?}: one-tile plan differs from flat",
                base.covering
            );
        }
    }
}
