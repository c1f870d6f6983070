//! Seeded equivalence suite: the lazy-greedy (max-heap of stale gains)
//! cover must return the *exact same selections, in the same order* as the
//! naive full-rescan greedy it replaced, for any tie-breaker.
//!
//! The suite sweeps > 100 seeded instances across sizes, ranges and four
//! tie-breaker families chosen to stress the tie-resolution path: the
//! planner's real distance-to-sink breaker, a constant (every candidate
//! tied), a coarsely quantized distance (many multi-way ties, including
//! exact `-0.0` vs `0.0` bucket values), and a negated coordinate
//! (descending preference).

use mdg_cover::{greedy_cover, greedy_cover_restricted, BitSet, CoverageInstance};
use mdg_geom::Point;
use mdg_net::DeploymentConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference full-rescan greedy cover (the original implementation): every
/// selection step scans all candidates. `O(selections · candidates ·
/// targets/64)`. The executable specification [`greedy_cover`] is
/// verified against.
fn greedy_cover_reference<F>(inst: &CoverageInstance, tie_break: F) -> Option<Vec<usize>>
where
    F: Fn(usize) -> f64,
{
    let all: Vec<usize> = (0..inst.n_targets()).collect();
    let candidates: Vec<usize> = (0..inst.n_candidates()).collect();
    greedy_cover_restricted_reference(inst, &all, &candidates, tie_break)
}

/// Reference full-rescan restricted greedy cover: covers `targets` with
/// candidates from `allowed`, rescanning every allowed candidate per step.
fn greedy_cover_restricted_reference<F>(
    inst: &CoverageInstance,
    targets: &[usize],
    allowed: &[usize],
    tie_break: F,
) -> Option<Vec<usize>>
where
    F: Fn(usize) -> f64,
{
    let n = inst.n_targets();
    let wanted = BitSet::from_indices(n, targets);
    let mut covered = BitSet::new(n);
    for t in 0..n {
        if !wanted.get(t) {
            covered.set(t);
        }
    }
    let mut selected = Vec::new();
    let mut remaining = wanted.count();

    while remaining > 0 {
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        let mut best_tie = f64::INFINITY;
        for &c in allowed {
            let gain = inst.candidates[c].covers.count_and_not(&covered);
            if gain == 0 {
                continue;
            }
            if gain > best_gain {
                best = c;
                best_gain = gain;
                best_tie = tie_break(c);
            } else if gain == best_gain {
                let t = tie_break(c);
                if t < best_tie {
                    best = c;
                    best_tie = t;
                }
            }
        }
        if best == usize::MAX {
            return None; // Some requested target is unreachable.
        }
        covered.union_with(&inst.candidates[best].covers);
        selected.push(best);
        remaining -= best_gain;
    }
    Some(selected)
}

/// Instance `i` of the sweep: uniform field whose size, density and range
/// all vary with the index.
fn instance(i: usize) -> (CoverageInstance, Vec<Point>, Point) {
    let n = 10 + (i * 7) % 151; // 10..=160 sensors
    let side = 60.0 + (i % 9) as f64 * 20.0; // 60..=220 m
    let range = 12.0 + (i % 11) as f64 * 4.0; // 12..=52 m
    let dep = DeploymentConfig::uniform(n, side).generate(1000 + i as u64);
    let inst = CoverageInstance::sensor_sites(&dep.sensors, range);
    (inst, dep.sensors, dep.sink)
}

/// The four tie-breaker families, by index.
fn tie_break(mode: usize, sensors: &[Point], sink: Point, c: usize) -> f64 {
    match mode {
        0 => sensors[c].dist(sink),                  // the planner's breaker
        1 => 0.0,                                    // everything tied
        2 => (sensors[c].dist(sink) / 25.0).floor(), // coarse buckets
        _ => -sensors[c].x,                          // descending, signed zeros
    }
}

#[test]
fn lazy_matches_reference_on_120_seeded_instances() {
    let mut checked = 0usize;
    for i in 0..120 {
        let (inst, sensors, sink) = instance(i);
        let mode = i % 4;
        let tb = |c: usize| tie_break(mode, &sensors, sink, c);
        let lazy = greedy_cover(&inst, tb);
        let naive = greedy_cover_reference(&inst, tb);
        assert_eq!(
            lazy,
            naive,
            "instance {i} (n = {}, mode {mode}): lazy-greedy diverged from reference",
            inst.n_targets()
        );
        assert!(inst.is_cover(&lazy.unwrap()));
        checked += 1;
    }
    assert!(checked >= 100, "suite must cover at least 100 instances");
}

#[test]
fn restricted_lazy_matches_reference_on_seeded_instances() {
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..60 {
        let (inst, sensors, sink) = instance(i + 500);
        let n = inst.n_targets();
        // Random non-empty target subset; `allowed` is every candidate
        // covering at least one chosen target plus some random extras.
        let targets: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
        if targets.is_empty() {
            continue;
        }
        let allowed: Vec<usize> = (0..inst.n_candidates())
            .filter(|&c| {
                targets.iter().any(|&t| inst.candidates[c].covers.get(t)) || rng.gen_bool(0.2)
            })
            .collect();
        let mode = i % 4;
        let tb = |c: usize| tie_break(mode, &sensors, sink, c);
        let lazy = greedy_cover_restricted(&inst, &targets, &allowed, tb);
        let naive = greedy_cover_restricted_reference(&inst, &targets, &allowed, tb);
        assert_eq!(
            lazy, naive,
            "restricted instance {i} (n = {n}, mode {mode}): lazy diverged from reference"
        );
    }
}

#[test]
fn restricted_infeasible_subsets_agree_on_none() {
    // `allowed` misses a target entirely: both variants must return None.
    let sensors = vec![
        Point::new(0.0, 0.0),
        Point::new(50.0, 0.0),
        Point::new(100.0, 0.0),
    ];
    let inst = CoverageInstance::sensor_sites(&sensors, 10.0);
    let lazy = greedy_cover_restricted(&inst, &[0, 2], &[0], |_| 0.0);
    let naive = greedy_cover_restricted_reference(&inst, &[0, 2], &[0], |_| 0.0);
    assert_eq!(lazy, None);
    assert_eq!(lazy, naive);
}

#[test]
fn infeasible_instances_agree_on_none() {
    // Grid candidates too coarse to reach the lone sensor.
    let sensors = vec![Point::new(33.0, 33.0)];
    let inst =
        CoverageInstance::grid_candidates(&sensors, &mdg_geom::Aabb::square(100.0), 50.0, 5.0);
    assert_eq!(greedy_cover(&inst, |_| 0.0), None);
    assert_eq!(greedy_cover_reference(&inst, |_| 0.0), None);
}

fn line(xs: &[f64]) -> Vec<Point> {
    xs.iter().map(|&x| Point::new(x, 0.0)).collect()
}

#[test]
fn lazy_matches_reference_on_lines() {
    // Dense overlap with many exact gain ties; constant tie-breaker
    // forces the index tie-path.
    let sensors = line(&[0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 90.0]);
    let inst = CoverageInstance::sensor_sites(&sensors, 11.0);
    for tie in [0.0f64, 1.0] {
        let lazy = greedy_cover(&inst, |_| tie).unwrap();
        let slow = greedy_cover_reference(&inst, |_| tie).unwrap();
        assert_eq!(lazy, slow);
    }
    let lazy = greedy_cover(&inst, |c| sensors[c].x).unwrap();
    let slow = greedy_cover_reference(&inst, |c| sensors[c].x).unwrap();
    assert_eq!(lazy, slow);
}

#[test]
fn negative_zero_tie_matches_reference() {
    // A -0.0 tie value must compare equal to 0.0, exactly as the
    // reference's `<` does — the earlier index must win.
    let sensors = line(&[0.0, 10.0, 30.0, 40.0]);
    let inst = CoverageInstance::sensor_sites(&sensors, 11.0);
    let tie = |c: usize| if c >= 2 { -0.0 } else { 0.0 };
    assert_eq!(
        greedy_cover(&inst, tie).unwrap(),
        greedy_cover_reference(&inst, tie).unwrap()
    );
}
