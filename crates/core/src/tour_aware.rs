//! Tour-aware greedy covering.
//!
//! The plain greedy cover optimizes only the *number* of polling points;
//! the tour cost of visiting them is an afterthought. The tour-aware
//! variant grows the cover and the tour simultaneously: each step selects
//! the candidate maximizing
//!
//! ```text
//!     newly covered sensors / (ε + cheapest insertion cost into the
//!                                  current partial tour)
//! ```
//!
//! so a candidate that covers slightly fewer sensors but sits right next to
//! the evolving tour wins over a remote one. With `insertion_weight = 0`
//! the rule degrades to plain greedy (used as the A1 ablation).

use mdg_cover::{BitSet, CoverageInstance};
use mdg_geom::Point;

/// Parameters of the tour-aware covering rule.
#[derive(Debug, Clone, Copy)]
pub struct TourAwareConfig {
    /// Weight of the insertion cost in the denominator. `1.0` is the
    /// default; `0.0` disables tour-awareness entirely.
    pub insertion_weight: f64,
    /// Stabilizer added to the denominator (meters) so that zero-cost
    /// insertions do not dominate on gain-1 candidates.
    pub epsilon: f64,
}

impl Default for TourAwareConfig {
    fn default() -> Self {
        TourAwareConfig {
            insertion_weight: 1.0,
            epsilon: 1.0,
        }
    }
}

/// Output of tour-aware covering: the chosen candidates and the greedy
/// insertion order tour (positions include the sink at index 0).
#[derive(Debug, Clone)]
pub struct TourAwareCover {
    /// Selected candidate indices, in selection order.
    pub selected: Vec<usize>,
    /// Partial tour produced by the insertions: candidate indices in tour
    /// order (excluding the sink).
    pub tour_candidates: Vec<usize>,
}

/// Sentinel node id for the sink in the incremental tour bookkeeping.
const SINK: usize = usize::MAX;

/// Cheapest-insertion cache entry for one candidate: the delta and the
/// tour node (SINK or candidate id) the insertion edge starts at. One
/// struct per candidate so the cache updates run as disjoint mutable
/// slabs under `mdg_par::par_chunks_mut`.
#[derive(Debug, Clone, Copy)]
struct InsEntry {
    delta: f64,
    after: usize,
}

/// Running argmax of the tour-aware selection rule. The fold over chunk
/// winners uses the exact strict-better predicate of the sequential scan,
/// so combining per-chunk results in chunk order reproduces the full
/// left-to-right scan bit-for-bit.
#[derive(Debug, Clone, Copy)]
struct BestCand {
    cand: usize,
    score: f64,
    gain: usize,
    ins: f64,
}

impl BestCand {
    const NONE: BestCand = BestCand {
        cand: usize::MAX,
        score: f64::NEG_INFINITY,
        gain: 0,
        ins: 0.0,
    };

    /// The reference scan's replacement rule: strictly better score, or
    /// equal score with strictly more gain, or equal both with strictly
    /// cheaper insertion. Earlier index wins all exact ties, which is what
    /// makes the chunked fold order-equivalent to one sequential pass.
    #[inline]
    fn beats(&self, other: &BestCand) -> bool {
        self.score > other.score
            || (self.score == other.score && self.gain > other.gain)
            || (self.score == other.score && self.gain == other.gain && self.ins < other.ins)
    }
}

/// Fixed chunk sizes for the parallel stages. Chunk boundaries depend only
/// on the candidate count — never on the thread count — so the work
/// decomposition (and hence every float and tie decision) is identical at
/// any `MDG_THREADS`.
const SCAN_CHUNK: usize = 2048;
const CACHE_CHUNK: usize = 4096;

/// Runs tour-aware greedy covering. Returns `None` if the instance is
/// infeasible.
///
/// Incremental implementation of the same selection rule as the original
/// full-rescan version (kept as the executable specification in this
/// module's tests):
///
/// * **Gains** are maintained through an inverted index (target → covering
///   candidates): selecting a candidate decrements the gain of every
///   candidate sharing one of its newly covered targets, instead of
///   recounting every candidate's bitset each step.
/// * **Insertion costs** are cached per candidate as `(edge, delta)`,
///   keyed by the tour node the edge starts at. Inserting a point splits
///   exactly one tour edge: candidates cached on that edge are rescanned
///   in full, all others just probe the two new edges (their cached
///   minimum over surviving edges stays valid).
///
/// Both caches reproduce the reference's arithmetic bit-for-bit, so the
/// selections — and the greedy insertion tour — come out identical. The
/// only divergence window is a candidate whose cheapest insertion delta is
/// *exactly* tied (to the last bit) across distinct tour edges, where the
/// reference keeps the earliest tour position and the cache may keep the
/// edge it found first; non-degenerate geometry never produces such ties.
pub fn tour_aware_cover(
    inst: &CoverageInstance,
    sink: Point,
    cfg: &TourAwareConfig,
) -> Option<TourAwareCover> {
    let n = inst.n_targets();
    let n_cands = inst.n_candidates();
    let mut sp = mdg_obs::span("tour_aware");
    sp.add_items(n_cands as u64);
    // Cache-maintenance counters, bumped from mdg-par worker slabs (each
    // slab accumulates locally and flushes once — pure observation, so the
    // bit-identical-plan invariant is untouched).
    let ctr_rescans = mdg_obs::counter("tour_aware/cache_rescans");
    let ctr_probes = mdg_obs::counter("tour_aware/cache_probes");
    let mut covered = BitSet::new(n);
    let mut selected = Vec::new();
    // `selected`/`tour_cands` leave in the result; everything else below
    // is per-call working state drawn from the thread's scratch pool —
    // this routine runs once per dirty tile per delta in the hierarchical
    // planner, so its working set is reused rather than reallocated.
    let mut tour_pts: Vec<Point> = mdg_par::scratch::take();
    tour_pts.push(sink);
    let mut tour_cands: Vec<usize> = Vec::new(); // parallel to tour_pts[1..]
    let mut tour_nodes: Vec<usize> = mdg_par::scratch::take(); // candidate ids, parallel to tour_pts
    tour_nodes.push(SINK);
    let mut remaining = n;

    // Inverted index in CSR form: candidates covering each target.
    let mut inv_starts: Vec<u32> = mdg_par::scratch::take_cap(n + 1);
    inv_starts.resize(n + 1, 0);
    for cand in &inst.candidates {
        for t in cand.covers.iter_ones() {
            inv_starts[t + 1] += 1;
        }
    }
    for t in 0..n {
        inv_starts[t + 1] += inv_starts[t];
    }
    let mut inv: Vec<u32> = mdg_par::scratch::take_cap(inv_starts[n] as usize);
    inv.resize(inv_starts[n] as usize, 0);
    let mut cursor: Vec<u32> = mdg_par::scratch::take_cap(n + 1);
    cursor.extend_from_slice(&inv_starts);
    for (c, cand) in inst.candidates.iter().enumerate() {
        for t in cand.covers.iter_ones() {
            inv[cursor[t] as usize] = c as u32;
            cursor[t] += 1;
        }
    }

    let mut gain: Vec<usize> = mdg_par::scratch::take_cap(n_cands);
    gain.extend(inst.candidates.iter().map(|c| c.covers.count()));
    // Cheapest-insertion cache, valid while the tour has ≥ 2 points.
    // Sized exactly up front: the selection loop hands disjoint slabs of
    // it to `par_chunks_mut`, so it must never grow mid-run.
    let mut cache: Vec<InsEntry> = mdg_par::scratch::take_cap(n_cands);
    cache.resize(
        n_cands,
        InsEntry {
            delta: f64::INFINITY,
            after: SINK,
        },
    );
    let cache_cap = cache.capacity();
    let point_of = |id: usize, inst: &CoverageInstance| -> Point {
        if id == SINK {
            sink
        } else {
            inst.candidates[id].pos
        }
    };
    // Position-order rescan mirroring the reference's `insertion_cost`:
    // strict `<`, so the earliest tour position wins ties, exactly as the
    // reference scans.
    let rescan = |p: Point, tour_pts: &[Point], tour_nodes: &[usize]| -> (f64, usize) {
        let mut best = f64::INFINITY;
        let mut after = SINK;
        for i in 0..tour_pts.len() {
            let a = tour_pts[i];
            let b = tour_pts[(i + 1) % tour_pts.len()];
            let delta = a.dist(p) + p.dist(b) - a.dist(b);
            if delta < best {
                best = delta;
                after = tour_nodes[i];
            }
        }
        (best, after)
    };

    while remaining > 0 {
        let single = tour_pts.len() == 1;
        // Parallel selection scan: each fixed chunk computes its local
        // argmax with the sequential predicate, then the chunk winners
        // fold left-to-right with the same predicate (see [`BestCand`]).
        let best = mdg_par::par_reduce(
            n_cands,
            SCAN_CHUNK,
            |range| {
                let mut acc = BestCand::NONE;
                for c in range {
                    let g = gain[c];
                    if g == 0 {
                        continue;
                    }
                    let ins = if single {
                        2.0 * sink.dist(inst.candidates[c].pos)
                    } else {
                        cache[c].delta
                    };
                    let denom = cfg.epsilon + cfg.insertion_weight * ins;
                    let score = g as f64 / denom.max(f64::MIN_POSITIVE);
                    let contender = BestCand {
                        cand: c,
                        score,
                        gain: g,
                        ins,
                    };
                    if contender.beats(&acc) {
                        acc = contender;
                    }
                }
                acc
            },
            |a, b| if b.beats(&a) { b } else { a },
        )
        .unwrap_or(BestCand::NONE);
        if best.cand == usize::MAX {
            return None;
        }
        let w = best.cand;
        let w_pt = inst.candidates[w].pos;

        // Update gains through the inverted index before marking covered.
        for t in inst.candidates[w].covers.iter_ones() {
            if !covered.get(t) {
                for &c2 in &inv[inv_starts[t] as usize..inv_starts[t + 1] as usize] {
                    gain[c2 as usize] -= 1;
                }
            }
        }
        covered.union_with(&inst.candidates[w].covers);
        selected.push(w);
        remaining = n - covered.count();

        // Splice the winner into the tour after its cached edge start.
        let after = if single { SINK } else { cache[w].after };
        let pos = tour_nodes
            .iter()
            .position(|&id| id == after)
            .expect("cached edge start is on the tour")
            + 1;
        tour_pts.insert(pos, w_pt);
        tour_cands.insert(pos - 1, w);
        tour_nodes.insert(pos, w);

        if remaining == 0 {
            break;
        }
        if single {
            // 1 → 2 transition: both edges of the two-point tour have
            // bitwise-equal deltas, so the reference's strict `<` keeps
            // position 0 — the edge leaving the sink. Each cache entry is
            // a pure function of its own candidate, so the slabs run in
            // parallel.
            mdg_par::par_chunks_mut(&mut cache, CACHE_CHUNK, |start, slab| {
                for (k, e) in slab.iter_mut().enumerate() {
                    let c = start + k;
                    if gain[c] == 0 {
                        continue;
                    }
                    let p = inst.candidates[c].pos;
                    *e = InsEntry {
                        delta: sink.dist(p) + p.dist(w_pt) - sink.dist(w_pt),
                        after: SINK,
                    };
                }
            });
        } else {
            // Edge (after, b) was split into (after, w) and (w, b).
            // Cache invariant: `cache[c].delta` is the true minimum over
            // all tour edges, so if the split edge held a candidate's
            // unique minimum its anchor necessarily pointed there
            // (rescanned below); any tied or worse surviving edge keeps
            // the cached value valid, and the two probes cover the new
            // edges. Candidates update independently — parallel slabs.
            let a_pt = point_of(after, inst);
            let b = tour_nodes[(pos + 1) % tour_nodes.len()];
            let b_pt = point_of(b, inst);
            mdg_par::par_chunks_mut(&mut cache, CACHE_CHUNK, |start, slab| {
                let mut rescans = 0u64;
                let mut probes = 0u64;
                for (k, e) in slab.iter_mut().enumerate() {
                    let c = start + k;
                    if gain[c] == 0 {
                        continue;
                    }
                    if e.after == after {
                        rescans += 1;
                        let (best, anchor) = rescan(inst.candidates[c].pos, &tour_pts, &tour_nodes);
                        *e = InsEntry {
                            delta: best,
                            after: anchor,
                        };
                    } else {
                        probes += 1;
                        let p = inst.candidates[c].pos;
                        let d1 = a_pt.dist(p) + p.dist(w_pt) - a_pt.dist(w_pt);
                        if d1 < e.delta {
                            *e = InsEntry { delta: d1, after };
                        }
                        let d2 = w_pt.dist(p) + p.dist(b_pt) - w_pt.dist(b_pt);
                        if d2 < e.delta {
                            *e = InsEntry {
                                delta: d2,
                                after: w,
                            };
                        }
                    }
                }
                ctr_rescans.add(rescans);
                ctr_probes.add(probes);
            });
        }
    }
    debug_assert_eq!(
        cache.capacity(),
        cache_cap,
        "insertion-cache slab must be sized up front"
    );
    mdg_par::scratch::put(tour_pts);
    mdg_par::scratch::put(tour_nodes);
    mdg_par::scratch::put(inv_starts);
    mdg_par::scratch::put(inv);
    mdg_par::scratch::put(cursor);
    mdg_par::scratch::put(gain);
    mdg_par::scratch::put(cache);
    Some(TourAwareCover {
        selected,
        tour_candidates: tour_cands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_geom::closed_tour_length;

    fn line(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    /// Cheapest-insertion delta of `p` into the closed tour `tour` (which
    /// includes the sink). For a single-vertex "tour" this is the out-and-back
    /// distance.
    fn insertion_cost(tour: &[Point], p: Point) -> (usize, f64) {
        debug_assert!(!tour.is_empty());
        if tour.len() == 1 {
            return (1, 2.0 * tour[0].dist(p));
        }
        let mut best_pos = 1;
        let mut best = f64::INFINITY;
        for i in 0..tour.len() {
            let a = tour[i];
            let b = tour[(i + 1) % tour.len()];
            let delta = a.dist(p) + p.dist(b) - a.dist(b);
            if delta < best {
                best = delta;
                best_pos = i + 1;
            }
        }
        (best_pos, best)
    }

    /// The original full-rescan tour-aware covering: every step recounts every
    /// candidate's gain and rescans the whole tour for its cheapest insertion
    /// (`O(steps · candidates · (targets/64 + tour))`). Kept as the executable
    /// specification for [`tour_aware_cover`].
    fn tour_aware_cover_reference(
        inst: &CoverageInstance,
        sink: Point,
        cfg: &TourAwareConfig,
    ) -> Option<TourAwareCover> {
        let n = inst.n_targets();
        let mut covered = BitSet::new(n);
        let mut selected = Vec::new();
        let mut tour_pts: Vec<Point> = vec![sink];
        let mut tour_cands: Vec<usize> = Vec::new(); // parallel to tour_pts[1..]
        let mut remaining = n;

        while remaining > 0 {
            let mut best_cand = usize::MAX;
            let mut best_score = f64::NEG_INFINITY;
            let mut best_gain = 0usize;
            let mut best_ins = (0usize, 0.0f64);
            for (c, cand) in inst.candidates.iter().enumerate() {
                let gain = cand.covers.count_and_not(&covered);
                if gain == 0 {
                    continue;
                }
                let (pos, ins) = insertion_cost(&tour_pts, cand.pos);
                let denom = cfg.epsilon + cfg.insertion_weight * ins;
                let score = gain as f64 / denom.max(f64::MIN_POSITIVE);
                let better = score > best_score
                    || (score == best_score && gain > best_gain)
                    || (score == best_score && gain == best_gain && ins < best_ins.1);
                if better {
                    best_score = score;
                    best_cand = c;
                    best_gain = gain;
                    best_ins = (pos, ins);
                }
            }
            if best_cand == usize::MAX {
                return None;
            }
            covered.union_with(&inst.candidates[best_cand].covers);
            selected.push(best_cand);
            tour_pts.insert(best_ins.0, inst.candidates[best_cand].pos);
            tour_cands.insert(best_ins.0 - 1, best_cand);
            remaining = n - covered.count();
        }
        Some(TourAwareCover {
            selected,
            tour_candidates: tour_cands,
        })
    }

    #[test]
    fn produces_a_cover() {
        let sensors = line(&[0.0, 10.0, 20.0, 60.0, 70.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 12.0);
        let out =
            tour_aware_cover(&inst, Point::new(35.0, 0.0), &TourAwareConfig::default()).unwrap();
        assert!(inst.is_cover(&out.selected));
        // tour_candidates is a permutation of selected.
        let mut a = out.selected.clone();
        let mut b = out.tour_candidates.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn insertion_cost_basics() {
        let sink = Point::ORIGIN;
        // Single-point tour: out and back.
        let (_, c) = insertion_cost(&[sink], Point::new(3.0, 4.0));
        assert!((c - 10.0).abs() < 1e-12);
        // Inserting a collinear midpoint costs nothing.
        let tour = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let (_, c2) = insertion_cost(&tour, Point::new(5.0, 0.0));
        assert!(c2.abs() < 1e-9);
    }

    #[test]
    fn tour_awareness_prefers_on_route_candidates() {
        // Two gain-equivalent candidates: one on the way, one far off.
        // Sensors: a pair near (50, 0) coverable by candidate at (50, 0)
        // [on the sink—(100,0) axis] or by candidate at (50, 40) [off-axis,
        // also within range of both]. Plus an anchor sensor at (100, 0).
        let sensors = vec![
            Point::new(45.0, 0.0),
            Point::new(55.0, 0.0),
            Point::new(50.0, 35.0), // near the off-axis candidate
            Point::new(100.0, 0.0),
        ];
        let inst = CoverageInstance::sensor_sites(&sensors, 40.0);
        let sink = Point::ORIGIN;
        let aware = tour_aware_cover(&inst, sink, &TourAwareConfig::default()).unwrap();
        let blind = tour_aware_cover(
            &inst,
            sink,
            &TourAwareConfig {
                insertion_weight: 0.0,
                epsilon: 1.0,
            },
        )
        .unwrap();
        // Both must cover; the aware tour must be no longer than the blind
        // one on this construction.
        assert!(inst.is_cover(&aware.selected));
        assert!(inst.is_cover(&blind.selected));
        let tour_len = |cands: &[usize]| {
            let mut pts = vec![sink];
            pts.extend(cands.iter().map(|&c| inst.candidates[c].pos));
            closed_tour_length(&pts)
        };
        assert!(tour_len(&aware.tour_candidates) <= tour_len(&blind.tour_candidates) + 1e-9);
    }

    #[test]
    fn zero_weight_reduces_to_plain_greedy_count() {
        let sensors = line(&[0.0, 8.0, 16.0, 24.0, 32.0, 80.0, 88.0]);
        let inst = CoverageInstance::sensor_sites(&sensors, 9.0);
        let blind = tour_aware_cover(
            &inst,
            Point::new(44.0, 0.0),
            &TourAwareConfig {
                insertion_weight: 0.0,
                epsilon: 1.0,
            },
        )
        .unwrap();
        let greedy = mdg_cover::greedy_cover(&inst, |_| 0.0).unwrap();
        // Same number of polling points (selection order may differ only
        // on ties).
        assert_eq!(blind.selected.len(), greedy.len());
    }

    #[test]
    fn incremental_matches_reference_on_random_fields() {
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(20..120);
            let side = 150.0;
            let sensors: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let inst = CoverageInstance::sensor_sites(&sensors, rng.gen_range(15.0..40.0));
            let sink = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            for cfg in [
                TourAwareConfig::default(),
                TourAwareConfig {
                    insertion_weight: 0.3,
                    epsilon: 0.5,
                },
                TourAwareConfig {
                    insertion_weight: 0.0,
                    epsilon: 1.0,
                },
            ] {
                let fast = tour_aware_cover(&inst, sink, &cfg).unwrap();
                let slow = tour_aware_cover_reference(&inst, sink, &cfg).unwrap();
                assert_eq!(fast.selected, slow.selected, "seed {seed}");
                assert_eq!(fast.tour_candidates, slow.tour_candidates, "seed {seed}");
            }
        }
    }

    #[test]
    fn infeasible_returns_none() {
        let sensors = vec![Point::new(33.0, 33.0)];
        let inst =
            CoverageInstance::grid_candidates(&sensors, &mdg_geom::Aabb::square(100.0), 50.0, 5.0);
        assert!(tour_aware_cover(&inst, Point::ORIGIN, &TourAwareConfig::default()).is_none());
    }

    #[test]
    fn empty_instance_yields_empty_cover() {
        let inst = CoverageInstance::sensor_sites(&[], 10.0);
        let out = tour_aware_cover(&inst, Point::ORIGIN, &TourAwareConfig::default()).unwrap();
        assert!(out.selected.is_empty());
        assert!(out.tour_candidates.is_empty());
    }
}
