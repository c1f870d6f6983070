//! The SHDG heuristic planner.

use crate::error::PlanError;
use crate::plan::{GatheringPlan, PollingPoint};
use crate::tour_aware::{tour_aware_cover, TourAwareConfig};
use mdg_cover::{greedy_cover, prune_cover, CoverageInstance};
use mdg_geom::Point;
use mdg_net::Network;
use mdg_tour::{improve, ImproveConfig, MatrixCost};
use serde::{Deserialize, Serialize};

/// Where candidate polling points come from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CandidateMode {
    /// Candidates are the sensor positions themselves (the paper's
    /// default: the collector pauses at a sensor and collects from it and
    /// its radio neighbors). Always feasible.
    SensorSites,
    /// Candidates are lattice points with the given spacing over the
    /// field ("predefined positions" on a grid). May be infeasible if the
    /// spacing exceeds `√2 · range`.
    Grid {
        /// Lattice spacing in meters.
        spacing: f64,
    },
}

/// How the cover is selected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CoveringStrategy {
    /// Classic greedy max-coverage, ties broken toward the sink.
    Greedy,
    /// Tour-aware greedy: maximize coverage per meter of tour insertion
    /// cost (the planner default; see [`crate::tour_aware`]).
    TourAware {
        /// Weight of the insertion cost (0 = plain greedy).
        insertion_weight: f64,
    },
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Candidate generation mode.
    pub candidates: CandidateMode,
    /// Covering strategy.
    pub covering: CoveringStrategy,
    /// Whether to reverse-delete polling points made redundant by later
    /// selections, prioritized by their actual tour detour cost.
    pub prune: bool,
    /// Maximum local-search passes for tour polishing (0 disables
    /// improvement entirely).
    pub improve_passes: usize,
    /// Buffer bound: the maximum number of sensors any single polling
    /// point may serve (`None` = unbounded). When set, the planner uses
    /// capacitated covering and a capacity-respecting assignment; pruning
    /// is skipped (the capacitated selection is already assignment-tight).
    pub max_sensors_per_pp: Option<usize>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            candidates: CandidateMode::SensorSites,
            covering: CoveringStrategy::TourAware {
                insertion_weight: 1.0,
            },
            prune: true,
            improve_passes: 64,
            max_sensors_per_pp: None,
        }
    }
}

/// The SHDG heuristic planner. See the crate docs for the pipeline.
///
/// ```
/// use mdg_core::ShdgPlanner;
/// use mdg_net::{DeploymentConfig, Network};
///
/// let net = Network::build(DeploymentConfig::uniform(100, 200.0).generate(42), 30.0);
/// let plan = ShdgPlanner::new().plan(&net).unwrap();
/// assert!(plan.n_polling_points() < net.n_sensors(), "polling points aggregate");
/// assert!(plan.validate(&net.deployment.sensors, net.range).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShdgPlanner {
    config: PlannerConfig,
}

impl ShdgPlanner {
    /// Planner with the default configuration (sensor-site candidates,
    /// tour-aware covering, pruning, full tour polishing).
    pub fn new() -> Self {
        ShdgPlanner::default()
    }

    /// Planner with an explicit configuration.
    pub fn with_config(config: PlannerConfig) -> Self {
        ShdgPlanner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Builds the coverage instance for `net` per the candidate mode.
    pub fn coverage_instance(&self, net: &Network) -> CoverageInstance {
        match self.config.candidates {
            CandidateMode::SensorSites => {
                CoverageInstance::sensor_sites(&net.deployment.sensors, net.range)
            }
            CandidateMode::Grid { spacing } => CoverageInstance::grid_candidates(
                &net.deployment.sensors,
                &net.deployment.field,
                spacing,
                net.range,
            ),
        }
    }

    /// Plans a single-collector data-gathering tour for `net`.
    pub fn plan(&self, net: &Network) -> Result<GatheringPlan, PlanError> {
        let mut sp_plan = mdg_obs::span("plan");
        sp_plan.add_items(net.n_sensors() as u64);
        let inst = {
            let _sp = mdg_obs::span("instance");
            self.coverage_instance(net)
        };
        let sink = net.deployment.sink;
        if net.n_sensors() == 0 {
            return Ok(GatheringPlan::new(sink, Vec::new(), Vec::new()));
        }
        let uncoverable = inst.uncoverable_targets();
        if !uncoverable.is_empty() {
            return Err(PlanError::Uncoverable(uncoverable));
        }

        // Buffer-bounded mode: capacitated covering carries its own
        // assignment, so it short-circuits the uncapacitated pipeline.
        if let Some(cap) = self.config.max_sensors_per_pp {
            return Ok(self.plan_capacitated(&inst, sink, cap));
        }

        // 1. Cover.
        let mut selected = {
            let mut sp = mdg_obs::span("cover");
            sp.add_items(inst.candidates.len() as u64);
            match self.config.covering {
                CoveringStrategy::Greedy => {
                    greedy_cover(&inst, |c| inst.candidates[c].pos.dist_sq(sink))
                        .expect("feasibility checked above")
                }
                CoveringStrategy::TourAware { insertion_weight } => {
                    let cfg = TourAwareConfig {
                        insertion_weight,
                        ..TourAwareConfig::default()
                    };
                    tour_aware_cover(&inst, sink, &cfg)
                        .expect("feasibility checked above")
                        .selected
                }
            }
        };

        // 2. Prune redundant polling points, most-detour-costly first. The
        //    detour priority is each point's out-and-back from a
        //    preliminary tour; using the removal gain of the final tour
        //    would be circular.
        if self.config.prune && selected.len() > 1 {
            let _sp = mdg_obs::span("prune");
            let prelim = self.tour_over(&inst, sink, &selected, 0);
            let detour: Vec<f64> = removal_gains(&prelim);
            // Map candidate -> its detour in the preliminary tour order.
            let order_of: std::collections::HashMap<usize, usize> =
                prelim.1.iter().enumerate().map(|(k, &c)| (c, k)).collect();
            selected = prune_cover(&inst, &selected, |c| {
                order_of.get(&c).map_or(0.0, |&k| detour[k])
            });
        }

        // 3. Final tour.
        let (tour_pts, tour_cands) = {
            let mut sp = mdg_obs::span("tour");
            sp.add_items(selected.len() as u64);
            self.tour_over(&inst, sink, &selected, self.config.improve_passes)
        };

        // 4. Assign sensors to their nearest polling point in tour order.
        let assignment_sel = {
            let _sp = mdg_obs::span("assign");
            inst.assign(&tour_cands).expect("selection is a cover")
        };
        let mut covered: Vec<Vec<u32>> = vec![Vec::new(); tour_cands.len()];
        for (s, &k) in assignment_sel.iter().enumerate() {
            covered[k].push(s as u32);
        }
        let polling_points: Vec<PollingPoint> = tour_cands
            .iter()
            .zip(covered)
            .map(|(&c, cov)| PollingPoint {
                pos: inst.candidates[c].pos,
                candidate: c,
                covered: cov,
            })
            .collect();

        let plan = GatheringPlan::new(sink, polling_points, assignment_sel);
        debug_assert!((plan.tour_length - mdg_geom::closed_tour_length(&tour_pts)).abs() < 1e-6);
        Ok(plan)
    }

    /// Capacity-bounded planning: capacitated greedy covering (ties toward
    /// the sink), polished tour, and the covering's own capacity-feasible
    /// assignment remapped into tour order.
    fn plan_capacitated(&self, inst: &CoverageInstance, sink: Point, cap: usize) -> GatheringPlan {
        let cover = mdg_cover::capacitated_greedy_cover(inst, cap, |c| {
            inst.candidates[c].pos.dist_sq(sink)
        })
        .expect("feasibility checked by caller");
        let (tour_pts, tour_cands) =
            self.tour_over(inst, sink, &cover.selected, self.config.improve_passes);
        // Remap: cover.assignment points into `selected`; the plan wants
        // indices into the tour-ordered polling points.
        let sel_to_tour: std::collections::HashMap<usize, usize> = tour_cands
            .iter()
            .enumerate()
            .map(|(tour_idx, &cand)| (cand, tour_idx))
            .collect();
        let assignment: Vec<usize> = cover
            .assignment
            .iter()
            .map(|&k| sel_to_tour[&cover.selected[k]])
            .collect();
        let mut covered: Vec<Vec<u32>> = vec![Vec::new(); tour_cands.len()];
        for (s, &k) in assignment.iter().enumerate() {
            covered[k].push(s as u32);
        }
        let polling_points: Vec<PollingPoint> = tour_cands
            .iter()
            .zip(covered)
            .map(|(&c, cov)| PollingPoint {
                pos: inst.candidates[c].pos,
                candidate: c,
                covered: cov,
            })
            .collect();
        let plan = GatheringPlan::new(sink, polling_points, assignment);
        debug_assert!((plan.tour_length - mdg_geom::closed_tour_length(&tour_pts)).abs() < 1e-6);
        plan
    }

    /// Plans a polished closed tour over `sink` + the selected candidates.
    /// Returns tour positions (sink first) and the candidate ids in tour
    /// order.
    ///
    /// Up to [`DENSE_TOUR_LIMIT`] stops this runs cheapest insertion plus
    /// the dense 2-opt/Or-opt polish over a precomputed cost matrix;
    /// beyond it the matrix (`O(stops²)` memory) and the quadratic dense
    /// sweeps give way to on-the-fly Euclidean costs and neighbor-list
    /// local search, which is how 100k-sensor fields stay plannable.
    fn tour_over(
        &self,
        inst: &CoverageInstance,
        sink: Point,
        selected: &[usize],
        improve_passes: usize,
    ) -> (Vec<Point>, Vec<usize>) {
        /// Stop count (including the sink) above which the planner
        /// switches to the sparse tour pipeline.
        const DENSE_TOUR_LIMIT: usize = 512;
        let mut pts = Vec::with_capacity(selected.len() + 1);
        pts.push(sink);
        pts.extend(selected.iter().map(|&c| inst.candidates[c].pos));
        let tour = if pts.len() <= DENSE_TOUR_LIMIT {
            let cost = MatrixCost::from_points(&pts);
            let tour = mdg_tour::cheapest_insertion(&cost);
            if improve_passes > 0 {
                improve(
                    &cost,
                    tour,
                    &ImproveConfig {
                        max_passes: improve_passes,
                        ..ImproveConfig::default()
                    },
                )
            } else {
                tour.normalized()
            }
        } else {
            let cost = mdg_tour::EuclideanCost::new(&pts);
            let tour = mdg_tour::cheapest_insertion(&cost);
            if improve_passes > 0 {
                let mut nl = mdg_tour::NeighborLists::build(&pts, 10);
                mdg_tour::improve_neighbors(
                    &pts,
                    tour,
                    &ImproveConfig {
                        max_passes: improve_passes,
                        ..ImproveConfig::default()
                    },
                    &mut nl,
                )
            } else {
                tour.normalized()
            }
        };
        let order = tour.order();
        debug_assert_eq!(order[0], 0, "normalized tours lead with the depot");
        let tour_pts: Vec<Point> = order.iter().map(|&i| pts[i]).collect();
        let tour_cands: Vec<usize> = order[1..].iter().map(|&i| selected[i - 1]).collect();
        (tour_pts, tour_cands)
    }
}

/// For a closed tour given as (positions with sink first, candidate ids for
/// positions 1..), the length saved by removing each non-sink vertex.
fn removal_gains(tour: &(Vec<Point>, Vec<usize>)) -> Vec<f64> {
    let pts = &tour.0;
    let n = pts.len();
    let mut gains = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n {
        let prev = pts[i - 1];
        let next = pts[(i + 1) % n];
        gains.push(prev.dist(pts[i]) + pts[i].dist(next) - prev.dist(next));
    }
    gains
}

/// Convenience: plan with the default configuration.
pub fn plan_default(net: &Network) -> Result<GatheringPlan, PlanError> {
    ShdgPlanner::new().plan(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdg_net::DeploymentConfig;

    fn net(n: usize, side: f64, range: f64, seed: u64) -> Network {
        Network::build(DeploymentConfig::uniform(n, side).generate(seed), range)
    }

    #[test]
    fn default_plan_is_valid() {
        let net = net(120, 200.0, 30.0, 1);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert!(plan.n_polling_points() > 0);
        assert!(
            plan.n_polling_points() < net.n_sensors(),
            "polling points must aggregate"
        );
        assert!(plan.tour_length > 0.0);
    }

    #[test]
    fn plan_is_deterministic() {
        let net = net(80, 200.0, 30.0, 7);
        let a = ShdgPlanner::new().plan(&net).unwrap();
        let b = ShdgPlanner::new().plan(&net).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_strategies_produce_valid_plans() {
        let net = net(100, 150.0, 25.0, 3);
        for covering in [
            CoveringStrategy::Greedy,
            CoveringStrategy::TourAware {
                insertion_weight: 1.0,
            },
            CoveringStrategy::TourAware {
                insertion_weight: 0.0,
            },
        ] {
            for prune in [false, true] {
                let cfg = PlannerConfig {
                    covering,
                    prune,
                    ..PlannerConfig::default()
                };
                let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
                plan.validate(&net.deployment.sensors, net.range).unwrap();
            }
        }
    }

    #[test]
    fn grid_candidates_work_with_fine_spacing() {
        let net = net(60, 100.0, 25.0, 5);
        let cfg = PlannerConfig {
            candidates: CandidateMode::Grid { spacing: 15.0 },
            ..PlannerConfig::default()
        };
        let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
    }

    #[test]
    fn grid_candidates_report_uncoverable() {
        let net = net(10, 300.0, 10.0, 2);
        let cfg = PlannerConfig {
            candidates: CandidateMode::Grid { spacing: 100.0 },
            ..PlannerConfig::default()
        };
        match ShdgPlanner::with_config(cfg).plan(&net) {
            Err(PlanError::Uncoverable(ids)) => assert!(!ids.is_empty()),
            other => panic!("expected Uncoverable, got {other:?}"),
        }
    }

    #[test]
    fn improvement_shortens_or_matches() {
        let net = net(150, 250.0, 30.0, 11);
        let raw = ShdgPlanner::with_config(PlannerConfig {
            improve_passes: 0,
            ..PlannerConfig::default()
        })
        .plan(&net)
        .unwrap();
        let polished = ShdgPlanner::new().plan(&net).unwrap();
        assert!(polished.tour_length <= raw.tour_length + 1e-6);
    }

    #[test]
    fn pruning_never_increases_polling_points() {
        for seed in 0..5 {
            let net = net(100, 200.0, 30.0, seed);
            let with = ShdgPlanner::with_config(PlannerConfig {
                prune: true,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap();
            let without = ShdgPlanner::with_config(PlannerConfig {
                prune: false,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap();
            assert!(
                with.n_polling_points() <= without.n_polling_points(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn single_sensor_plan() {
        let net = net(1, 100.0, 20.0, 0);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        assert_eq!(plan.n_polling_points(), 1);
        assert_eq!(plan.assignment, vec![0]);
        // Tour = sink → sensor → sink.
        let d = net.deployment.sink.dist(net.deployment.sensors[0]);
        assert!((plan.tour_length - 2.0 * d).abs() < 1e-9);
    }

    #[test]
    fn empty_network_plan() {
        let net = net(0, 100.0, 20.0, 0);
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        assert_eq!(plan.n_polling_points(), 0);
        assert_eq!(plan.tour_length, 0.0);
    }

    #[test]
    fn disconnected_network_is_still_planned() {
        use mdg_net::{SinkPlacement, Topology};
        let cfg = DeploymentConfig {
            field_side: 300.0,
            sink: SinkPlacement::Center,
            topology: Topology::Corridors {
                bands: 3,
                per_band: 30,
                band_height: 15.0,
            },
        };
        let net = Network::build(cfg.generate(4), 30.0);
        assert!(!net.is_connected());
        let plan = ShdgPlanner::new().plan(&net).unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert_eq!(
            plan.n_sensors(),
            90,
            "mobile collection serves disconnected fields"
        );
    }

    #[test]
    fn larger_range_means_fewer_polling_points() {
        let base = DeploymentConfig::uniform(200, 200.0).generate(9);
        let small = ShdgPlanner::new()
            .plan(&Network::build(base.clone(), 20.0))
            .unwrap();
        let large = ShdgPlanner::new()
            .plan(&Network::build(base, 45.0))
            .unwrap();
        assert!(large.n_polling_points() < small.n_polling_points());
        assert!(large.tour_length < small.tour_length);
    }

    #[test]
    fn capacitated_plans_respect_the_buffer_bound() {
        let net = net(150, 200.0, 30.0, 21);
        for cap in [1usize, 3, 8, 20] {
            let cfg = PlannerConfig {
                max_sensors_per_pp: Some(cap),
                ..PlannerConfig::default()
            };
            let plan = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
            plan.validate(&net.deployment.sensors, net.range).unwrap();
            assert!(
                plan.max_sensors_per_pp() <= cap,
                "cap {cap} violated: {}",
                plan.max_sensors_per_pp()
            );
        }
    }

    #[test]
    fn tighter_buffers_need_more_polling_points() {
        let net = net(200, 200.0, 30.0, 23);
        let plan_with = |cap: Option<usize>| {
            ShdgPlanner::with_config(PlannerConfig {
                max_sensors_per_pp: cap,
                ..PlannerConfig::default()
            })
            .plan(&net)
            .unwrap()
        };
        let unbounded = plan_with(None);
        let cap5 = plan_with(Some(5));
        let cap1 = plan_with(Some(1));
        assert!(cap5.n_polling_points() > unbounded.n_polling_points());
        assert_eq!(
            cap1.n_polling_points(),
            net.n_sensors(),
            "cap 1 degenerates to visit-all"
        );
        // And the tour grows as buffers tighten.
        assert!(cap5.tour_length >= unbounded.tour_length - 1e-6);
        assert!(cap1.tour_length > cap5.tour_length);
    }

    #[test]
    fn capacitated_plan_is_deterministic() {
        let net = net(80, 150.0, 30.0, 29);
        let cfg = PlannerConfig {
            max_sensors_per_pp: Some(6),
            ..PlannerConfig::default()
        };
        let a = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
        let b = ShdgPlanner::with_config(cfg).plan(&net).unwrap();
        assert_eq!(a, b);
    }
}
