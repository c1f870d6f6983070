//! The SHDG heuristic planner.

use crate::error::PlanError;
use crate::plan::GatheringPlan;
use crate::tour_aware::{tour_aware_cover, TourAwareConfig};
use mdg_cover::{capacitated_greedy_cover, greedy_cover, prune_cover, CoverageInstance};
use mdg_geom::Point;
use mdg_net::Network;
use mdg_tour::{
    cheapest_insertion, improve, improve_neighbors, EuclideanCost, ImproveConfig, MatrixCost,
    NeighborLists, Tour,
};
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
        let region = plan_region(&inst, Some(sink), sink, &self.config);
        let stops = region.stops.iter().map(|&c| (c, inst.candidates[c].pos));
        Ok(GatheringPlan::from_stops(sink, stops, region.assignment))
    }
}

/// Stop count, counted over the tour's points with the depot included,
/// above which a region's tour switches from cheapest insertion plus the
/// dense 2-opt/Or-opt polish over a precomputed cost matrix to on-the-fly
/// Euclidean costs and neighbor-list local search. The matrix is
/// `O(stops²)` memory and the dense sweeps are quadratic; the sparse
/// regime is how 100k-sensor fields stay plannable.
const DENSE_TOUR_LIMIT: usize = 512;

/// A planned region: the selected candidates in tour order and, for each
/// target, the index (into `stops`) of the stop it uploads to.
pub(crate) struct RegionPlan {
    /// Candidate ids in tour order; the depot, if any, is not listed.
    pub stops: Vec<usize>,
    /// `assignment[t]` = index into `stops` of target `t`'s stop.
    pub assignment: Vec<usize>,
}

/// The SHDG pipeline over one region, run once per stage:
///
/// 1. **cover** — greedy or tour-aware (or capacitated, when
///    `max_sensors_per_pp` is set), ties broken toward `anchor`;
/// 2. **prune** — uncapacitated configs only: reverse-delete redundant
///    stops, most costly first, priced by each stop's removal gain in a
///    preliminary unpolished tour (the final tour's gains would be
///    circular);
/// 3. **tour** — a closed tour through `depot` (leading, when given) and
///    the stops, polished by `improve_passes` of local search;
/// 4. **assign** — each target to its nearest stop, or the capacitated
///    cover's own assignment remapped into tour order.
///
/// Flat planning is the region of the whole field with the sink as depot
/// and anchor; a hierarchical tile is a depot-less region anchored at the
/// tile center. The instance must be feasible.
pub(crate) fn plan_region(
    inst: &CoverageInstance,
    depot: Option<Point>,
    anchor: Point,
    cfg: &PlannerConfig,
) -> RegionPlan {
    let (mut selected, cap_assignment) = {
        let mut sp = mdg_obs::span("cover");
        sp.add_items(inst.candidates.len() as u64);
        let near_anchor = |c: usize| inst.candidates[c].pos.dist_sq(anchor);
        let feasible = "feasibility checked by the caller";
        match (cfg.max_sensors_per_pp, cfg.covering) {
            (Some(cap), _) => {
                let cover = capacitated_greedy_cover(inst, cap, near_anchor).expect(feasible);
                (cover.selected, Some(cover.assignment))
            }
            (None, CoveringStrategy::Greedy) => {
                (greedy_cover(inst, near_anchor).expect(feasible), None)
            }
            (None, CoveringStrategy::TourAware { insertion_weight }) => {
                let ta = TourAwareConfig {
                    insertion_weight,
                    ..TourAwareConfig::default()
                };
                let cover = tour_aware_cover(inst, anchor, &ta).expect(feasible);
                (cover.selected, None)
            }
        }
    };

    if cap_assignment.is_none() && cfg.prune && selected.len() > 1 {
        let _sp = mdg_obs::span("prune");
        let prelim = tour_order(inst, depot, &selected, 0);
        let mut pts: Vec<Point> = mdg_par::scratch::take_cap(prelim.len() + 1);
        pts.extend(depot);
        pts.extend(prelim.iter().map(|&i| inst.candidates[selected[i]].pos));
        let (m, off) = (pts.len(), pts.len() - prelim.len());
        let mut gain: Vec<f64> = mdg_par::scratch::take_cap(inst.candidates.len());
        gain.resize(inst.candidates.len(), 0.0);
        for (k, &i) in prelim.iter().enumerate() {
            let j = k + off;
            let (prev, next) = (pts[(j + m - 1) % m], pts[(j + 1) % m]);
            gain[selected[i]] = prev.dist(pts[j]) + pts[j].dist(next) - prev.dist(next);
        }
        selected = prune_cover(inst, &selected, |c| gain[c]);
        mdg_par::scratch::put(pts);
        mdg_par::scratch::put(gain);
    }

    // `order` permutes `selected` into tour order; it becomes the stops.
    let mut order = {
        let mut sp = mdg_obs::span("tour");
        sp.add_items(selected.len() as u64);
        tour_order(inst, depot, &selected, cfg.improve_passes)
    };

    let _sp = mdg_obs::span("assign");
    // The capacitated assignment indexes `selected`: remap it through the
    // inverse of the tour permutation.
    let cap_assignment = cap_assignment.map(|mut assignment| {
        let mut tour_pos: Vec<usize> = mdg_par::scratch::take_cap(order.len());
        tour_pos.resize(order.len(), 0);
        for (k, &i) in order.iter().enumerate() {
            tour_pos[i] = k;
        }
        for a in &mut assignment {
            *a = tour_pos[*a];
        }
        mdg_par::scratch::put(tour_pos);
        assignment
    });
    for i in &mut order {
        *i = selected[*i];
    }
    let assignment =
        cap_assignment.unwrap_or_else(|| inst.assign(&order).expect("selection is a cover"));
    RegionPlan {
        stops: order,
        assignment,
    }
}

/// Tours `depot` (when given) plus the `selected` candidates and returns
/// the tour as indices into `selected`, depot omitted. The tour is
/// normalized so that the depot — or, without one, `selected[0]` — leads.
fn tour_order(
    inst: &CoverageInstance,
    depot: Option<Point>,
    selected: &[usize],
    improve_passes: usize,
) -> Vec<usize> {
    let off = usize::from(depot.is_some());
    let mut pts: Vec<Point> = mdg_par::scratch::take_cap(selected.len() + off);
    pts.extend(depot);
    pts.extend(selected.iter().map(|&c| inst.candidates[c].pos));
    let improve_cfg = ImproveConfig {
        max_passes: improve_passes,
        ..ImproveConfig::default()
    };
    let tour = if pts.len() <= 2 {
        Tour::identity(pts.len())
    } else if pts.len() <= DENSE_TOUR_LIMIT {
        let cost = MatrixCost::from_points(&pts);
        let tour = cheapest_insertion(&cost);
        if improve_passes > 0 {
            improve(&cost, tour, &improve_cfg)
        } else {
            tour.normalized()
        }
    } else {
        let tour = cheapest_insertion(&EuclideanCost::new(&pts));
        if improve_passes > 0 {
            let mut nl = NeighborLists::build(&pts, 10);
            improve_neighbors(&pts, tour, &improve_cfg, &mut nl)
        } else {
            tour.normalized()
        }
    };
    mdg_par::scratch::put(pts);
    let mut order = tour.into_order();
    if depot.is_some() {
        debug_assert_eq!(order[0], 0, "normalized tours lead with the depot");
        order.remove(0);
        for i in &mut order {
            *i -= 1;
        }
    }
    order
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
