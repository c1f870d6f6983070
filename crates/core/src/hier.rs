//! Hierarchical (tiled) SHDG planning for very large fields.
//!
//! The flat planner's covering stage is superlinear in the sensor count —
//! the coverage instance alone is `O(n²)` bits — which walls it off
//! somewhere past 100k sensors. The standard escape hatch in the
//! mobile-sink literature is spatial decomposition: partition the field
//! geometrically, solve each region as an independent sub-problem, and
//! join the regional tours. This module implements that pipeline:
//!
//! 1. **Tiling** — [`mdg_geom::Tiling`] buckets the sensors into square
//!    tiles sized so each holds roughly [`HierConfig::target_per_tile`]
//!    sensors (or explicitly via [`HierConfig::tile_cells`]).
//! 2. **Per-tile planning** — every non-empty tile runs the region
//!    pipeline the flat planner runs (cover → prune → tour → assign) on a
//!    *tile-local* sensor-site instance, as a depot-less cycle with cover
//!    ties broken toward the tile center, in parallel across tiles on
//!    `mdg-par`. Costs are quadratic in the tile, not the field. A field
//!    with a single occupied tile is planned exactly as the flat planner
//!    plans it — one region toured from the sink, whose tour is the
//!    plan — so a one-tile plan is the flat plan bit for bit.
//! 3. **Stitching** — sub-tours are concatenated in serpentine tile
//!    order: each is opened at its longest edge and oriented to shorten
//!    the seam; tiles with fewer than three stops are spliced into the
//!    growing cycle via [`mdg_tour::cheapest_insertion_position`].
//! 4. **Touch-up** — candidate-list 2-opt and Or-opt seeded *only at the
//!    seam vertices* ([`mdg_tour::two_opt_neighbors_seeded`],
//!    [`mdg_tour::or_opt_neighbors_seeded`]) repair cross-tile crossings
//!    at a cost proportional to the seams.
//!
//! ## Incremental replanning
//!
//! The pipeline's intermediate state — the tiling, each tile's member
//! sensors, and each tile's pre-stitch sub-tour — is retained in
//! [`HierPlan`], which makes deltas local: a sensor death or addition
//! dirties only the tile that owns its position ([`mdg_geom::Tiling::tile_of`]),
//! [`HierPlan::apply_delta`] re-runs the region pipeline on the dirty
//! tiles only, re-stitches from the retained sub-tours (an `O(stops)`
//! concatenation), and re-polishes only the seams adjacent to dirty
//! tiles. When a delta dirties at least half the occupied tiles — or
//! changes the transmission range, which invalidates every cover — the
//! incremental path escalates to a full re-plan.
//!
//! ## Determinism
//!
//! Hierarchical plans — cold and after any delta sequence — are
//! bit-identical at any thread count. The tile fan-out uses the
//! order-preserving `mdg_par::par_map`, nested parallel calls inside a
//! tile fall back inline (so per-tile arithmetic never depends on
//! sibling tiles), and stitching consumes the tile results in serpentine
//! (index-derived) order with strict-inequality tie-breaks. Dirty tiles
//! are re-planned in the same serpentine order.
//!
//! ## Quality
//!
//! The price of locality is a slightly longer tour: each tile is toured
//! in isolation, so only the seams are globally optimized. The S5 sweep
//! (`BENCH_scale_hier.json`) gates the regression at ≤ 1.25× the flat
//! tour on fields both planners can solve; the serve-layer equivalence
//! suite additionally bounds post-churn incremental plans against a cold
//! re-plan of the same field.

use crate::error::PlanError;
use crate::mutate::UNASSIGNED;
use crate::plan::{GatheringPlan, PollingPoint};
use crate::planner::{plan_region, CandidateMode, PlannerConfig};
use mdg_cover::CoverageInstance;
use mdg_geom::{Point, Tiling};
use mdg_net::Network;
use mdg_tour::{
    cheapest_insertion_position, or_opt_neighbors_seeded, two_opt_neighbors_seeded, NeighborLists,
    Tour,
};

/// Neighbors per city in the seam touch-up's candidate lists. Seam
/// repairs are local, so a short list suffices.
const TOUCH_UP_NEIGHBORS: usize = 8;

/// Longest segment the Or-opt half of the touch-up may relocate.
const TOUCH_UP_MAX_SEGMENT: usize = 3;

/// Hierarchical planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierConfig {
    /// Per-tile planning configuration. `candidates` must be
    /// [`CandidateMode::SensorSites`]; tile instances are sensor-site by
    /// construction, which also guarantees per-tile feasibility.
    pub base: PlannerConfig,
    /// Explicit tile side, in multiples of the transmission range
    /// (`Some(8.0)` with a 30 m range gives 240 m tiles). `None` sizes
    /// tiles automatically from the field density so each holds about
    /// [`HierConfig::target_per_tile`] sensors.
    pub tile_cells: Option<f64>,
    /// Auto-sizing target: sensors per tile. Small enough that a tile
    /// plans in milliseconds, large enough that seams are rare.
    pub target_per_tile: usize,
    /// Run the seam-seeded 2-opt/Or-opt touch-up after stitching.
    pub touch_up: bool,
}

impl Default for HierConfig {
    fn default() -> Self {
        HierConfig {
            base: PlannerConfig::default(),
            tile_cells: None,
            target_per_tile: 2048,
            touch_up: true,
        }
    }
}

/// How a hierarchical plan came together, for logs and benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierStats {
    /// Total tiles in the lattice (including empty ones).
    pub n_tiles: usize,
    /// Tiles that contained at least one sensor (and thus a sub-plan).
    pub n_occupied: usize,
    /// Stops from degenerate (< 3 stop) tiles spliced individually.
    pub spliced_stops: usize,
    /// Effective tile side in meters.
    pub tile_side: f64,
}

/// What [`HierPlan::apply_delta`] did, for session stats and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierDeltaReport {
    /// The delta escalated to a full re-plan (≥ 50% of occupied tiles
    /// dirty, or a range change).
    pub full_rebuild: bool,
    /// Tiles dirtied by the delta (0 = the delta was a no-op).
    pub dirty_tiles: usize,
    /// Occupied tiles after the delta.
    pub occupied_tiles: usize,
    /// Polling points re-planned (dirty tiles' stops, or the whole plan
    /// on escalation).
    pub replanned_stops: usize,
}

impl HierDeltaReport {
    /// True when the delta changed nothing (no dirty tiles, no rebuild).
    pub fn is_noop(&self) -> bool {
        !self.full_rebuild && self.dirty_tiles == 0
    }
}

/// The hierarchical tiled planner. See the module docs for the pipeline.
///
/// ```
/// use mdg_core::hier::HierPlanner;
/// use mdg_net::{DeploymentConfig, Network};
///
/// let net = Network::build(DeploymentConfig::uniform(400, 400.0).generate(7), 30.0);
/// let plan = HierPlanner::new().plan(&net).unwrap();
/// assert!(plan.validate(&net.deployment.sensors, net.range).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HierPlanner {
    config: HierConfig,
}

/// A planned tile: its stops in cycle order plus the assignment choices,
/// all in *global* sensor ids.
#[derive(Debug, Clone)]
struct TilePlan {
    /// Stop positions, cycle order.
    stops: Vec<Point>,
    /// Global sensor id of each stop, parallel to `stops`.
    cands: Vec<u32>,
    /// For each live tile member (member order): global sensor id of the
    /// stop it uploads to.
    chosen: Vec<u32>,
}

impl HierPlanner {
    /// Planner with the default configuration.
    pub fn new() -> Self {
        HierPlanner::default()
    }

    /// Planner with an explicit configuration.
    pub fn with_config(config: HierConfig) -> Self {
        HierPlanner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierConfig {
        &self.config
    }

    /// Plans a single-collector gathering tour hierarchically.
    pub fn plan(&self, net: &Network) -> Result<GatheringPlan, PlanError> {
        self.plan_with_stats(net).map(|(plan, _)| plan)
    }

    /// Like [`HierPlanner::plan`], also reporting tiling statistics.
    pub fn plan_with_stats(&self, net: &Network) -> Result<(GatheringPlan, HierStats), PlanError> {
        HierPlan::build(
            &net.deployment.sensors,
            net.deployment.sink,
            net.range,
            self.config,
        )
        .map(HierPlan::into_plan_and_stats)
    }
}

/// Convenience: hierarchical plan with the default configuration.
pub fn plan_hier(net: &Network) -> Result<GatheringPlan, PlanError> {
    HierPlanner::new().plan(net)
}

/// A retained hierarchical plan: the finished [`GatheringPlan`] plus the
/// intermediate state needed to update it incrementally — the tiling,
/// each tile's live member sensors, and each tile's pre-stitch sub-tour.
///
/// `HierPlan` does **not** own the sensor coordinates: the caller (a
/// warm serving session, typically) keeps the growing `Vec<Point>` and
/// alive mask and passes them to [`HierPlan::apply_delta`], so a
/// million-sensor field is stored once, not twice.
///
/// ```
/// use mdg_core::hier::{HierConfig, HierPlan};
/// use mdg_net::DeploymentConfig;
/// use mdg_geom::Point;
///
/// let dep = DeploymentConfig::uniform(500, 500.0).generate(3);
/// let mut sensors = dep.sensors.clone();
/// let mut alive = vec![true; sensors.len()];
/// let cfg = HierConfig { tile_cells: Some(5.0), ..HierConfig::default() };
/// let mut hp = HierPlan::build(&sensors, dep.sink, 30.0, cfg).unwrap();
///
/// alive[7] = false;
/// sensors.push(Point::new(250.0, 250.0));
/// alive.push(true);
/// let report = hp.apply_delta(&sensors, &alive, &[7], None).unwrap();
/// assert!(!report.full_rebuild);
/// hp.plan().validate_live(&sensors, hp.range(), &alive).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct HierPlan {
    cfg: HierConfig,
    sink: Point,
    range: f64,
    tiling: Tiling,
    /// Per-tile live member sensor ids, ascending; indexed by tile.
    members: Vec<Vec<u32>>,
    /// Per-tile retained sub-plans; `None` = no live members.
    tiles: Vec<Option<TilePlan>>,
    /// Sensor id slots the plan's assignment spans (live + dead).
    n_sensors: usize,
    plan: GatheringPlan,
    /// Id-indexed: `stop_of[c]` is the plan index of the polling point
    /// anchored at sensor `c`, for every polling point of the plan (the
    /// entries of other sensors are meaningless). A patched materialize
    /// finds each clean stop's previous polling point here.
    stop_of: Vec<u32>,
    /// What the last materialize wrote, for [`HierPlan::validate_delta`].
    footprint: Footprint,
    stats: HierStats,
}

/// The part of the plan the last materialize wrote. After a cold build
/// or a full rebuild that is the whole plan (`full`); after a patched
/// delta it is the dirty tiles' stops and members, the ids that died,
/// and the clean stops that moved to a new index. The buffers are kept
/// across deltas so recording the footprint allocates nothing.
#[derive(Debug, Clone, Default)]
struct Footprint {
    /// The whole plan was rewritten.
    full: bool,
    /// Dirty tiles: each live member's assignment and each stop's
    /// `covered` list were written fresh.
    tiles: Vec<u32>,
    /// Ids that died this delta; their assignment was cleared.
    died: Vec<u32>,
    /// Plan indices of clean stops carried to a new index; their covered
    /// sensors' assignment was rewritten.
    shifted: Vec<u32>,
}

impl HierPlan {
    /// Plans `sensors` (all considered alive) hierarchically and retains
    /// the per-tile state for incremental updates.
    pub fn build(
        sensors: &[Point],
        sink: Point,
        range: f64,
        cfg: HierConfig,
    ) -> Result<Self, PlanError> {
        if let CandidateMode::Grid { .. } = cfg.base.candidates {
            return Err(PlanError::Unsupported(
                "hierarchical planning requires sensor-site candidates \
                 (per-tile instances are sensor-site by construction)"
                    .into(),
            ));
        }
        let mut sp_hier = mdg_obs::span("hier");
        sp_hier.add_items(sensors.len() as u64);

        let side = tile_side_for(&cfg, sensors, range)?;
        let (tiling, members) = {
            let _sp = mdg_obs::span("tiling");
            let tiling = Tiling::build(sensors, side);
            let members: Vec<Vec<u32>> = (0..tiling.n_tiles())
                .map(|t| tiling.points_in(t).to_vec())
                .collect();
            (tiling, members)
        };
        let tiles = plan_all_tiles(sensors, sink, &tiling, &members, range, &cfg.base);
        let mut hp = HierPlan {
            cfg,
            sink,
            range,
            tiling,
            members,
            tiles,
            n_sensors: sensors.len(),
            plan: GatheringPlan::new(sink, Vec::new(), Vec::new()),
            stop_of: Vec::new(),
            footprint: Footprint::default(),
            stats: HierStats {
                n_tiles: 0,
                n_occupied: 0,
                spliced_stops: 0,
                tile_side: side,
            },
        };
        hp.materialize(sensors, None);
        Ok(hp)
    }

    /// The current gathering plan. Its `assignment` spans every sensor id
    /// slot ever planned; dead sensors are [`UNASSIGNED`], so validate
    /// with [`GatheringPlan::validate_live`] once deltas have run.
    pub fn plan(&self) -> &GatheringPlan {
        &self.plan
    }

    /// Tiling statistics for the current plan.
    pub fn stats(&self) -> HierStats {
        self.stats
    }

    /// The transmission range the current plan covers at.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Sensor id slots the plan spans (live + dead).
    pub fn n_sensors(&self) -> usize {
        self.n_sensors
    }

    /// Consumes the retained state, yielding the plan and its stats.
    pub fn into_plan_and_stats(self) -> (GatheringPlan, HierStats) {
        (self.plan, self.stats)
    }

    /// Rough heap footprint of the retained state in bytes (tiling CSR
    /// buckets, member lists, sub-tours, and the materialized plan) —
    /// the serving layer's byte-aware session eviction reads this.
    pub fn approx_bytes(&self) -> u64 {
        let tiling = self.n_sensors as u64 * 4 + self.tiling.n_tiles() as u64 * 4;
        let members: u64 = self
            .members
            .iter()
            .map(|m| 24 + m.len() as u64 * 4)
            .sum::<u64>();
        let tiles: u64 = self
            .tiles
            .iter()
            .flatten()
            .map(|tp| 72 + tp.stops.len() as u64 * 20 + tp.chosen.len() as u64 * 4)
            .sum::<u64>();
        let fp = &self.footprint;
        let footprint = (fp.tiles.capacity() + fp.died.capacity() + fp.shifted.capacity()) as u64;
        tiling
            + members
            + tiles
            + self.stop_of.len() as u64 * 4
            + footprint * 4
            + self.plan.approx_bytes()
    }

    /// Validates what the last delta wrote, assuming the plan before it
    /// was valid: every live member of a dirty tile assigned to an
    /// in-range stop that lists it, every entry of a dirty tile's
    /// `covered` lists a live sensor assigned to that stop (and each
    /// member listed once), every clean
    /// stop that moved to a new index listed only by sensors assigned to
    /// that index, the delta's dead ids unassigned, and the tour length
    /// fresh. The cost follows the footprint (plus `O(stops)` for the
    /// tour length), not the field.
    ///
    /// After a cold build or a full rebuild the whole plan was written,
    /// so this runs the full [`GatheringPlan::validate_live`] audit.
    pub fn validate_delta(&self, sensors: &[Point], alive: &[bool]) -> Result<(), String> {
        let plan = &self.plan;
        let fp = &self.footprint;
        if fp.full {
            return plan.validate_live(sensors, self.range, alive);
        }
        let n = sensors.len();
        if plan.assignment.len() != n || alive.len() != n || self.n_sensors != n {
            return Err(format!(
                "assignment/alive cover {}/{} sensors, deployment has {n}",
                plan.assignment.len(),
                alive.len()
            ));
        }
        let pps = &plan.polling_points;
        for &d in &fp.died {
            if plan.assignment[d as usize] != UNASSIGNED {
                return Err(format!("sensor {d} died but is still assigned"));
            }
        }
        for &t in &fp.tiles {
            let t = t as usize;
            for &s in &self.members[t] {
                let si = s as usize;
                if !alive[si] {
                    return Err(format!("dead sensor {s} is a member of tile {t}"));
                }
                let k = plan.assignment[si];
                let pp = pps
                    .get(k)
                    .ok_or_else(|| format!("live sensor {s} assigned to missing stop {k}"))?;
                let d = sensors[si].dist(pp.pos);
                if d > self.range + 1e-9 {
                    return Err(format!(
                        "live sensor {s} is {d:.2} m from its polling point (range {} m)",
                        self.range
                    ));
                }
                if !pp.covered.contains(&s) {
                    return Err(format!("polling point {k} does not list live sensor {s}"));
                }
            }
            // Each member is listed by its own stop (above); the tile's
            // lists may hold nothing else, so no sensor is listed twice.
            let mut listed = 0usize;
            for &c in self.tiles[t].iter().flat_map(|tp| &tp.cands) {
                let k = self.stop_of[c as usize] as usize;
                let pp = pps
                    .get(k)
                    .filter(|pp| pp.candidate == c as usize)
                    .ok_or_else(|| format!("tile {t}'s stop at sensor {c} is not in the plan"))?;
                listed += pp.covered.len();
                for &s in &pp.covered {
                    if !alive.get(s as usize).copied().unwrap_or(false) {
                        return Err(format!(
                            "polling point {k} lists dead or unknown sensor {s}"
                        ));
                    }
                    if plan.assignment[s as usize] != k {
                        return Err(format!(
                            "polling point {k} lists sensor {s}, which is assigned to {}",
                            plan.assignment[s as usize]
                        ));
                    }
                }
            }
            if listed != self.members[t].len() {
                return Err(format!(
                    "tile {t}'s stops list {listed} entries for {} members",
                    self.members[t].len()
                ));
            }
        }
        for &k in &fp.shifted {
            let k = k as usize;
            let pp = pps
                .get(k)
                .ok_or_else(|| format!("moved stop {k} is not in the plan"))?;
            if self.stop_of[pp.candidate] as usize != k {
                return Err(format!("moved stop {k} is not indexed at its position"));
            }
            // (Dead entries are tolerated, as in `validate_live`; the
            // alive mask is read only on a mismatch.)
            for &s in &pp.covered {
                let si = s as usize;
                if plan.assignment.get(si).is_some_and(|&a| a != k) && alive[si] {
                    return Err(format!(
                        "sensor {s} is listed by moved stop {k} but still assigned to {}",
                        plan.assignment[si]
                    ));
                }
            }
        }
        // The tour length, recomputed in place (no position copy).
        let mut recomputed = 0.0;
        let mut prev = plan.sink;
        for pp in pps {
            recomputed += prev.dist(pp.pos);
            prev = pp.pos;
        }
        recomputed += prev.dist(plan.sink);
        if (recomputed - plan.tour_length).abs() > 1e-6 {
            return Err(format!(
                "stored tour length {} != recomputed {recomputed}",
                plan.tour_length
            ));
        }
        Ok(())
    }

    /// Applies a delta — sensor deaths, appended sensors, and/or a range
    /// change — by re-planning only the tiles it dirties.
    ///
    /// `sensors`/`alive` are the caller's full arrays *after* the delta:
    /// ids past the previous length are taken as newly added (and must be
    /// alive); `died` lists the ids newly marked dead (already-dead ids
    /// are tolerated and ignored). Deaths and additions dirty the owning
    /// tile of their position; dirty tiles re-run the region pipeline in
    /// serpentine order on `mdg-par`, the cycle is re-stitched from the
    /// retained sub-tours, and the seam touch-up is seeded only at seams
    /// adjacent to dirty tiles. If at least half the occupied tiles are
    /// dirty — or the range changed, which invalidates every tile's
    /// cover — the whole plan is rebuilt (fresh tiling included), exactly
    /// like [`HierPlan::build`] on the live field.
    ///
    /// The result is bit-identical at any thread count, and identical to
    /// replaying the same delta sequence on any other machine.
    pub fn apply_delta(
        &mut self,
        sensors: &[Point],
        alive: &[bool],
        died: &[u32],
        new_range: Option<f64>,
    ) -> Result<HierDeltaReport, PlanError> {
        assert_eq!(sensors.len(), alive.len(), "alive mask size");
        assert!(
            sensors.len() >= self.n_sensors,
            "sensor id slots never shrink (deaths are mask flips)"
        );
        let n_new = sensors.len();
        let _sp_hier = mdg_obs::span("hier");
        let mut sp = mdg_obs::span("delta");
        let n_added = n_new - self.n_sensors;
        sp.add_items((died.len() + n_added) as u64);

        let range_changed = new_range.is_some_and(|r| (r - self.range).abs() > 1e-12);
        let occupied_before = self.stats.n_occupied;
        let fp = &mut self.footprint;
        fp.full = false;
        fp.tiles.clear();
        fp.died.clear();
        fp.shifted.clear();

        // 1. Route the delta to its dirty tiles via the position → tile
        //    lattice map. Member lists are updated here even when we end
        //    up escalating — the full rebuild recomputes them anyway.
        //    The dirty mask is O(tiles) and rebuilt every delta, so it
        //    comes from the thread's scratch pool: a warm session replays
        //    deltas on the same thread and reuses the capacity.
        let mut dirty: Vec<bool> = mdg_par::scratch::take_cap(self.tiling.n_tiles());
        dirty.resize(self.tiling.n_tiles(), false);
        let mut n_dirty = 0usize;
        {
            let _sp = mdg_obs::span("dirty_map");
            for &d in died {
                let s = d as usize;
                if s >= n_new {
                    continue;
                }
                let t = self.tiling.tile_of(sensors[s]);
                if let Ok(i) = self.members[t].binary_search(&d) {
                    self.members[t].remove(i);
                    self.footprint.died.push(d);
                    if !dirty[t] {
                        dirty[t] = true;
                        n_dirty += 1;
                    }
                }
            }
            for g in self.n_sensors..n_new {
                debug_assert!(alive[g], "appended sensors must be alive");
                let t = self.tiling.tile_of(sensors[g]);
                // Appended ids exceed every existing member id and arrive
                // in ascending order, so pushing keeps the list sorted.
                self.members[t].push(g as u32);
                if !dirty[t] {
                    dirty[t] = true;
                    n_dirty += 1;
                }
            }
        }
        self.n_sensors = n_new;
        if let Some(r) = new_range {
            self.range = r;
        }

        if n_dirty == 0 && !range_changed {
            mdg_par::scratch::put(dirty);
            return Ok(HierDeltaReport {
                full_rebuild: false,
                dirty_tiles: 0,
                occupied_tiles: occupied_before,
                replanned_stops: 0,
            });
        }

        // 2. Escalate when locality is gone: a range change invalidates
        //    every tile's cover, and once half the occupied tiles are
        //    dirty a fresh tiling (re-sized to the live density) beats
        //    patching the old one.
        if range_changed || 2 * n_dirty >= occupied_before.max(1) {
            mdg_obs::counter("hier/delta_full_replans").add(1);
            mdg_par::scratch::put(dirty);
            self.rebuild_full(sensors, alive)?;
            return Ok(HierDeltaReport {
                full_rebuild: true,
                dirty_tiles: n_dirty,
                occupied_tiles: self.stats.n_occupied,
                replanned_stops: self.plan.n_polling_points(),
            });
        }

        // 3. Re-plan the dirty tiles only, fanned out in serpentine order.
        mdg_obs::counter("hier/dirty_tiles").add(n_dirty as u64);
        let mut dirty_list: Vec<usize> = mdg_par::scratch::take();
        dirty_list.extend(self.tiling.serpentine().filter(|&t| dirty[t]));
        let replanned: Vec<Option<TilePlan>> = {
            let mut sp = mdg_obs::span("replan_tiles");
            sp.add_items(dirty_list.len() as u64);
            let members = &self.members;
            let tiling = &self.tiling;
            let range = self.range;
            let base = self.cfg.base;
            mdg_par::par_map(dirty_list.len(), |k| {
                let t = dirty_list[k];
                if members[t].is_empty() {
                    None
                } else {
                    Some(plan_tile(
                        sensors,
                        &members[t],
                        range,
                        None,
                        tiling.tile_center(t),
                        &base,
                    ))
                }
            })
        };
        let mut replanned_stops = 0usize;
        for (k, tp) in replanned.into_iter().enumerate() {
            if let Some(tp) = &tp {
                replanned_stops += tp.stops.len();
            }
            self.tiles[dirty_list[k]] = tp;
        }

        // 4. Re-stitch from the retained sub-tours, polish only the
        //    dirty-adjacent seams, and patch the plan where it changed.
        self.footprint
            .tiles
            .extend(dirty_list.iter().map(|&t| t as u32));
        self.materialize(sensors, Some(&dirty));
        mdg_par::scratch::put(dirty);
        mdg_par::scratch::put(dirty_list);
        Ok(HierDeltaReport {
            full_rebuild: false,
            dirty_tiles: n_dirty,
            occupied_tiles: self.stats.n_occupied,
            replanned_stops,
        })
    }

    /// Full re-plan of the live field: fresh tiling sized to the live
    /// density, every occupied tile re-planned, all seams polished.
    fn rebuild_full(&mut self, sensors: &[Point], alive: &[bool]) -> Result<(), PlanError> {
        let _sp = mdg_obs::span("rebuild");
        let live: Vec<Point> = sensors
            .iter()
            .zip(alive)
            .filter_map(|(&p, &a)| a.then_some(p))
            .collect();
        let side = tile_side_for(&self.cfg, &live, self.range)?;
        // The tiling is built over every slot (geometry only — dead
        // sensors still anchor their id in the CSR buckets) and the
        // member lists filter to the alive ones.
        let tiling = Tiling::build(sensors, side);
        self.members = (0..tiling.n_tiles())
            .map(|t| {
                tiling
                    .points_in(t)
                    .iter()
                    .copied()
                    .filter(|&g| alive[g as usize])
                    .collect()
            })
            .collect();
        self.tiles = plan_all_tiles(
            sensors,
            self.sink,
            &tiling,
            &self.members,
            self.range,
            &self.cfg.base,
        );
        self.tiling = tiling;
        self.materialize(sensors, None);
        Ok(())
    }

    /// Rebuilds the materialized [`GatheringPlan`] from the retained
    /// per-tile sub-tours: serpentine stitch, seam touch-up, assignment.
    ///
    /// `dirty`: `None` polishes every seam and builds the assignment and
    /// every `covered` list from scratch (cold build / full rebuild).
    /// `Some(mask)` (with the dirty tiles listed in the footprint) seeds
    /// the touch-up only at seam stops whose tour neighborhood touches a
    /// dirty tile, and patches the previous plan: clean stops keep their
    /// polling points, `covered` lists included; only the dirty tiles'
    /// stops and members are written fresh, and the sensors of clean
    /// stops that moved to a new index are re-pointed. Both produce the
    /// same plan bit for bit.
    fn materialize(&mut self, sensors: &[Point], dirty: Option<&[bool]>) {
        let ordered: Vec<&TilePlan> = self
            .tiling
            .serpentine()
            .filter_map(|t| self.tiles[t].as_ref())
            .collect();
        let n_occupied = ordered.len();
        // One occupied tile was toured from the sink (see `plan_all_tiles`)
        // and only a full rebuild can produce one: a patched delta leaves
        // at least two.
        debug_assert!(dirty.is_none() || n_occupied > 1);
        // The stitch buffers are O(stops) and rebuilt every materialize;
        // scratch-pooling them keeps warm deltas off the allocator for
        // the three biggest temporaries of the re-stitch.
        let mut cycle_pts: Vec<Point> = mdg_par::scratch::take();
        let mut cands: Vec<u32> = mdg_par::scratch::take();
        let mut seam: Vec<bool> = mdg_par::scratch::take();
        let spliced = {
            let _sp = mdg_obs::span("stitch");
            stitch(self.sink, &ordered, &mut cycle_pts, &mut cands, &mut seam)
        };
        mdg_obs::counter("hier/spliced_stops").add(spliced as u64);

        if self.cfg.touch_up
            && self.cfg.base.improve_passes > 0
            && n_occupied > 1
            && cycle_pts.len() >= 5
        {
            let mut sp = mdg_obs::span("touch_up");
            sp.add_items(cycle_pts.len() as u64);
            let m = cands.len();
            let mut seeds: Vec<usize> = mdg_par::scratch::take();
            match dirty {
                None => {
                    // The sink joins two seams; every flagged stop is one.
                    seeds.push(0);
                    seeds.extend(
                        seam.iter()
                            .enumerate()
                            .filter_map(|(k, &s)| s.then_some(k + 1)),
                    );
                }
                Some(mask) => {
                    // Only seams whose tour neighborhood touches a dirty
                    // tile need re-polishing; clean seams were polished
                    // when their tiles last changed.
                    // `cycle_pts[k + 1]` is stop k's position: reading it
                    // streams, where `sensors[cands[k]]` would miss cache
                    // on every stop of a large field.
                    let mut stop_dirty: Vec<bool> = mdg_par::scratch::take_cap(m);
                    stop_dirty.extend(cycle_pts[1..].iter().map(|&p| mask[self.tiling.tile_of(p)]));
                    if stop_dirty[0] || stop_dirty[m - 1] {
                        seeds.push(0);
                    }
                    for k in 0..m {
                        if !seam[k] {
                            continue;
                        }
                        let prev = if k == 0 { m - 1 } else { k - 1 };
                        let next = if k + 1 == m { 0 } else { k + 1 };
                        if stop_dirty[k] || stop_dirty[prev] || stop_dirty[next] {
                            seeds.push(k + 1);
                        }
                    }
                    mdg_par::scratch::put(stop_dirty);
                }
            };
            if !seeds.is_empty() {
                // The seeded passes read candidate rows only around the
                // seeds and the cities their moves wake, so rows are
                // computed on first access rather than for every stop.
                let mut nl = NeighborLists::lazy(&cycle_pts, TOUCH_UP_NEIGHBORS);
                let tour = two_opt_neighbors_seeded(
                    &cycle_pts,
                    Tour::identity(cycle_pts.len()),
                    &mut nl,
                    1e-9,
                    &seeds,
                );
                let tour = or_opt_neighbors_seeded(
                    &cycle_pts,
                    tour,
                    &mut nl,
                    TOUCH_UP_MAX_SEGMENT,
                    1e-9,
                    &seeds,
                );
                let order = tour.order();
                debug_assert_eq!(order[0], 0, "normalized tours lead with the depot");
                let mut new_pts: Vec<Point> = mdg_par::scratch::take_cap(cycle_pts.len());
                new_pts.extend(order.iter().map(|&i| cycle_pts[i]));
                let mut new_cands: Vec<u32> = mdg_par::scratch::take_cap(cands.len());
                new_cands.extend(order[1..].iter().map(|&i| cands[i - 1]));
                mdg_par::scratch::put(std::mem::replace(&mut cycle_pts, new_pts));
                mdg_par::scratch::put(std::mem::replace(&mut cands, new_cands));
            }
            mdg_par::scratch::put(seeds);
        }

        self.plan = {
            let _sp = mdg_obs::span("assign");
            match dirty {
                None => self.assign_all(sensors, &cands),
                Some(mask) => self.assign_patched(&cycle_pts, &cands, mask),
            }
        };
        debug_assert!(
            (self.plan.tour_length - mdg_geom::closed_tour_length(&cycle_pts)).abs() < 1e-6
        );
        mdg_par::scratch::put(cycle_pts);
        mdg_par::scratch::put(cands);
        mdg_par::scratch::put(seam);
        self.stats = HierStats {
            n_tiles: self.tiling.n_tiles(),
            n_occupied,
            spliced_stops: spliced,
            tile_side: self.tiling.side(),
        };
    }

    /// The whole plan for the stitched stops `cands`: every assignment
    /// and `covered` list built from the tiles' choices, `O(sensors)`.
    fn assign_all(&mut self, sensors: &[Point], cands: &[u32]) -> GatheringPlan {
        // Scatter each tile's choices into an id-indexed table (live
        // members partition across tiles, so each slot is written at most
        // once; dead slots stay UNASSIGNED), then map the chosen stop ids
        // to tour positions.
        let n = self.n_sensors;
        // The chosen table is O(sensors); pooling it avoids a
        // multi-megabyte allocation per rebuild at a million sensors.
        // (The assignment and covered lists leave in the plan, so they
        // stay owned.)
        let mut chosen: Vec<u32> = mdg_par::scratch::take_cap(n);
        chosen.resize(n, u32::MAX);
        for (t, tp) in self.tiles.iter().enumerate() {
            if let Some(tp) = tp {
                for (i, &g) in self.members[t].iter().enumerate() {
                    chosen[g as usize] = tp.chosen[i];
                }
            }
        }
        let stop_of = &mut self.stop_of;
        stop_of.clear();
        stop_of.resize(n, u32::MAX);
        for (k, &c) in cands.iter().enumerate() {
            stop_of[c as usize] = k as u32;
        }
        let assignment: Vec<usize> = chosen
            .iter()
            .map(|&c| {
                if c == u32::MAX {
                    UNASSIGNED
                } else {
                    stop_of[c as usize] as usize
                }
            })
            .collect();
        mdg_par::scratch::put(chosen);
        self.footprint.full = true;
        let stops = cands.iter().map(|&c| (c as usize, sensors[c as usize]));
        GatheringPlan::from_stops(self.sink, stops, assignment)
    }

    /// The plan for the stitched stops `cands` (at `cycle_pts[1..]`,
    /// after the sink), patched from the previous one after a delta that
    /// dirtied the tiles in `mask` (listed in the footprint). Costs
    /// `O(stops)` plus the dirty tiles' members plus the sensors of clean
    /// stops whose index moved.
    ///
    /// The result equals [`HierPlan::assign_all`]'s: a clean tile's
    /// members, stops and choices are unchanged since the previous plan,
    /// so each of its stops' `covered` list (ascending ids, live members
    /// only) is exactly what a rebuild would produce; a dirty tile's
    /// lists are rebuilt from its ascending member list.
    fn assign_patched(
        &mut self,
        cycle_pts: &[Point],
        cands: &[u32],
        mask: &[bool],
    ) -> GatheringPlan {
        let n = self.n_sensors;
        let tiling = &self.tiling;
        let stop_of = &mut self.stop_of;
        let fp = &mut self.footprint;
        let mut old = std::mem::take(&mut self.plan.polling_points);
        let mut assignment = std::mem::take(&mut self.plan.assignment);
        assignment.resize(n, UNASSIGNED);
        stop_of.resize(n, u32::MAX);
        for &d in &fp.died {
            assignment[d as usize] = UNASSIGNED;
        }
        // Clean stops move their polling point (covered list and all)
        // from the previous plan; a moved index re-points its sensors.
        // The stop vector is pooled: it is O(stops) and replaced every
        // delta.
        let mut polling_points: Vec<PollingPoint> = mdg_par::scratch::take_cap(cands.len());
        let mut moved = 0usize;
        for (k, (&c, &pos)) in cands.iter().zip(&cycle_pts[1..]).enumerate() {
            let covered = if mask[tiling.tile_of(pos)] {
                // A dirty tile's stop; its list is filled below.
                stop_of[c as usize] = k as u32;
                Vec::new()
            } else {
                let j = stop_of[c as usize] as usize;
                debug_assert_eq!(old[j].candidate, c as usize, "clean stop indexed");
                let covered = std::mem::take(&mut old[j].covered);
                if j != k {
                    stop_of[c as usize] = k as u32;
                    moved += covered.len();
                    for &s in &covered {
                        assignment[s as usize] = k;
                    }
                    fp.shifted.push(k as u32);
                }
                covered
            };
            polling_points.push(PollingPoint {
                pos,
                candidate: c as usize,
                covered,
            });
        }
        mdg_par::scratch::put(old);
        mdg_obs::counter("hier/moved_sensors").add(moved as u64);
        // Dirty tiles' members, ascending, fill their stops' fresh lists.
        for &t in &fp.tiles {
            let t = t as usize;
            if let Some(tp) = &self.tiles[t] {
                for (&s, &c) in self.members[t].iter().zip(&tp.chosen) {
                    let k = stop_of[c as usize] as usize;
                    polling_points[k].covered.push(s);
                    assignment[s as usize] = k;
                }
            }
        }
        // `cycle_pts` is the plan's tour (sink first), so this is the
        // length `GatheringPlan::new` would compute, without copying the
        // positions out again.
        GatheringPlan {
            sink: self.sink,
            polling_points,
            assignment,
            tour_length: mdg_geom::closed_tour_length(cycle_pts),
        }
    }
}

/// Resolves the tile side in meters: explicit `tile_cells × range`, or
/// auto-sized so the expected tile population is `target_per_tile`. Auto
/// tiles never drop below `2 × range` — tiles narrower than a coverage
/// disk fragment the cover badly.
fn tile_side_for(cfg: &HierConfig, live: &[Point], range: f64) -> Result<f64, PlanError> {
    if let Some(cells) = cfg.tile_cells {
        if !(cells > 0.0 && cells.is_finite()) {
            return Err(PlanError::Unsupported(format!(
                "tile size must be a positive finite number of range-cells, got {cells}"
            )));
        }
        return Ok(cells * range);
    }
    if live.is_empty() {
        return Ok((2.0 * range).max(1.0));
    }
    let bb = mdg_geom::Aabb::from_points(live).expect("non-empty live set");
    let area = (bb.width() * bb.height()).max(1e-12);
    let target = cfg.target_per_tile.max(1) as f64;
    let side = (target * area / live.len() as f64).sqrt();
    Ok(side.max(2.0 * range))
}

/// Plans every occupied tile (non-empty member list), fanned out across
/// tiles in serpentine order. Each tile is a pure function of its own
/// members; `par_map` preserves order and nested parallel calls inside a
/// tile run inline, so the result is bit-identical at any thread count.
///
/// A lone occupied tile is the whole field: it is planned as one region
/// toured from the sink, exactly like the flat planner, and its tour is
/// the plan's cycle.
fn plan_all_tiles(
    sensors: &[Point],
    sink: Point,
    tiling: &Tiling,
    members: &[Vec<u32>],
    range: f64,
    base: &PlannerConfig,
) -> Vec<Option<TilePlan>> {
    let occupied: Vec<usize> = tiling
        .serpentine()
        .filter(|&t| !members[t].is_empty())
        .collect();
    mdg_obs::counter("hier/tiles").add(occupied.len() as u64);
    let planned: Vec<TilePlan> = {
        let mut sp = mdg_obs::span("tiles");
        sp.add_items(occupied.len() as u64);
        mdg_par::par_map(occupied.len(), |k| {
            let t = occupied[k];
            if occupied.len() == 1 {
                plan_tile(sensors, &members[t], range, Some(sink), sink, base)
            } else {
                let center = tiling.tile_center(t);
                plan_tile(sensors, &members[t], range, None, center, base)
            }
        })
    };
    let mut tiles: Vec<Option<TilePlan>> = vec![None; tiling.n_tiles()];
    for (k, tp) in planned.into_iter().enumerate() {
        tiles[occupied[k]] = Some(tp);
    }
    tiles
}

/// Plans one tile: the region pipeline on the tile's subset instance,
/// toured from `depot` if given (a lone tile) or as a depot-less cycle,
/// with cover ties broken toward `anchor`; stops and choices are mapped
/// to global sensor ids.
fn plan_tile(
    sensors: &[Point],
    subset: &[u32],
    range: f64,
    depot: Option<Point>,
    anchor: Point,
    base: &PlannerConfig,
) -> TilePlan {
    let mut sp = mdg_obs::span("tile");
    sp.add_items(subset.len() as u64);
    // Sensor-site instances are always feasible (each sensor covers
    // itself).
    let inst = CoverageInstance::sensor_sites_subset(sensors, subset, range);
    let region = plan_region(&inst, depot, anchor, base);
    TilePlan {
        stops: region
            .stops
            .iter()
            .map(|&c| inst.candidates[c].pos)
            .collect(),
        cands: region.stops.iter().map(|&c| subset[c]).collect(),
        chosen: region
            .assignment
            .iter()
            .map(|&k| subset[region.stops[k]])
            .collect(),
    }
}

/// Concatenates tile sub-tours into one depot-anchored cycle.
///
/// Tiles arrive in serpentine order, so consecutive sub-tours are
/// spatial neighbors. Each sub-tour with ≥ 3 stops is opened at its
/// longest edge (ties: earliest cycle position) and appended in the
/// orientation whose entry point is nearer the current cycle tail
/// (ties: forward). Sub-tours with 1–2 stops are deferred and spliced
/// individually at their cheapest insertion position — an "empty-ish
/// tile" never panics, it just rides the splice path. A lone tile was
/// toured from the sink (see [`plan_all_tiles`]), so its tour is taken
/// as the cycle unchanged.
///
/// Writes the cycle into caller-owned buffers (cleared first): `cycle_pts`
/// gets the positions with the sink first, `cands` the global sensor id
/// per stop, `seam` a seam flag per stop. Returns the spliced stop count.
/// Buffer reuse keeps the per-delta re-stitch off the allocator.
fn stitch(
    sink: Point,
    tile_plans: &[&TilePlan],
    cycle_pts: &mut Vec<Point>,
    cands: &mut Vec<u32>,
    seam: &mut Vec<bool>,
) -> usize {
    let total: usize = tile_plans.iter().map(|tp| tp.stops.len()).sum();
    cycle_pts.clear();
    cycle_pts.reserve(total + 1);
    cycle_pts.push(sink);
    cands.clear();
    cands.reserve(total);
    seam.clear();
    seam.reserve(total);
    if let [tp] = tile_plans {
        cycle_pts.extend_from_slice(&tp.stops);
        cands.extend_from_slice(&tp.cands);
        seam.resize(tp.stops.len(), false);
        return 0;
    }
    let mut deferred: Vec<(Point, u32)> = mdg_par::scratch::take();

    let mut path: Vec<usize> = mdg_par::scratch::take();
    for &tp in tile_plans {
        let m = tp.stops.len();
        if m == 0 {
            continue;
        }
        if m <= 2 {
            deferred.extend(tp.stops.iter().copied().zip(tp.cands.iter().copied()));
            continue;
        }
        // Open the sub-tour at its longest edge: the cheapest edge to
        // sacrifice for the two seams this tile contributes.
        let mut cut = 0;
        let mut cut_len = tp.stops[0].dist(tp.stops[1 % m]);
        for i in 1..m {
            let len = tp.stops[i].dist(tp.stops[(i + 1) % m]);
            if len > cut_len {
                cut = i;
                cut_len = len;
            }
        }
        path.clear();
        path.extend((1..=m).map(|j| (cut + j) % m));
        let tail = *cycle_pts.last().expect("cycle starts with the sink");
        if tail.dist(tp.stops[path[m - 1]]) < tail.dist(tp.stops[path[0]]) {
            path.reverse();
        }
        let start = cands.len();
        for &i in &path {
            cycle_pts.push(tp.stops[i]);
            cands.push(tp.cands[i]);
            seam.push(false);
        }
        seam[start] = true;
        *seam.last_mut().expect("just pushed") = true;
    }
    mdg_par::scratch::put(path);

    // Splice the stragglers one by one.
    let spliced = deferred.len();
    for &(p, c) in &deferred {
        let (idx, _) = cheapest_insertion_position(cycle_pts, p);
        cycle_pts.insert(idx, p);
        cands.insert(idx - 1, c);
        seam.insert(idx - 1, true);
        // A splice also perturbs the stops it lands between.
        if idx >= 2 {
            seam[idx - 2] = true;
        }
        if idx < seam.len() {
            seam[idx] = true;
        }
    }
    mdg_par::scratch::put(deferred);
    spliced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{CoveringStrategy, ShdgPlanner};
    use mdg_net::DeploymentConfig;

    fn net(n: usize, side: f64, seed: u64) -> Network {
        Network::build(DeploymentConfig::uniform(n, side).generate(seed), 30.0)
    }

    #[test]
    fn hier_plan_is_valid_and_covers_everything() {
        let net = net(600, 600.0, 3);
        let (plan, stats) = HierPlanner::with_config(HierConfig {
            tile_cells: Some(6.0), // 180 m tiles → a real multi-tile field
            ..HierConfig::default()
        })
        .plan_with_stats(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert!(stats.n_occupied > 1, "field must actually be tiled");
        assert_eq!(plan.assignment.len(), 600);
    }

    #[test]
    fn hier_tracks_flat_quality_on_small_fields() {
        for seed in [1u64, 5, 9] {
            let net = net(500, 500.0, seed);
            let flat = ShdgPlanner::new().plan(&net).unwrap();
            let hier = HierPlanner::with_config(HierConfig {
                tile_cells: Some(5.0),
                ..HierConfig::default()
            })
            .plan(&net)
            .unwrap();
            assert!(
                hier.tour_length <= flat.tour_length * 1.25 + 1e-9,
                "seed {seed}: hier {} vs flat {}",
                hier.tour_length,
                flat.tour_length
            );
        }
    }

    #[test]
    fn single_tile_is_the_flat_plan() {
        // Auto sizing on a small field yields one tile, planned as one
        // region toured from the sink: the flat plan, bit for bit.
        let net = net(200, 250.0, 11);
        let flat = ShdgPlanner::new().plan(&net).unwrap();
        let (hier, stats) = HierPlanner::new().plan_with_stats(&net).unwrap();
        assert_eq!(stats.n_occupied, 1);
        assert_eq!(stats.spliced_stops, 0);
        assert_eq!(hier, flat);
    }

    #[test]
    fn empty_and_tiny_networks() {
        let empty = Network::build(DeploymentConfig::uniform(0, 100.0).generate(1), 30.0);
        let plan = plan_hier(&empty).unwrap();
        assert_eq!(plan.n_polling_points(), 0);
        assert_eq!(plan.tour_length, 0.0);

        let one = Network::build(DeploymentConfig::uniform(1, 100.0).generate(1), 30.0);
        let plan = plan_hier(&one).unwrap();
        plan.validate(&one.deployment.sensors, one.range).unwrap();
        assert_eq!(plan.n_polling_points(), 1);

        let three = Network::build(DeploymentConfig::uniform(3, 400.0).generate(2), 30.0);
        let plan = plan_hier(&three).unwrap();
        plan.validate(&three.deployment.sensors, three.range)
            .unwrap();
    }

    #[test]
    fn sparse_tiles_ride_the_splice_path() {
        // Tiny tiles force many 1–2 stop sub-tours through `stitch`'s
        // deferred splice branch; the plan must still validate.
        let net = net(120, 500.0, 4);
        let (plan, stats) = HierPlanner::with_config(HierConfig {
            tile_cells: Some(2.0), // 60 m tiles over a 500 m field
            ..HierConfig::default()
        })
        .plan_with_stats(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        assert!(stats.spliced_stops > 0, "want the splice path exercised");
    }

    #[test]
    fn empty_tiles_flow_through_stitching_without_panicking() {
        // A tile that selected no polling points (and true empty tiles)
        // must ride through `stitch` as a no-op.
        let sink = Point::new(0.0, 0.0);
        let square = TilePlan {
            stops: vec![
                Point::new(10.0, 0.0),
                Point::new(20.0, 0.0),
                Point::new(20.0, 10.0),
                Point::new(10.0, 10.0),
            ],
            cands: vec![0, 1, 2, 3],
            chosen: vec![],
        };
        let empty = || TilePlan {
            stops: vec![],
            cands: vec![],
            chosen: vec![],
        };
        let (e1, e2, e3) = (empty(), empty(), empty());
        let lone = TilePlan {
            stops: vec![Point::new(30.0, 5.0)],
            cands: vec![4],
            chosen: vec![],
        };
        let (mut pts, mut cands, mut seam) = (Vec::new(), Vec::new(), Vec::new());
        let spliced = stitch(
            sink,
            &[&e1, &square, &e2, &lone, &e3],
            &mut pts,
            &mut cands,
            &mut seam,
        );
        assert_eq!(pts.len(), 6, "sink + 4 square stops + 1 spliced");
        assert_eq!(cands.len(), 5);
        assert_eq!(seam.len(), 5);
        assert_eq!(spliced, 1);
        assert!(cands.contains(&4), "the lone stop was spliced in");

        // All tiles empty: just the sink, nothing spliced (and the
        // out-buffers are cleared of the previous stitch).
        let spliced = stitch(sink, &[&e1], &mut pts, &mut cands, &mut seam);
        assert_eq!(pts, vec![sink]);
        assert!(cands.is_empty());
        assert_eq!(spliced, 0);
    }

    #[test]
    fn grid_candidates_are_rejected() {
        let net = net(50, 200.0, 1);
        let err = HierPlanner::with_config(HierConfig {
            base: PlannerConfig {
                candidates: CandidateMode::Grid { spacing: 20.0 },
                ..PlannerConfig::default()
            },
            ..HierConfig::default()
        })
        .plan(&net)
        .unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)));
    }

    #[test]
    fn bad_tile_cells_is_a_clean_error() {
        let net = net(50, 200.0, 1);
        for cells in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = HierPlanner::with_config(HierConfig {
                tile_cells: Some(cells),
                ..HierConfig::default()
            })
            .plan(&net)
            .unwrap_err();
            assert!(matches!(err, PlanError::Unsupported(_)), "cells={cells}");
        }
    }

    #[test]
    fn capacitated_hier_respects_the_buffer_bound() {
        let net = net(300, 400.0, 6);
        let cap = 5;
        let plan = HierPlanner::with_config(HierConfig {
            base: PlannerConfig {
                max_sensors_per_pp: Some(cap),
                ..PlannerConfig::default()
            },
            tile_cells: Some(5.0),
            ..HierConfig::default()
        })
        .plan(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
        for pp in &plan.polling_points {
            assert!(pp.covered.len() <= cap, "buffer bound violated");
        }
    }

    #[test]
    fn greedy_covering_works_per_tile() {
        let net = net(400, 450.0, 8);
        let plan = HierPlanner::with_config(HierConfig {
            base: PlannerConfig {
                covering: CoveringStrategy::Greedy,
                ..PlannerConfig::default()
            },
            tile_cells: Some(5.0),
            ..HierConfig::default()
        })
        .plan(&net)
        .unwrap();
        plan.validate(&net.deployment.sensors, net.range).unwrap();
    }

    #[test]
    fn hier_is_deterministic_across_runs() {
        let net = net(700, 600.0, 12);
        let cfg = HierConfig {
            tile_cells: Some(6.0),
            ..HierConfig::default()
        };
        let a = HierPlanner::with_config(cfg).plan(&net).unwrap();
        let b = HierPlanner::with_config(cfg).plan(&net).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn touch_up_never_lengthens_the_stitched_tour() {
        for seed in [2u64, 7, 13] {
            let net = net(500, 550.0, seed);
            let base = HierConfig {
                tile_cells: Some(5.0),
                touch_up: false,
                ..HierConfig::default()
            };
            let raw = HierPlanner::with_config(base).plan(&net).unwrap();
            let polished = HierPlanner::with_config(HierConfig {
                touch_up: true,
                ..base
            })
            .plan(&net)
            .unwrap();
            assert!(
                polished.tour_length <= raw.tour_length + 1e-9,
                "seed {seed}: touch-up lengthened {} -> {}",
                raw.tour_length,
                polished.tour_length
            );
        }
    }

    // ---- retained HierPlan / apply_delta -------------------------------

    /// A multi-tile field with its (initially all-alive) mask.
    fn field(n: usize, side: f64, seed: u64) -> (Vec<Point>, Point, Vec<bool>) {
        let dep = DeploymentConfig::uniform(n, side).generate(seed);
        let alive = vec![true; n];
        (dep.sensors, dep.sink, alive)
    }

    fn multi_tile_cfg() -> HierConfig {
        HierConfig {
            tile_cells: Some(6.0), // 180 m tiles
            ..HierConfig::default()
        }
    }

    #[test]
    fn retained_build_matches_planner_output() {
        let net = net(600, 600.0, 3);
        let cfg = multi_tile_cfg();
        let (via_planner, stats_p) = HierPlanner::with_config(cfg).plan_with_stats(&net).unwrap();
        let hp =
            HierPlan::build(&net.deployment.sensors, net.deployment.sink, net.range, cfg).unwrap();
        assert_eq!(hp.plan(), &via_planner);
        assert_eq!(hp.stats(), stats_p);
        assert!(hp.approx_bytes() > 0);
    }

    #[test]
    fn clustered_death_replans_only_owning_tiles() {
        let (mut_sensors, sink, mut alive) = field(800, 600.0, 3);
        let sensors = mut_sensors;
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        assert!(hp.stats().n_occupied > 4, "need a real multi-tile field");

        // Kill the three lowest-id sensors in one corner tile.
        let t0 = hp.tiling.tile_of(sensors[0]);
        let died: Vec<u32> = sensors
            .iter()
            .enumerate()
            .filter(|&(_, &p)| hp.tiling.tile_of(p) == t0)
            .take(3)
            .map(|(s, _)| s as u32)
            .collect();
        assert!(!died.is_empty());
        for &d in &died {
            alive[d as usize] = false;
        }
        let report = hp.apply_delta(&sensors, &alive, &died, None).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.dirty_tiles, 1, "one tile owns all three deaths");
        assert!(report.replanned_stops < hp.plan().n_polling_points());
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
        assert!(hp.plan().unassigned_sensors(&alive).is_empty());
    }

    #[test]
    fn additions_extend_the_plan_incrementally() {
        let (mut sensors, sink, mut alive) = field(700, 600.0, 5);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        sensors.push(Point::new(300.0, 310.0));
        sensors.push(Point::new(302.0, 308.0));
        alive.extend([true, true]);
        let report = hp.apply_delta(&sensors, &alive, &[], None).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.dirty_tiles, 1, "co-located additions share a tile");
        assert_eq!(hp.plan().assignment.len(), 702);
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
    }

    #[test]
    fn noop_delta_leaves_the_plan_untouched() {
        let (sensors, sink, alive) = field(500, 500.0, 9);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        let before = hp.plan().clone();
        // Already-dead / unknown ids are tolerated and ignored; a range
        // "change" within tolerance is a no-op too.
        let report = hp.apply_delta(&sensors, &alive, &[], Some(30.0)).unwrap();
        assert!(report.is_noop());
        assert_eq!(hp.plan(), &before);
    }

    #[test]
    fn range_change_escalates_to_full_rebuild() {
        let (sensors, sink, alive) = field(600, 600.0, 4);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        let report = hp.apply_delta(&sensors, &alive, &[], Some(45.0)).unwrap();
        assert!(report.full_rebuild);
        assert_eq!(hp.range(), 45.0);
        hp.plan().validate_live(&sensors, 45.0, &alive).unwrap();
        // The rebuilt plan matches a cold build at the new range exactly.
        let cold = HierPlan::build(&sensors, sink, 45.0, multi_tile_cfg()).unwrap();
        assert_eq!(hp.plan(), cold.plan());
    }

    #[test]
    fn mass_death_escalates_to_full_rebuild() {
        let (sensors, sink, mut alive) = field(600, 600.0, 8);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        // Kill every other sensor — that dirties essentially every tile.
        let died: Vec<u32> = (0..600u32).step_by(2).collect();
        for &d in &died {
            alive[d as usize] = false;
        }
        let report = hp.apply_delta(&sensors, &alive, &died, None).unwrap();
        assert!(report.full_rebuild, "half the field must escalate");
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
    }

    #[test]
    fn delta_sequence_is_deterministic_across_thread_counts() {
        let run = |threads: usize| {
            mdg_par::set_threads(threads);
            let (mut sensors, sink, mut alive) = field(800, 650.0, 21);
            let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
            for round in 0..5u64 {
                let died: Vec<u32> = (0..4u64)
                    .map(|i| ((round * 7919 + i * 104_729) % 800) as u32)
                    .filter(|&d| alive[d as usize])
                    .collect();
                for &d in &died {
                    alive[d as usize] = false;
                }
                if round % 2 == 1 {
                    let g = sensors.len();
                    sensors.push(Point::new(
                        (g as f64 * 37.0) % 650.0,
                        (g as f64 * 53.0) % 650.0,
                    ));
                    alive.push(true);
                }
                hp.apply_delta(&sensors, &alive, &died, None).unwrap();
                hp.plan()
                    .validate_live(&sensors, hp.range(), &alive)
                    .unwrap();
            }
            mdg_par::set_threads(0);
            hp.plan().clone()
        };
        let single = run(1);
        let quad = run(4);
        assert_eq!(single, quad, "delta replans must be thread-invariant");
    }

    #[test]
    fn churned_plan_tracks_a_cold_replan() {
        let (mut sensors, sink, mut alive) = field(900, 700.0, 30);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        for round in 0..8u64 {
            let died: Vec<u32> = (0..5u64)
                .map(|i| ((round * 6151 + i * 92_821) % 900) as u32)
                .filter(|&d| alive[d as usize])
                .collect();
            for &d in &died {
                alive[d as usize] = false;
            }
            let g = sensors.len();
            sensors.push(Point::new(
                (g as f64 * 41.0) % 700.0,
                (g as f64 * 59.0) % 700.0,
            ));
            alive.push(true);
            hp.apply_delta(&sensors, &alive, &died, None).unwrap();
        }
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
        // Cold re-plan of the live field as the quality yardstick.
        let live: Vec<Point> = sensors
            .iter()
            .zip(&alive)
            .filter_map(|(&p, &a)| a.then_some(p))
            .collect();
        let cold = HierPlan::build(&live, sink, 30.0, multi_tile_cfg()).unwrap();
        assert!(
            hp.plan().tour_length <= cold.plan().tour_length * 1.3 + 1e-9,
            "incremental {} vs cold {}",
            hp.plan().tour_length,
            cold.plan().tour_length
        );
    }

    /// Replays a churn sequence on `field(n, side, seed)` and hands the
    /// plan to `check` after every patched delta.
    fn churn(
        n: usize,
        side: f64,
        seed: u64,
        rounds: u64,
        mut check: impl FnMut(&HierPlan, &[Point], &[bool]),
    ) {
        let (mut sensors, sink, mut alive) = field(n, side, seed);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        for round in 0..rounds {
            // Kill a stop anchor every other round: that changes the
            // dirty tile's stop count and shifts the stops after it.
            let victim = if round % 2 == 0 {
                let pps = &hp.plan().polling_points;
                pps[(round as usize * 37 + seed as usize) % pps.len()].candidate as u32
            } else {
                ((round * 7919 + seed * 104_729) % n as u64) as u32
            };
            let died: Vec<u32> = [victim]
                .into_iter()
                .filter(|&d| alive[d as usize])
                .collect();
            for &d in &died {
                alive[d as usize] = false;
            }
            if round % 3 == 1 {
                let g = sensors.len();
                sensors.push(Point::new(
                    (g as f64 * 41.0) % side,
                    (g as f64 * 59.0) % side,
                ));
                alive.push(true);
            }
            let report = hp.apply_delta(&sensors, &alive, &died, None).unwrap();
            if !report.full_rebuild {
                check(&hp, &sensors, &alive);
            }
        }
    }

    #[test]
    fn patched_plan_equals_a_full_reassignment() {
        for seed in [3u64, 8, 21] {
            churn(900, 700.0, seed, 12, |hp, sensors, alive| {
                hp.validate_delta(sensors, alive).unwrap();
                hp.plan().validate_live(sensors, hp.range(), alive).unwrap();
                // Rebuild the assignment and every covered list from the
                // tiles' choices over the same stitched stops.
                let cands: Vec<u32> = hp
                    .plan()
                    .polling_points
                    .iter()
                    .map(|pp| pp.candidate as u32)
                    .collect();
                let full = hp.clone().assign_all(sensors, &cands);
                assert_eq!(&full, hp.plan(), "seed {seed}");
            });
        }
    }

    #[test]
    fn delta_check_rejects_corruption_in_the_footprint() {
        let (mut flipped, mut dropped, mut stale) = (0, 0, 0);
        churn(900, 700.0, 5, 16, |hp, sensors, alive| {
            hp.validate_delta(sensors, alive).unwrap();
            let fp = &hp.footprint;
            let tile = fp
                .tiles
                .iter()
                .map(|&t| t as usize)
                .find(|&t| !hp.members[t].is_empty());
            if let Some(t) = tile {
                // A dirty member's assignment flipped to another stop.
                let s = hp.members[t][0] as usize;
                let mut bad = hp.clone();
                let m = bad.plan.polling_points.len();
                bad.plan.assignment[s] = (bad.plan.assignment[s] + 1) % m;
                let err = bad.validate_delta(sensors, alive).unwrap_err();
                assert!(err.contains(&format!("sensor {s}")), "{err}");
                flipped += 1;

                // A dirty stop's covered list loses an entry.
                let mut bad = hp.clone();
                let k = bad.plan.assignment[s];
                bad.plan.polling_points[k]
                    .covered
                    .retain(|&x| x as usize != s);
                assert!(bad.validate_delta(sensors, alive).is_err());
                dropped += 1;

                // ... or lists it twice.
                let mut bad = hp.clone();
                bad.plan.polling_points[k].covered.push(s as u32);
                let err = bad.validate_delta(sensors, alive).unwrap_err();
                assert!(err.contains("entries"), "{err}");
            }
            if let Some(&k) = fp.shifted.first() {
                // A moved stop's sensor keeps pointing at another index.
                let mut bad = hp.clone();
                let k = k as usize;
                let s = *bad.plan.polling_points[k].covered.first().unwrap() as usize;
                let m = bad.plan.polling_points.len();
                bad.plan.assignment[s] = (k + m - 1) % m;
                let err = bad.validate_delta(sensors, alive).unwrap_err();
                assert!(err.contains("moved stop"), "{err}");
                stale += 1;
            }
            // The full audit agrees on every corruption-free plan.
            hp.plan().validate_live(sensors, hp.range(), alive).unwrap();
        });
        assert!(
            flipped > 0 && dropped > 0 && stale > 0,
            "{flipped}/{dropped}/{stale}"
        );
    }

    #[test]
    fn delta_check_audits_everything_after_a_rebuild() {
        let (sensors, sink, alive) = field(600, 600.0, 4);
        let mut hp = HierPlan::build(&sensors, sink, 30.0, multi_tile_cfg()).unwrap();
        assert!(hp.footprint.full, "the cold plan was written whole");
        hp.validate_delta(&sensors, &alive).unwrap();
        // A corruption far from any delta is only visible to the audit.
        let mut bad = hp.clone();
        let last = bad.plan.polling_points.len() - 1;
        bad.plan.polling_points[last].covered.clear();
        assert!(bad.validate_delta(&sensors, &alive).is_err());
        // A no-op delta writes nothing and has nothing to check.
        hp.apply_delta(&sensors, &alive, &[], None).unwrap();
        assert!(!hp.footprint.full && hp.footprint.tiles.is_empty());
        hp.validate_delta(&sensors, &alive).unwrap();
    }

    #[test]
    fn empty_build_grows_via_escalation() {
        let sink = Point::new(50.0, 50.0);
        let mut hp = HierPlan::build(&[], sink, 30.0, HierConfig::default()).unwrap();
        assert_eq!(hp.plan().n_polling_points(), 0);
        let sensors: Vec<Point> = (0..40)
            .map(|i| Point::new((i as f64 * 17.0) % 100.0, (i as f64 * 29.0) % 100.0))
            .collect();
        let alive = vec![true; 40];
        let report = hp.apply_delta(&sensors, &alive, &[], None).unwrap();
        assert!(report.full_rebuild, "growth from empty must re-tile");
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap();
        assert_eq!(hp.plan().assignment.len(), 40);
    }
}
