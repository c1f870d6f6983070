//! Golden per-delta fingerprints for the retained hierarchical plan.
//!
//! A 20k-sensor field absorbs a fixed 60-delta sequence of deaths and
//! additions through [`HierPlan::apply_delta`] (one delta in the middle
//! kills enough of the field to escalate to a full rebuild, so the
//! patched path also resumes after a rebuild). After the cold build and
//! after every delta, the plan is reduced to a fingerprint: the tour
//! length's bits plus an FNV-1a hash of the assignment and of every
//! polling point's position, candidate and `covered` list.
//!
//! The table below was recorded before the warm delta path learned to
//! patch the plan per tile instead of rebuilding it, so it pins every
//! plan that path produces to the bit. It must hold at 1 and 4 worker
//! threads, with the scratch arenas off, and with poisoned arenas.
//!
//! Every plan also passes both the full `validate_live` audit and the
//! delta-scoped `HierPlan::validate_delta` check. On a mismatch the test
//! prints the full fingerprint table it computed.

use mobile_collectors::core::{GatheringPlan, HierConfig, HierPlan};
use mobile_collectors::geom::Point;
use mobile_collectors::net::DeploymentConfig;
use mobile_collectors::par;
use std::sync::{Mutex, MutexGuard, OnceLock};

const N: usize = 20_000;
const SIDE: f64 = 1_414.0;
const RANGE: f64 = 30.0;
const SEED: u64 = 17;
const DELTAS: u64 = 60;
/// The delta that kills every 40th live sensor, dirtying most tiles.
const MASS_DEATH: u64 = 30;

/// Serializes the tests around the process-global thread and scratch
/// overrides (and honors `MDG_COUNT_ALLOC`, like the other suites).
fn lock() -> MutexGuard<'static, ()> {
    mobile_collectors::obs::alloc::counting_from_env();
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores every global a test mutates, even when an assert fires.
struct Restore;

impl Drop for Restore {
    fn drop(&mut self) {
        par::scratch::set_poison(false);
        par::scratch::set_enabled(true);
        par::set_threads(0);
    }
}

fn cfg() -> HierConfig {
    HierConfig {
        // 8 × 30 m = 240 m tiles: a 6×6 lattice of ~550-sensor tiles, so
        // single deaths stay local and many seams exist.
        tile_cells: Some(8.0),
        ..HierConfig::default()
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

/// Deterministic pseudo-random stream for the delta sequence.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z ^= z >> 31;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 29)
}

/// Plans the field cold, replays the delta sequence, and returns the
/// fingerprint of the cold plan followed by one per delta.
fn replay() -> Vec<(u64, u64)> {
    let dep = DeploymentConfig::uniform(N, SIDE).generate(SEED);
    let mut sensors = dep.sensors;
    let mut alive = vec![true; sensors.len()];
    let mut hp = HierPlan::build(&sensors, dep.sink, RANGE, cfg()).expect("cold plan");
    let mut prints = vec![fingerprint(hp.plan())];
    for d in 0..DELTAS {
        let mut died: Vec<u32> = Vec::new();
        if d == MASS_DEATH {
            died.extend((0..sensors.len() as u32).filter(|&s| alive[s as usize] && s % 40 == 7));
        } else {
            // One to three deaths, sometimes of a polling point's anchor.
            for i in 0..1 + mix(d, 1) % 3 {
                let s = if (d + i) % 4 == 0 {
                    let pps = &hp.plan().polling_points;
                    pps[(mix(d, 10 + i) % pps.len() as u64) as usize].candidate as u32
                } else {
                    (mix(d, 20 + i) % sensors.len() as u64) as u32
                };
                if alive[s as usize] && !died.contains(&s) {
                    died.push(s);
                }
            }
        }
        for &s in &died {
            alive[s as usize] = false;
        }
        // Growth every third delta; one addition lands outside the
        // original field's bounding box (clamped into an edge tile).
        if d % 3 == 2 {
            let k = 1 + mix(d, 2) % 2;
            for i in 0..k {
                let p = if d == 14 && i == 0 {
                    Point::new(-12.0, SIDE + 9.0)
                } else {
                    Point::new(
                        (mix(d, 30 + i) % 1_000_000) as f64 / 1e6 * SIDE,
                        (mix(d, 40 + i) % 1_000_000) as f64 / 1e6 * SIDE,
                    )
                };
                sensors.push(p);
                alive.push(true);
            }
        }
        let report = hp
            .apply_delta(&sensors, &alive, &died, None)
            .unwrap_or_else(|e| panic!("delta {d}: {e}"));
        assert_eq!(
            report.full_rebuild,
            d == MASS_DEATH,
            "delta {d}: {report:?}"
        );
        hp.plan()
            .validate_live(&sensors, hp.range(), &alive)
            .unwrap_or_else(|e| panic!("delta {d}: {e}"));
        hp.validate_delta(&sensors, &alive)
            .unwrap_or_else(|e| panic!("delta {d}: {e}"));
        prints.push(fingerprint(hp.plan()));
    }
    prints
}

/// Fingerprints recorded from the rebuild-everything materialize:
/// index 0 is the cold plan, index `d + 1` the plan after delta `d`.
const GOLDEN: &[(u64, u64)] = &[
    (0x40e52e663b747d4f, 0x8f6d812a08246340),
    (0x40e746ea34c58673, 0xc388bae46410df27),
    (0x40e733d95378398e, 0xbbb64af0be9ea946),
    (0x40e7e0cea607bbe4, 0x3bafb93204dcbf42),
    (0x40e810c321234164, 0xdcafe362cd48db17),
    (0x40e8234365674145, 0x1d1c5bfd9dd6d178),
    (0x40e6e72434a57e01, 0x07aaf310040fbb2e),
    (0x40e8773726b0dfe9, 0x5a08e65b7ee3d9fc),
    (0x40e81cffa1e216f7, 0xbe3d2e6430aeead0),
    (0x40e7f01e9df0e051, 0xd2036b88e90a25aa),
    (0x40e83f534067f5bd, 0x175cf8fd05ae3385),
    (0x40e82a3164e98787, 0x0e5cc3b5a92e5b21),
    (0x40e842e147a8e726, 0x454407635b9fb996),
    (0x40e8457daba79dec, 0xdc38181fe20a63be),
    (0x40e75a1c9a652416, 0x5b865b2d70369d32),
    (0x40e767144b9f96aa, 0x08fc620adce1fb1f),
    (0x40e8806555127a03, 0x38098b8a7bbeadc5),
    (0x40e84ba8871794c6, 0xce9e8ae90c713438),
    (0x40e7551d66c189e8, 0x4c2da8273bbe32b6),
    (0x40e87a4c15c848df, 0x91bf61681a379465),
    (0x40e86411777790e4, 0x1f4eab55ad5a0b54),
    (0x40e752e5fc166a3f, 0x0eea9073cb891c77),
    (0x40e7718e551644f0, 0x0d3e112aa240b52f),
    (0x40e8451d9b903e44, 0x93d0769bfcfd9f38),
    (0x40e6e259db8f6384, 0x58e4125ebafb020d),
    (0x40e81dc178ae6892, 0xac505929159fea2a),
    (0x40e796cbb2e19722, 0xd1cd1792365bd656),
    (0x40e7d253a9b69058, 0x86e85737ea23a7a6),
    (0x40e8846f7bbcde32, 0xe5d1c173ef2fc289),
    (0x40e81d1115ff8511, 0xda925cd2cb0895b9),
    (0x40e6d74ee9962359, 0x00fa39417cb535ca),
    (0x40e522f7de0eaece, 0x1e4dd8cdbad7a2a5),
    (0x40e8a43d606a77cc, 0xf52b823cac5feb24),
    (0x40e84e897223634f, 0x5c9ce988b3bbf79c),
    (0x40e748bfc248f07b, 0x3fbca4a78b97f173),
    (0x40e846084168cc46, 0x1c8ef048090f09b5),
    (0x40e84686b19a91c2, 0xf798f2f3b6a97391),
    (0x40e845c0ff2225ef, 0x8d907f93dcae794d),
    (0x40e865e08730547b, 0x1dc3fb0b8892bcad),
    (0x40e84bd8b6a0d1f2, 0x5e816695fdf01443),
    (0x40e6e589e245de5d, 0x4e15d279caf19c97),
    (0x40e858eb55b92a61, 0x1a822bf0f36d1652),
    (0x40e81504c3291d39, 0x829b23b6f2676db8),
    (0x40e7fd32b1be3417, 0x0d3b323b06737dcc),
    (0x40e8455ca6888251, 0xe6924cd23b3ca29a),
    (0x40e7d018bf0aeaf7, 0xaf230c757fc6fca1),
    (0x40e84e6d4ee9ceaf, 0xadce96e343140cec),
    (0x40e8313a490694d7, 0x2d0ccb54e6faa333),
    (0x40e8020cdd021df3, 0x16aa9155bef88162),
    (0x40e831d4579dbf19, 0xa098d869844394d3),
    (0x40e73653a0fc3ef0, 0x12455d8bd29a70be),
    (0x40e81854fadaeb15, 0x5081591ee12f15bf),
    (0x40e81ec4925fe1cb, 0xb6a044bb3c3e3fe2),
    (0x40e805ab549db0e0, 0x4bbd027b7cd2e621),
    (0x40e7b833d639e0b5, 0x488b9526692bbee8),
    (0x40e82084198a0b76, 0x26c6fada72a941b3),
    (0x40e80f78cfd9f802, 0xd5eef5bc84b10333),
    (0x40e7cca9c6c3a487, 0xf0512a53f80c55cd),
    (0x40e751d9b4ddf7d2, 0x513458a845b72e8b),
    (0x40e866adbae8e52f, 0xf762bccbbba66a03),
    (0x40e82d2a43944c13, 0xf5ffea7ac2317890),
];

fn assert_golden(label: &str) {
    let got = replay();
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
        panic!("{label}: fingerprints diverge at index {first}; computed table:\n{table}");
    }
}

#[test]
fn delta_fingerprints_match_at_1_and_4_threads() {
    let _g = lock();
    let _r = Restore;
    for threads in [1, 4] {
        par::set_threads(threads);
        assert_golden(&format!("{threads} threads"));
    }
}

#[test]
fn delta_fingerprints_match_with_arenas_off_and_poisoned() {
    let _g = lock();
    let _r = Restore;
    par::set_threads(4);
    par::scratch::set_enabled(false);
    assert_golden("arenas off");
    par::scratch::set_enabled(true);
    par::scratch::set_poison(true);
    assert_golden("arenas poisoned");
}
