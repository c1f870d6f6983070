//! Seeded input generation. The benchmark owns its generator, so the
//! inputs of a seed stay the same whatever the program's own RNG does.

use mdg_geom::Point;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent input stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Side of the square field for `n` sensors at the paper's density
/// (√n · 10 m).
pub fn side_for(n: usize) -> f64 {
    (n as f64).sqrt() * 10.0
}

/// `n` sensors uniform over `[0, side]²`.
pub fn uniform_field(rng: &mut Rng, n: usize, side: f64) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(rng.unit() * side, rng.unit() * side))
        .collect()
}

/// One field mutation as the client sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub died: Vec<u64>,
    pub added: Vec<Point>,
}

/// Generates a churn stream: each delta kills `deaths` sensors drawn from
/// the live ones, and every `grow_every`-th delta also adds one sensor
/// at a uniform position. Added sensors take the next id, as the session
/// appends them, and may die in later deltas.
pub struct ChurnGen {
    rng: Rng,
    live: Vec<u32>,
    slots: usize,
    side: f64,
    deaths: usize,
    grow_every: usize,
    made: usize,
}

impl ChurnGen {
    pub fn new(rng: Rng, n: usize, side: f64, deaths: usize, grow_every: usize) -> ChurnGen {
        ChurnGen {
            rng,
            live: (0..n as u32).collect(),
            slots: n,
            side,
            deaths,
            grow_every,
            made: 0,
        }
    }

    pub fn next_delta(&mut self) -> Delta {
        let died = (0..self.deaths.min(self.live.len()))
            .map(|_| {
                let i = self.rng.below(self.live.len());
                self.live.swap_remove(i) as u64
            })
            .collect();
        self.made += 1;
        let added = if self.made.is_multiple_of(self.grow_every) {
            self.live.push(self.slots as u32);
            self.slots += 1;
            vec![Point::new(
                self.rng.unit() * self.side,
                self.rng.unit() * self.side,
            )]
        } else {
            Vec::new()
        };
        Delta { died, added }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = uniform_field(&mut Rng::new(7, 1), 100, 50.0);
        let b = uniform_field(&mut Rng::new(7, 1), 100, 50.0);
        let c = uniform_field(&mut Rng::new(8, 1), 100, 50.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|p| (0.0..50.0).contains(&p.x) && (0.0..50.0).contains(&p.y)));
    }

    #[test]
    fn deaths_come_only_from_live_sensors() {
        let n = 200;
        let mut gen = ChurnGen::new(Rng::new(3, 2), n, 100.0, 3, 4);
        let mut alive = vec![true; n];
        for k in 1..=40 {
            let d = gen.next_delta();
            assert_eq!(d.died.len(), 3);
            for &s in &d.died {
                assert!(
                    alive[s as usize],
                    "delta {k} kills dead or unknown sensor {s}"
                );
                alive[s as usize] = false;
            }
            assert_eq!(d.added.len(), usize::from(k % 4 == 0));
            alive.extend(d.added.iter().map(|_| true));
        }
        assert_eq!(alive.len(), n + 10);
    }

    #[test]
    fn added_sensors_can_die_later() {
        let mut gen = ChurnGen::new(Rng::new(1, 2), 2, 10.0, 1, 1);
        let mut dead = Vec::new();
        for _ in 0..6 {
            dead.extend(gen.next_delta().died);
        }
        dead.sort_unstable();
        assert!(
            dead.iter().any(|&s| s >= 2),
            "ids past the cold field never died"
        );
        dead.dedup();
        assert_eq!(dead.len(), 6, "a sensor died twice");
    }
}
