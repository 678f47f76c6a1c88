//! Seeded input generation shared by the workloads.
//!
//! Everything the program under test receives is derived here from the
//! `--seed` argument, so one seed always yields the same inputs.

use so_workloads::rng::{mix64, unit};

/// SplitMix64 over `(seed, x)`: the finalizer applied to a golden-ratio
/// combination of both words.
pub fn mix(seed: u64, x: u64) -> u64 {
    mix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(x.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB),
    )
}

/// A stream of independent draws keyed by `(seed, stream)`.
#[derive(Debug, Clone)]
pub struct Draws {
    key: u64,
    next: u64,
}

impl Draws {
    /// Draw stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self {
            key: mix(seed, stream),
            next: 0,
        }
    }

    /// Next 64-bit draw.
    pub fn word(&mut self) -> u64 {
        self.next += 1;
        mix(self.key, self.next)
    }

    /// Next draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.word() % n as u64) as usize
    }

    /// Next draw in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * unit(self.word())
    }
}

/// Hourly diurnal power rows with a weekly envelope: each row has a
/// hashed baseline, amplitude and phase, sampled over one week. This is
/// the same waveform family the repository's online and daemon rungs
/// synthesize (`RowWave`), re-derived here because the program keeps its
/// generator private.
#[derive(Debug, Clone)]
pub struct Waves {
    day_sin: Vec<f64>,
    day_cos: Vec<f64>,
    week_sin: Vec<f64>,
}

impl Waves {
    /// Basis tables for rows of `samples` points spanning one week.
    pub fn new(samples: usize) -> Self {
        let per_week = samples as f64;
        let per_day = per_week / 7.0;
        let mut w = Self {
            day_sin: Vec::with_capacity(samples),
            day_cos: Vec::with_capacity(samples),
            week_sin: Vec::with_capacity(samples),
        };
        for t in 0..samples {
            let day = std::f64::consts::TAU * (t as f64 / per_day);
            let week = std::f64::consts::TAU * (t as f64 / per_week);
            w.day_sin.push(day.sin());
            w.day_cos.push(day.cos());
            w.week_sin.push(week.sin());
        }
        w
    }

    /// Row `row` of wave family `seed`.
    pub fn row(&self, seed: u64, row: u64) -> Vec<f64> {
        let h = mix(seed, row);
        let u0 = unit(h);
        let u1 = unit(h.rotate_left(21));
        let phase = std::f64::consts::TAU * unit(h.rotate_left(42));
        let (baseline, amplitude) = (120.0 + 80.0 * u0, 40.0 + 60.0 * u1);
        let (cos_p, sin_p, weekly) = (phase.cos(), phase.sin(), 0.15 + 0.1 * u0);
        (0..self.day_sin.len())
            .map(|t| {
                let envelope =
                    self.day_sin[t] * cos_p + self.day_cos[t] * sin_p + weekly * self.week_sin[t];
                baseline + amplitude * envelope.max(-1.0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_seeded_and_positive() {
        let w = Waves::new(168);
        assert_eq!(w.row(7, 3), w.row(7, 3));
        assert_ne!(w.row(7, 3), w.row(8, 3));
        assert!(w.row(7, 3).iter().all(|&v| v >= 20.0));
    }

    #[test]
    fn draws_are_seeded() {
        let a: Vec<usize> = {
            let mut d = Draws::new(1, 2);
            (0..8).map(|_| d.below(100)).collect()
        };
        let mut d = Draws::new(1, 2);
        assert!(a.iter().all(|&x| x == d.below(100)));
        let mut e = Draws::new(1, 3);
        assert!(a.iter().any(|&x| x != e.below(100)));
    }
}
