//! Host-speed calibration.
//!
//! The host's speed drifts by tens of percent over seconds when other
//! tenants share its cores and caches, which would swamp any change to
//! the program. So every timed sample is scaled by the speed of a fixed
//! calibration burst run around it. The burst is the benchmark's own
//! code (a random read-modify-write walk over a 4 MiB table per thread),
//! so a change to the program moves the sample but never the burst. It
//! tracks the host only in part: it halved the run-to-run spread of the
//! time metrics on the development box, not more.
//!
//! A scaled time is in *reference seconds*: host seconds × ([`NOMINAL_S`]
//! / the burst time measured around the sample). On a quiet host whose
//! burst takes exactly `NOMINAL_S`, reference and host seconds agree.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Burst time that defines one reference second per host second.
pub const NOMINAL_S: f64 = 8e-3;
/// Table entries of the calibration walk (4 MiB of `u64`).
const TABLE: usize = 1 << 19;
/// Steps per burst.
const STEPS: u64 = 200_000;
/// How far from a sample the bursts that scale it may lie.
const WINDOW: Duration = Duration::from_secs(1);

fn abs_diff(a: Instant, b: Instant) -> Duration {
    if a > b {
        a - b
    } else {
        b - a
    }
}

/// A calibration clock: bursts, each stamped with when it ran.
pub struct Calibrator {
    /// One table per burst thread.
    tables: Vec<Vec<u64>>,
    x: u64,
    every: Duration,
    /// `(start, seconds)` per burst, in time order.
    bursts: Vec<(Instant, f64)>,
}

impl Calibrator {
    /// A calibrator that bursts on `threads` threads at once (the
    /// workload's worker count), at most once per `every`.
    pub fn new(threads: usize, every: Duration) -> Calibrator {
        let mut c = Calibrator {
            tables: vec![(0..TABLE as u64).collect(); threads.max(1)],
            x: 0x9e37_79b9_7f4a_7c15,
            every,
            bursts: Vec::new(),
        };
        for _ in 0..3 {
            c.walk_all(); // warm the table and the threads' caches
        }
        c
    }

    /// Runs a burst if none ran in the last `every`.
    pub fn tick(&mut self) {
        if self
            .bursts
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= self.every)
        {
            self.burst();
        }
    }

    /// Runs one timed burst now.
    pub fn burst(&mut self) {
        let at = Instant::now();
        self.walk_all();
        self.bursts.push((at, at.elapsed().as_secs_f64()));
    }

    /// One walk per table, all at once; the burst ends with the last.
    fn walk_all(&mut self) {
        let x = self.x;
        let (first, rest) = self.tables.split_first_mut().expect("one table at least");
        self.x = std::thread::scope(|s| {
            let others: Vec<_> = rest
                .iter_mut()
                .enumerate()
                .map(|(i, t)| s.spawn(move || walk(t, x ^ i as u64)))
                .collect();
            let mine = walk(first, x);
            others
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .fold(mine, |a, b| a ^ b)
        });
    }

    /// The scale for a sample that started at `at`: `NOMINAL_S` over the
    /// median of the bursts within [`WINDOW`] of it (the nearest burst
    /// when none is that close). The host's speed changes over seconds,
    /// so the window follows it while the median smooths burst jitter.
    pub fn scale_at(&self, at: Instant) -> f64 {
        let near: Vec<f64> = self
            .bursts
            .iter()
            .filter(|(t, _)| abs_diff(*t, at) <= WINDOW)
            .map(|(_, s)| *s)
            .collect();
        let burst = if near.is_empty() {
            self.bursts
                .iter()
                .min_by_key(|(t, _)| abs_diff(*t, at))
                .expect("a calibration burst ran")
                .1
        } else {
            crate::stats::median(&near)
        };
        NOMINAL_S / burst
    }

    /// Median scale over every burst so far (for work not bracketed by
    /// bursts of its own).
    pub fn median_scale(&self) -> f64 {
        let s: Vec<f64> = self.bursts.iter().map(|(_, s)| NOMINAL_S / s).collect();
        crate::stats::median(&s)
    }
}

/// The calibration walk: fixed work, result kept alive by `black_box`.
fn walk(table: &mut [u64], mut x: u64) -> u64 {
    let mask = table.len() - 1;
    for i in 0..STEPS {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ i;
        let idx = (x as usize) & mask;
        let v = table[idx];
        if v & 1 == 0 {
            table[idx] = v.wrapping_add(x);
        } else {
            x ^= v;
        }
    }
    black_box(x)
}

/// A timed sample: when it started and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Start of the sample.
    pub at: Instant,
    /// Host seconds.
    pub secs: f64,
}

impl Sample {
    /// Times `f`.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, Sample) {
        let at = Instant::now();
        let r = f();
        (
            r,
            Sample {
                at,
                secs: at.elapsed().as_secs_f64(),
            },
        )
    }

    /// The sample in reference seconds.
    pub fn scaled(&self, cal: &Calibrator) -> f64 {
        self.secs * cal.scale_at(self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_bursts_near_a_sample() {
        let mut cal = Calibrator::new(1, Duration::MAX);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        cal.bursts = vec![(at(0), 8e-3), (at(500), 16e-3), (at(3000), 4e-3)];
        // Within a second of the first two bursts: their median, 12 ms.
        assert!((cal.scale_at(at(200)) - 8.0 / 12.0).abs() < 1e-12);
        // Far from every burst: the nearest one.
        assert!((cal.scale_at(at(10_000)) - 2.0).abs() < 1e-12);
        assert!((cal.median_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tick_bursts_at_most_once_per_period() {
        let mut cal = Calibrator::new(2, Duration::from_secs(3600));
        cal.tick();
        cal.tick();
        assert_eq!(cal.bursts.len(), 1);
        cal.burst();
        assert_eq!(cal.bursts.len(), 2);
    }
}
