//! Host-speed calibration.
//!
//! A shared VM does not run at one speed: the same simulation took from
//! 67 to 107 ms of thread CPU time in different 10-second spans of one
//! minute on the reference host, and changes of a few percent come and
//! go within a second. The benchmark therefore times a fixed calibration
//! loop, which no change to the simulator can touch, right before and
//! right after each timed interval in the same thread, and scales the
//! interval by how fast the loop ran around it. Scaled times read as
//! seconds of a host on which one calibration sample takes
//! [`NOMINAL_S`].

use std::hint::black_box;

/// CPU seconds of one calibration sample on the reference host (a 2-vCPU
/// Xeon VM at 2.0 GHz, in its faster spells).
pub const NOMINAL_S: f64 = 0.0012;

/// Table of the loop: 8 MiB, larger than a core's L2, as the simulator's
/// working set is, so that the loop feels the pressure co-tenants put on
/// the shared cache and memory as the simulator does. Of the loops tried
/// (this one over 64 KiB, 2, 8 and 32 MiB, and a small bytecode
/// interpreter), the one over 8 MiB tracked the simulator best: over 348
/// paired samples of det CC runs of the four paper kernels, the log of a
/// run's CPU time followed the log of the samples around it with slope
/// 1.00 and correlation 0.76 (2 MiB: 0.87 and 0.69; 32 MiB: 1.19 and
/// 0.73), and scaling by it left a spread of 0.104 in log time (2 MiB:
/// 0.117; unscaled: 0.160).
const TABLE_WORDS: usize = 1 << 20;
/// Loop steps per repetition.
const STEPS: u32 = 50_000;
/// Repetitions per sample; the sample is the fastest, so an interrupt
/// inside one repetition does not count.
const REPS: usize = 3;

/// The calibration loop: a random walk over `table`, dispatching on the
/// words it reads, as an interpreter over a simulated memory does.
fn walk(table: &mut [u64], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (seed | 1, 0u64);
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        let v = table[j];
        acc = match v & 3 {
            0 => acc.wrapping_add(v),
            1 => acc ^ v.rotate_left(7),
            2 => acc.wrapping_mul(v | 1),
            _ => acc.wrapping_sub(u64::from(i)),
        };
        table[j] = v.wrapping_add(acc);
    }
    acc
}

/// Calibration samples of one thread, in the order they were taken.
pub struct Calib {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Calib {
    fn default() -> Self {
        let table =
            (0..TABLE_WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        Calib { table, samples: Vec::new() }
    }
}

impl Calib {
    /// Take one sample now; returns its index. Take one before each timed
    /// interval, and one more after the last.
    pub fn sample(&mut self) -> usize {
        let mut best = f64::INFINITY;
        for r in 0..REPS {
            let t = crate::thread_cpu_s();
            black_box(walk(black_box(&mut self.table), r as u64));
            best = best.min(crate::thread_cpu_s() - t);
        }
        self.samples.push(best);
        self.samples.len() - 1
    }

    /// The factor that scales an interval which started right after
    /// sample `before` to reference-host seconds: the nominal time over
    /// the mean of the samples before and after it.
    pub fn scale(&self, before: usize) -> f64 {
        let after = self.samples.get(before + 1).unwrap_or(&self.samples[before]);
        NOMINAL_S / ((self.samples[before] + after) / 2.0)
    }

    /// Median of every sample so far, seconds (printed in the table).
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_by_the_samples_around_them() {
        let c = Calib {
            samples: vec![NOMINAL_S, 2.0 * NOMINAL_S, 4.0 * NOMINAL_S],
            ..Calib::default()
        };
        assert!((c.scale(0) - 1.0 / 1.5).abs() < 1e-12);
        assert!((c.scale(1) - 1.0 / 3.0).abs() < 1e-12);
        // An interval with no sample after it yet uses the one before.
        assert!((c.scale(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn samples_time_the_loop() {
        let mut c = Calib::default();
        assert_eq!(c.sample(), 0);
        assert_eq!(c.sample(), 1);
        assert!(c.samples.iter().all(|&s| s > 0.0));
        assert!(c.median_s() > 0.0);
    }
}
