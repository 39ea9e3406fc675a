//! The machine-speed reference the gated timings are scaled by.
//!
//! The sandbox this benchmark runs in changes speed under it: the same
//! binary on the same inputs runs everything — publish, pump, match —
//! uniformly 10–20 % faster or slower for seconds to minutes at a time,
//! whatever the host's other tenants are doing. No statistic of a ten
//! second run can see through that, so same-code runs disagreed by up
//! to 29 % and no bound under 25 % held.
//!
//! What does hold is the *ratio* to a fixed piece of work timed beside
//! the measured one. After every slice of a window (and after every
//! set-up) the driver runs one [`Reference::speed`] burst — a dependent
//! load/add chain over a table that fits the L2 cache, 0.8 ms — and
//! scales the slice's durations by it. A duration is then reported in
//! **reference seconds**: the wall time it would have taken had the
//! burst run at its nominal speed. On this sandbox's usual state the
//! factor is within a few percent of 1, so the numbers still read as
//! seconds; same-code, same-seed runs that spread 6–10 % in wall time
//! spread 2–3 % in reference time (README, "Steadiness").
//!
//! The burst is pure CPU and cache work. It cancels what scales the
//! whole machine (frequency, a busy sibling); it does not cancel
//! contention for memory that only a large working set feels.

use std::time::Instant;

/// Table entries: 64 KiB of `u32`, inside any L2.
const TABLE: usize = 16 * 1024;
/// Steps of the chain in one burst.
const STEPS: usize = 200_000;
/// What one burst takes on the sandbox in its usual state; the unit
/// that turns the ratio back into seconds.
const NOMINAL_SECS: f64 = 800e-6;

pub struct Reference {
    table: Vec<u32>,
}

impl Reference {
    pub fn new() -> Self {
        // Knuth's multiplicative hash: a fixed, well-mixed start.
        let table = (0..TABLE as u32)
            .map(|k| k.wrapping_mul(2_654_435_761))
            .collect();
        Reference { table }
    }

    /// One burst of fixed work: every step's index depends on the
    /// previous step's load. Returns the seconds it took.
    fn burst(&mut self) -> f64 {
        // The code measured before the burst has pushed the table out
        // of the caches; how far must not leak into the reading, so it
        // is brought back before the clock starts.
        std::hint::black_box(self.table.iter().fold(0u32, |a, v| a ^ v));
        let t0 = Instant::now();
        let mask = TABLE - 1;
        let (mut x, mut i) = (1u32, 0usize);
        for _ in 0..STEPS {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            i = (self.table[i] as usize ^ (x >> 8) as usize) & mask;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        std::hint::black_box(i);
        t0.elapsed().as_secs_f64()
    }

    /// The machine's speed right now, over `bursts` bursts, as a
    /// multiple of nominal: above 1 when they ran faster than nominal.
    /// A wall duration measured beside it times this factor is the
    /// duration in reference seconds.
    pub fn speed(&mut self, bursts: usize) -> f64 {
        let secs: f64 = (0..bursts).map(|_| self.burst()).sum();
        bursts as f64 * NOMINAL_SECS / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_do_the_same_work_and_report_a_positive_speed() {
        let mut a = Reference::new();
        let mut b = Reference::new();
        for _ in 0..3 {
            let (x, y) = (a.speed(1), b.speed(2));
            assert!(x.is_finite() && x > 0.0 && y.is_finite() && y > 0.0);
        }
        // Same steps from the same start: the tables stay equal, so no
        // burst does more work than another.
        b.speed(3);
        a.speed(6);
        assert_eq!(a.table, b.table);
    }
}
