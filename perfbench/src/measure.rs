//! Timing on a shared machine.
//!
//! The machine's speed drifts with other tenants' load: on a 2-vCPU Xeon
//! VM, the same single-threaded loop took 110–209 ms minutes apart, in
//! regimes lasting seconds. So every request is timed between two runs of
//! a fixed reference kernel, and its time is rescaled to the kernel's
//! nominal speed. Per pass, each request's scaled
//! time is its median over the run's passes, and the pass is their sum.

use std::time::Instant;

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Request id, the same in every pass.
    pub id: usize,
    /// Wall seconds.
    pub secs: f64,
    /// Mean seconds of [`reference_secs`] just before and just after.
    pub reference: f64,
}

impl Unit {
    /// Wall seconds at the reference kernel's nominal speed.
    pub fn scaled(&self) -> f64 {
        self.secs / self.reference * REFERENCE_NOMINAL_S
    }
}

/// Seconds [`reference_secs`] takes on a quiet core of a 2-vCPU Xeon VM.
pub const REFERENCE_NOMINAL_S: f64 = 2.5e-3;

/// Steps of [`reference_secs`].
const REFERENCE_STEPS: usize = 250_000;

/// Seconds of a fixed single-threaded kernel: independent floating-point
/// chains, an integer xorshift, and read-modify-writes into a 256 KiB
/// table, so that it slows down with its core the way the workloads do.
pub fn reference_secs() -> f64 {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new((0..1u64 << 15).collect());
    }
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let mask = t.len() - 1;
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut a = [1.0f64, 1.5, 2.0, 2.5];
        for _ in 0..REFERENCE_STEPS {
            for (k, v) in a.iter_mut().enumerate() {
                *v = *v * 0.999_999_9 + (k as f64 + 1.0) / (*v + 3.0);
            }
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & mask;
            t[j] = t[j].wrapping_add(x);
            if t[j] & 3 == 0 {
                a[0] += 1e-9;
            }
        }
        std::hint::black_box((x, a));
        start.elapsed().as_secs_f64()
    })
}

/// Run `f` as request `id` between two reference timings.
pub fn timed<R>(id: usize, f: impl FnOnce() -> R) -> (R, Unit) {
    let before = reference_secs();
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    let reference = (before + reference_secs()) / 2.0;
    (
        r,
        Unit {
            id,
            secs,
            reference,
        },
    )
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds per pass from `f` of each request: the sum over requests of
/// each one's median over the passes. Every pass lists the same requests,
/// sorted by id.
pub fn per_pass(samples: &[Vec<Unit>], f: impl Fn(&Unit) -> f64) -> f64 {
    (0..samples[0].len())
        .map(|i| median(&samples.iter().map(|s| f(&s[i])).collect::<Vec<_>>()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_pass_sums_request_medians() {
        let u = |id, secs| Unit {
            id,
            secs,
            reference: REFERENCE_NOMINAL_S,
        };
        let samples = [
            vec![u(0, 1.0), u(1, 9.0)],
            vec![u(0, 2.0), u(1, 3.0)],
            vec![u(0, 3.0), u(1, 4.0)],
        ];
        assert_eq!(per_pass(&samples, |u| u.secs), 2.0 + 4.0);
        assert_eq!(per_pass(&samples, Unit::scaled), 6.0);
    }

    #[test]
    fn scaling_undoes_a_uniform_slowdown() {
        let fast = Unit {
            id: 0,
            secs: 1.0,
            reference: 1e-3,
        };
        let slow = Unit {
            id: 0,
            secs: 1.5,
            reference: 1.5e-3,
        };
        assert!((fast.scaled() - slow.scaled()).abs() < 1e-12);
    }
}
