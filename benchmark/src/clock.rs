//! Timed intervals expressed at one core clock.
//!
//! The bench box's cores change their clock under the benchmark: the
//! host moves them between turbo bins, 3.3 GHz most of the time and up
//! to 4.2 GHz for seconds to a minute when its other tenants go quiet,
//! while the TSC that `Instant` reads keeps ticking at 2.1 GHz. The
//! same call then takes up to 27% fewer nanoseconds, a run that falls
//! into such a stretch reads a quarter faster than its neighbours, and
//! no amount of rounds or medians inside the run can tell.
//!
//! So the benchmark measures the clock. A chain of dependent 64-bit
//! multiplies retires one every three core cycles on every x86-64 core
//! of the last fifteen years; timing it with `rdtsc` gives core cycles
//! per TSC tick, whatever the two frequencies are. Every timed interval
//! is then converted to what it would have taken at [`REFERENCE`]:
//! the part of it that scales with the core clock (the workload's
//! `clock_share`, measured once and listed in the README) is multiplied
//! by `measured ÷ REFERENCE`, the rest (cache misses served by the
//! uncore and DRAM, which do not speed up with the core) is left alone.
//! At the reference clock the conversion is the identity, so on a quiet
//! box the reported numbers are plain wall-clock numbers.
//!
//! The probe runs between timed intervals, never inside one, at most
//! once every [`PERIOD`] (about 1% of the time). On other architectures
//! there is no probe and every interval is reported as measured.

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Core cycles per TSC tick that reported times are expressed at: the
/// bench box's sustained clock, 3.3 GHz core over a 2.1 GHz TSC.
pub const REFERENCE: f64 = 33.0 / 21.0;

/// A probe is reused for this long.
pub const PERIOD: Duration = Duration::from_millis(5);

/// Multiplies per probe loop; a loop takes about 15 µs.
const CHAIN: u64 = 16 * 1024;

/// Core cycles per TSC tick right now: the best of three probe loops,
/// since an interrupt can only make a loop look slower.
#[cfg(target_arch = "x86_64")]
pub fn ratio() -> f64 {
    use std::arch::asm;
    use std::arch::x86_64::_rdtsc;
    (0..3)
        .map(|_| {
            let mut x = 3u64;
            let mut n = CHAIN / 16;
            // SAFETY: `rdtsc` and register-only arithmetic.
            let ticks = unsafe {
                let t0 = _rdtsc();
                asm!(
                    "2:",
                    "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}",
                    "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}",
                    "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}",
                    "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}", "imul {x}, {x}",
                    "dec {n}",
                    "jnz 2b",
                    x = inout(reg) x,
                    n = inout(reg) n,
                    options(nomem, nostack),
                );
                _rdtsc() - t0
            };
            std::hint::black_box((x, n));
            (3 * CHAIN) as f64 / ticks.max(1) as f64
        })
        .fold(0.0, f64::max)
}

/// No probe on this architecture: the clock counts as the reference.
#[cfg(not(target_arch = "x86_64"))]
pub fn ratio() -> f64 {
    REFERENCE
}

/// What an interval measured at core clock `ratio` takes at the
/// reference clock, as a factor, when `share` of it scales with the
/// core clock.
pub fn factor(ratio: f64, share: f64) -> f64 {
    1.0 / (share * REFERENCE / ratio + 1.0 - share)
}

thread_local! {
    /// When this thread last probed, and what it read.
    static PROBE: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
    /// Nanoseconds this thread has had converted: as measured, and at
    /// the reference clock.
    static TOTALS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Nanoseconds of the interval `t0..t1` at the reference clock, `share`
/// of it scaling with the core clock. Probes the clock first if this
/// thread's last probe is older than [`PERIOD`] at `t1` — so call it
/// right after `t1` was read, outside any other timed interval.
pub fn scaled_ns(t0: Instant, t1: Instant, share: f64) -> u64 {
    let ratio = match PROBE.get() {
        Some((at, ratio)) if t1.saturating_duration_since(at) < PERIOD => ratio,
        _ => {
            let ratio = ratio();
            PROBE.set(Some((Instant::now(), ratio)));
            ratio
        }
    };
    let raw = (t1 - t0).as_nanos() as u64;
    let scaled = (raw as f64 * factor(ratio, share)).round() as u64;
    let (r, s) = TOTALS.get();
    TOTALS.set((r + raw, s + scaled));
    scaled
}

/// Reference-clock ÷ measured nanoseconds over everything this thread
/// converted since the last call (1 if nothing), and starts over.
pub fn take_factor() -> f64 {
    match TOTALS.replace((0, 0)) {
        (0, _) => 1.0,
        (raw, scaled) => scaled as f64 / raw as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_identity_at_the_reference_and_follows_the_share() {
        for share in [0.0, 0.3, 0.75, 1.0] {
            assert!((factor(REFERENCE, share) - 1.0).abs() < 1e-12);
        }
        // A fully core-bound interval at 4.2 GHz takes 42/33 as long at 3.3.
        assert!((factor(42.0 / 21.0, 1.0) - 42.0 / 33.0).abs() < 1e-12);
        // One that does not depend on the core clock is left alone.
        assert_eq!(factor(42.0 / 21.0, 0.0), 1.0);
        let half = factor(42.0 / 21.0, 0.5);
        assert!(1.0 < half && half < 42.0 / 33.0);
    }

    #[test]
    fn probe_reads_a_plausible_steady_clock() {
        let a = ratio();
        let b = ratio();
        assert!((0.2..10.0).contains(&a), "{a} core cycles per TSC tick");
        // Two probes 50 µs apart see the same turbo bin, or its neighbour.
        assert!((a / b - 1.0).abs() < 0.35, "{a} then {b}");
    }

    #[test]
    fn scaled_ns_accumulates_and_take_factor_resets() {
        let _ = take_factor();
        assert_eq!(take_factor(), 1.0);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(100);
        let at_ref_share = scaled_ns(t0, t1, 0.0);
        assert_eq!(at_ref_share, 100_000);
        assert_eq!(take_factor(), 1.0);
        let scaled = scaled_ns(t0, t1, 1.0);
        let f = take_factor();
        assert!((scaled as f64 / 100_000.0 - f).abs() < 1e-4);
    }
}
