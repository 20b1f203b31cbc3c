//! Deterministic supervision primitives for the online monitor.
//!
//! Each shard of the serve fleet wraps its detector worker in a
//! supervisor loop; this module provides the two policies that loop
//! needs, both free of wall-clock reads so they unit-test exactly and
//! replay byte-for-byte under the chaos harness:
//!
//! * [`Backoff`] — capped exponential restart delays
//!   (`base · 2^attempt`, saturating at `max`),
//! * [`CircuitBreaker`] — a tick-based fault-rate breaker that trips
//!   the shard into a degraded state when too many recent windows
//!   faulted, half-opens after a cooldown, and fully closes only after
//!   a clean probation streak.
//!
//! # Examples
//!
//! ```
//! use hbmd_core::supervisor::{Backoff, BreakerState, CircuitBreaker};
//!
//! let mut backoff = Backoff::new(10, 80);
//! assert_eq!(backoff.next_delay_ms(), 10);
//! assert_eq!(backoff.next_delay_ms(), 20);
//! backoff.reset();
//! assert_eq!(backoff.next_delay_ms(), 10);
//!
//! let mut breaker = CircuitBreaker::new(4, 3, 8);
//! for _ in 0..3 {
//!     breaker.record(true);
//! }
//! assert_eq!(breaker.state(), BreakerState::Open);
//! ```

/// Capped exponential backoff: attempt `n` (0-based) yields
/// `base_ms · 2^n`, saturating at `max_ms`.
///
/// Purely arithmetic — the caller decides whether a "delay" is a real
/// sleep (serve mode) or a simulated tick (chaos mode), which keeps
/// restart schedules deterministic under test.
///
/// [`with_jitter`](Backoff::with_jitter) adds *deterministic* jitter:
/// each delay is spread over `[¾d, 5⁄4d]` by hashing the seed with the
/// restart counter, so co-faulting shards (different seeds) desynchronise
/// their restart storms while any single schedule still replays
/// byte-for-byte.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    max_ms: u64,
    attempt: u32,
    /// `Some(seed)` spreads each delay deterministically; `None` is
    /// the exact exponential schedule.
    jitter_seed: Option<u64>,
}

impl Backoff {
    /// A backoff starting at `base_ms` and saturating at `max_ms`.
    /// A zero `base_ms` is promoted to 1 so the schedule still grows.
    pub fn new(base_ms: u64, max_ms: u64) -> Backoff {
        Backoff {
            base_ms: base_ms.max(1),
            max_ms: max_ms.max(base_ms.max(1)),
            attempt: 0,
            jitter_seed: None,
        }
    }

    /// Like [`new`](Backoff::new), but each delay is jittered into
    /// `[¾d, 5⁄4d]` (capped at `max_ms`) by an FNV-1a hash of `seed`
    /// and the restart counter. Two shards seeded differently restart
    /// out of lockstep; the same shard replays the same schedule.
    pub fn with_jitter(base_ms: u64, max_ms: u64, seed: u64) -> Backoff {
        Backoff {
            jitter_seed: Some(seed),
            ..Backoff::new(base_ms, max_ms)
        }
    }

    /// The delay for the next restart, advancing the attempt counter.
    pub fn next_delay_ms(&mut self) -> u64 {
        let delay = self.peek_delay_ms();
        self.attempt = self.attempt.saturating_add(1);
        delay
    }

    /// The delay `next_delay_ms` would return, without advancing.
    pub fn peek_delay_ms(&self) -> u64 {
        let exact = self
            .base_ms
            .checked_shl(self.attempt)
            .unwrap_or(self.max_ms)
            .min(self.max_ms);
        let Some(seed) = self.jitter_seed else {
            return exact;
        };
        // Deterministic spread: hash (seed, attempt) into [¾d, 5⁄4d].
        // The hash depends only on the seed and the restart counter, so
        // a replayed supervisor reproduces its delays exactly.
        let mut keyed = [0u8; 12];
        keyed[..8].copy_from_slice(&seed.to_le_bytes());
        keyed[8..].copy_from_slice(&self.attempt.to_le_bytes());
        let hash = hbmd_obs::manifest::fnv1a_64(&keyed);
        let span = exact / 2;
        let low = exact - exact / 4;
        let offset = if span == 0 { 0 } else { hash % (span + 1) };
        low.saturating_add(offset).min(self.max_ms).max(1)
    }

    /// Restart attempts taken since construction or the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Return to the base delay after a period of stability.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Where the breaker currently routes traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: windows flow to the real classifier.
    Closed,
    /// Tripped: the pipeline must degrade (abstain) until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: traffic flows again, but one more fault
    /// re-opens immediately.
    HalfOpen,
}

/// A tick-based circuit breaker over a sliding window of fault
/// observations.
///
/// `record(faulted)` is called once per processed window. While
/// `Closed`, the breaker counts faults over the last `window`
/// observations and trips `Open` when they reach `trip_threshold`.
/// While `Open`, each call burns one tick of `cooldown_ticks`, after
/// which the breaker half-opens. A fault during `HalfOpen` re-opens
/// it (another full cooldown); `window` consecutive clean observations
/// close it.
///
/// Time is measured in observations, not seconds, so behaviour is
/// identical across machines and replay runs.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    window: usize,
    trip_threshold: usize,
    cooldown_ticks: u64,
    state: BreakerState,
    /// Ring of recent fault flags, oldest first (only while closed).
    recent: std::collections::VecDeque<bool>,
    cooldown_left: u64,
    probation_clean: usize,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker tripping at `trip_threshold` faults within the
    /// last `window` observations, staying open for `cooldown_ticks`
    /// observations. Zero `window`/`trip_threshold` are promoted to 1.
    pub fn new(window: usize, trip_threshold: usize, cooldown_ticks: u64) -> CircuitBreaker {
        let window = window.max(1);
        CircuitBreaker {
            window,
            trip_threshold: trip_threshold.clamp(1, window),
            cooldown_ticks,
            state: BreakerState::Closed,
            recent: std::collections::VecDeque::with_capacity(window),
            cooldown_left: 0,
            probation_clean: 0,
            trips: 0,
        }
    }

    /// Current routing state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// `true` while the pipeline must degrade instead of classifying.
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// Times the breaker has tripped `Closed/HalfOpen → Open`.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Record one processed window (`faulted` = the window failed
    /// sanitisation, the worker faulted on it, or it was otherwise
    /// unclassifiable) and return the state to apply to the *next*
    /// window.
    pub fn record(&mut self, faulted: bool) -> BreakerState {
        match self.state {
            BreakerState::Closed => {
                if self.recent.len() == self.window {
                    self.recent.pop_front();
                }
                self.recent.push_back(faulted);
                let faults = self.recent.iter().filter(|&&f| f).count();
                if faults >= self.trip_threshold {
                    self.trip();
                }
            }
            BreakerState::Open => {
                self.cooldown_left = self.cooldown_left.saturating_sub(1);
                if self.cooldown_left == 0 {
                    self.state = BreakerState::HalfOpen;
                    self.probation_clean = 0;
                }
            }
            BreakerState::HalfOpen => {
                if faulted {
                    self.trip();
                } else {
                    self.probation_clean += 1;
                    if self.probation_clean >= self.window {
                        self.state = BreakerState::Closed;
                        self.recent.clear();
                    }
                }
            }
        }
        self.state
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.trips += 1;
        self.cooldown_left = self.cooldown_ticks.max(1);
        self.recent.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut b = Backoff::new(100, 1600);
        let delays: Vec<u64> = (0..7).map(|_| b.next_delay_ms()).collect();
        assert_eq!(delays, vec![100, 200, 400, 800, 1600, 1600, 1600]);
        assert_eq!(b.attempts(), 7);
        b.reset();
        assert_eq!(b.next_delay_ms(), 100);
    }

    #[test]
    fn backoff_survives_extreme_attempts() {
        let mut b = Backoff::new(1, u64::MAX);
        for _ in 0..200 {
            b.next_delay_ms();
        }
        // Shift overflow must saturate at max, not wrap or panic.
        assert_eq!(b.peek_delay_ms(), u64::MAX);
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let schedule = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::with_jitter(100, 1600, seed);
            (0..7).map(|_| b.next_delay_ms()).collect()
        };
        // Same seed → byte-identical schedule (replayable recovery).
        assert_eq!(schedule(3), schedule(3));
        // Every jittered delay stays within [¾d, 5⁄4d] ∩ [1, max].
        let mut exact = Backoff::new(100, 1600);
        for (i, delay) in schedule(3).iter().enumerate() {
            let d = exact.next_delay_ms();
            assert!(
                *delay >= d - d / 4 && *delay <= (d + d / 2).min(1600),
                "attempt {i}: jittered {delay} outside [{}, {}]",
                d - d / 4,
                (d + d / 2).min(1600)
            );
        }
        // Different seeds (shards) must not restart in lockstep.
        assert_ne!(schedule(0), schedule(1));
    }

    #[test]
    fn jittered_backoff_reset_replays_the_schedule() {
        let mut b = Backoff::with_jitter(50, 800, 42);
        let first: Vec<u64> = (0..5).map(|_| b.next_delay_ms()).collect();
        b.reset();
        let second: Vec<u64> = (0..5).map(|_| b.next_delay_ms()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn breaker_trips_on_fault_rate_and_half_opens() {
        let mut br = CircuitBreaker::new(4, 3, 5);
        assert_eq!(br.record(true), BreakerState::Closed);
        assert_eq!(br.record(false), BreakerState::Closed);
        assert_eq!(br.record(true), BreakerState::Closed);
        // Third fault within the window of four trips it.
        assert_eq!(br.record(true), BreakerState::Open);
        assert_eq!(br.trips(), 1);
        // Cooldown burns one tick per observation.
        for _ in 0..4 {
            assert_eq!(br.record(false), BreakerState::Open);
        }
        assert_eq!(br.record(false), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_fault_reopens_and_clean_streak_closes() {
        let mut br = CircuitBreaker::new(3, 1, 2);
        br.record(true);
        assert_eq!(br.state(), BreakerState::Open);
        br.record(false);
        br.record(false);
        assert_eq!(br.state(), BreakerState::HalfOpen);
        // A fault on probation re-opens (second trip).
        assert_eq!(br.record(true), BreakerState::Open);
        assert_eq!(br.trips(), 2);
        br.record(false);
        br.record(false);
        assert_eq!(br.state(), BreakerState::HalfOpen);
        // Three clean observations (== window) close it.
        br.record(false);
        br.record(false);
        assert_eq!(br.record(false), BreakerState::Closed);
        assert_eq!(br.trips(), 2);
    }

    #[test]
    fn old_faults_age_out_of_the_window() {
        let mut br = CircuitBreaker::new(3, 2, 1);
        br.record(true);
        br.record(false);
        br.record(false);
        // The fault above has aged out; one new fault must not trip.
        br.record(true);
        assert_eq!(br.state(), BreakerState::Closed);
    }
}
