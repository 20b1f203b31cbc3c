//! Fault injection for the collection pipeline.
//!
//! Real HPC collection is not pristine: counters wrap and saturate,
//! multiplexing starves events of register time, sampling windows get
//! dropped or double-reported under scheduler pressure, and an
//! adversary co-resident on the machine can perturb the counter stream
//! (Kuruvila et al., "Defending Hardware-based Malware Detectors
//! against Adversarial Attacks"). The seed pipeline assumed none of
//! this; the [`FaultPlan`]/[`FaultInjector`] pair makes every failure
//! mode reproducible so the hardened collector and the detector's
//! degradation path can be tested and swept.
//!
//! Determinism contract: injection depends only on `(plan, sample id,
//! attempt)` — never on thread scheduling or wall-clock — so a faulted
//! collection is byte-identical across runs and thread counts.
//!
//! # Examples
//!
//! ```
//! use hbmd_events::FeatureVector;
//! use hbmd_malware::SampleId;
//! use hbmd_perf::{FaultInjector, FaultPlan};
//!
//! let plan = FaultPlan::uniform(0.2, 7);
//! let windows = vec![FeatureVector::zeroed(); 8];
//! let mut a = FaultInjector::for_sample(&plan, SampleId(3), 0);
//! let mut b = FaultInjector::for_sample(&plan, SampleId(3), 0);
//! // Debug-compare: starved readings are NaN, and NaN != NaN.
//! let (left, right) = (a.apply(windows.clone()), b.apply(windows));
//! assert_eq!(format!("{left:?}"), format!("{right:?}"));
//! ```

use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::SampleId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::PerfError;

/// Saturated counters peg at this value — a 48-bit counter ceiling,
/// far outside any legitimate scaled estimate the simulator produces.
pub const SATURATION_CEILING: f64 = (1u64 << 48) as f64;

/// Per-mode activation rates for collection-path fault injection.
///
/// Every rate is a probability in `[0, 1]`; [`FaultPlan::none`] is the
/// pristine pipeline. The plan is plain data so sweeps and harnesses
/// can ship it around as configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed mixed with the sample id (and retry attempt) to give
    /// every sample an independent, scheduling-independent stream.
    pub seed: u64,
    /// Probability a sampling window is dropped entirely (lost `perf`
    /// read).
    pub drop_window: f64,
    /// Probability a sampling window is reported twice (duplicated
    /// interval under timer jitter).
    pub duplicate_window: f64,
    /// Probability a window's counters wrap around a narrow counter
    /// width ([`FaultPlan::wrap_bits`]).
    pub wraparound: f64,
    /// Probability a window's largest counter saturates to
    /// [`SATURATION_CEILING`].
    pub saturate: f64,
    /// Per-event probability the counter is stuck at zero for the whole
    /// sample (dead PMU register).
    pub stuck_at_zero: f64,
    /// Per-event probability multiplexing never schedules the event in
    /// a window, yielding a NaN scaled estimate (`time_running == 0`).
    pub mux_starvation: f64,
    /// Per-event probability of multiplicative perturbation — the
    /// adversarial axis.
    pub perturb: f64,
    /// Maximum relative magnitude of a perturbation (`0.3` scales a
    /// counter by a factor in `[0.7, 1.3]`).
    pub perturb_magnitude: f64,
    /// Probability collecting a sample panics outright (crashed
    /// collection worker). Re-rolled per retry attempt.
    pub worker_panic: f64,
    /// Counter width used by the wraparound mode.
    pub wrap_bits: u32,
}

impl FaultPlan {
    /// No faults at all — the pristine pipeline.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_window: 0.0,
            duplicate_window: 0.0,
            wraparound: 0.0,
            saturate: 0.0,
            stuck_at_zero: 0.0,
            mux_starvation: 0.0,
            perturb: 0.0,
            perturb_magnitude: 0.0,
            worker_panic: 0.0,
            wrap_bits: 16,
        }
    }

    /// Every window/event-level fault mode at the same `rate`, worker
    /// panics at a quarter of it (process crashes are rarer than
    /// counter glitches), perturbations up to ±30 %.
    pub fn uniform(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_window: rate,
            duplicate_window: rate,
            wraparound: rate,
            saturate: rate,
            stuck_at_zero: rate,
            mux_starvation: rate,
            perturb: rate,
            perturb_magnitude: 0.3,
            worker_panic: rate / 4.0,
            wrap_bits: 16,
        }
    }

    /// Only worker panics, at `rate` — the crash-resilience scenario.
    pub fn panics_only(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            worker_panic: rate,
            seed,
            ..FaultPlan::none()
        }
    }

    /// Check every rate is a probability and the magnitude is usable.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] for rates outside `[0, 1]`, a
    /// negative or non-finite magnitude, or a zero/oversized counter
    /// width.
    pub fn validate(&self) -> Result<(), PerfError> {
        let rates = [
            ("drop_window", self.drop_window),
            ("duplicate_window", self.duplicate_window),
            ("wraparound", self.wraparound),
            ("saturate", self.saturate),
            ("stuck_at_zero", self.stuck_at_zero),
            ("mux_starvation", self.mux_starvation),
            ("perturb", self.perturb),
            ("worker_panic", self.worker_panic),
        ];
        for (name, rate) in rates {
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return Err(PerfError::Config(format!(
                    "fault rate {name} = {rate} is outside [0, 1]"
                )));
            }
        }
        if !(self.perturb_magnitude.is_finite() && self.perturb_magnitude >= 0.0) {
            return Err(PerfError::Config(format!(
                "perturb_magnitude {} must be finite and non-negative",
                self.perturb_magnitude
            )));
        }
        if self.wrap_bits == 0 || self.wrap_bits >= 53 {
            return Err(PerfError::Config(format!(
                "wrap_bits {} must be in 1..53 (f64-exact counter widths)",
                self.wrap_bits
            )));
        }
        Ok(())
    }

    /// `true` when every rate is zero (injection is a no-op).
    pub fn is_none(&self) -> bool {
        self.drop_window == 0.0
            && self.duplicate_window == 0.0
            && self.wraparound == 0.0
            && self.saturate == 0.0
            && self.stuck_at_zero == 0.0
            && self.mux_starvation == 0.0
            && self.perturb == 0.0
            && self.worker_panic == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// Tally of injected (or observed) faults, reported per collection in
/// the [`CollectionReport`](crate::CollectionReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Windows dropped.
    pub dropped_windows: usize,
    /// Windows duplicated.
    pub duplicated_windows: usize,
    /// Windows whose counters wrapped.
    pub wrapped_windows: usize,
    /// Windows with a saturated counter.
    pub saturated_windows: usize,
    /// Events stuck at zero across whole samples.
    pub stuck_events: usize,
    /// Event readings starved by multiplexing (NaN estimates).
    pub starved_readings: usize,
    /// Event readings multiplicatively perturbed.
    pub perturbed_readings: usize,
    /// Injected worker panics (including ones later retried away).
    pub worker_panics: usize,
}

impl FaultCounts {
    /// Total corrupted-or-lost artefacts, for quick thresholding.
    pub fn total(&self) -> usize {
        self.dropped_windows
            + self.duplicated_windows
            + self.wrapped_windows
            + self.saturated_windows
            + self.stuck_events
            + self.starved_readings
            + self.perturbed_readings
            + self.worker_panics
    }

    /// The tally broken out by fault kind, with stable metric-friendly
    /// kind names — the shape behind the `faults_injected{kind=...}`
    /// observability counters.
    pub fn per_kind(&self) -> [(&'static str, usize); 8] {
        [
            ("dropped_windows", self.dropped_windows),
            ("duplicated_windows", self.duplicated_windows),
            ("wrapped_windows", self.wrapped_windows),
            ("saturated_windows", self.saturated_windows),
            ("stuck_events", self.stuck_events),
            ("starved_readings", self.starved_readings),
            ("perturbed_readings", self.perturbed_readings),
            ("worker_panics", self.worker_panics),
        ]
    }

    /// Accumulate another tally into this one.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.dropped_windows += other.dropped_windows;
        self.duplicated_windows += other.duplicated_windows;
        self.wrapped_windows += other.wrapped_windows;
        self.saturated_windows += other.saturated_windows;
        self.stuck_events += other.stuck_events;
        self.starved_readings += other.starved_readings;
        self.perturbed_readings += other.perturbed_readings;
        self.worker_panics += other.worker_panics;
    }
}

/// Applies a [`FaultPlan`] to one sample's collection, deterministically
/// from `(plan.seed, sample, attempt)`.
///
/// The injector is rebuilt per sample (and per retry attempt), so the
/// corruption a sample sees is independent of how samples are sharded
/// across collection threads.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
    counts: FaultCounts,
}

/// SplitMix64 finalizer — mixes the plan seed with per-sample salt so
/// neighbouring sample ids get uncorrelated streams.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Injector for one `(sample, attempt)` pair.
    pub fn for_sample(plan: &FaultPlan, sample: SampleId, attempt: u32) -> FaultInjector {
        let salt = mix(plan.seed ^ mix(u64::from(sample.0) ^ (u64::from(attempt) << 32)));
        FaultInjector {
            plan: plan.clone(),
            rng: SmallRng::seed_from_u64(salt),
            counts: FaultCounts::default(),
        }
    }

    /// Faults tallied so far.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Roll the worker-panic fault. The collector calls this before
    /// touching the sample so a crash loses the whole sample, exactly
    /// like a real dead worker.
    pub fn rolls_worker_panic(&mut self) -> bool {
        if self.plan.worker_panic > 0.0 && self.rng.gen_bool(self.plan.worker_panic) {
            self.counts.worker_panics += 1;
            true
        } else {
            false
        }
    }

    /// Corrupt one sample's windows according to the plan, returning
    /// the surviving (possibly reordered-in-length) window list.
    ///
    /// Modes apply in a fixed order per window — drop, duplicate,
    /// wraparound, saturation — then per event — stuck-at-zero (sample
    /// scoped), multiplexing starvation, multiplicative perturbation.
    pub fn apply(&mut self, windows: Vec<FeatureVector>) -> Vec<FeatureVector> {
        // Sample-scoped: which events are stuck at zero for every
        // window of this specimen.
        let mut stuck = [false; HpcEvent::COUNT];
        if self.plan.stuck_at_zero > 0.0 {
            for flag in &mut stuck {
                if self.rng.gen_bool(self.plan.stuck_at_zero) {
                    *flag = true;
                    self.counts.stuck_events += 1;
                }
            }
        }

        let wrap_modulus = (1u64 << self.plan.wrap_bits) as f64;
        let mut out = Vec::with_capacity(windows.len());
        for window in windows {
            if self.plan.drop_window > 0.0 && self.rng.gen_bool(self.plan.drop_window) {
                self.counts.dropped_windows += 1;
                continue;
            }
            let duplicate =
                self.plan.duplicate_window > 0.0 && self.rng.gen_bool(self.plan.duplicate_window);

            let mut values = window.as_slice().to_vec();
            if self.plan.wraparound > 0.0 && self.rng.gen_bool(self.plan.wraparound) {
                self.counts.wrapped_windows += 1;
                for v in &mut values {
                    if v.is_finite() && *v >= 0.0 {
                        *v %= wrap_modulus;
                    }
                }
            }
            if self.plan.saturate > 0.0 && self.rng.gen_bool(self.plan.saturate) {
                self.counts.saturated_windows += 1;
                // The busiest counter pegs — the classic overflow
                // artefact on the hottest event.
                if let Some(max_idx) = values
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                {
                    values[max_idx] = SATURATION_CEILING;
                }
            }
            for (index, v) in values.iter_mut().enumerate() {
                if stuck[index] {
                    *v = 0.0;
                    continue;
                }
                if self.plan.mux_starvation > 0.0 && self.rng.gen_bool(self.plan.mux_starvation) {
                    self.counts.starved_readings += 1;
                    // `raw × enabled/running` with running == 0.
                    *v = f64::NAN;
                    continue;
                }
                if self.plan.perturb > 0.0 && self.rng.gen_bool(self.plan.perturb) {
                    self.counts.perturbed_readings += 1;
                    let m = self.plan.perturb_magnitude;
                    let factor = 1.0 + self.rng.gen_range(-m..m.max(1e-12));
                    *v *= factor.max(0.0);
                }
            }

            let corrupted = FeatureVector::from_slice(&values).expect("same width");
            if duplicate {
                self.counts.duplicated_windows += 1;
                out.push(corrupted.clone());
            }
            out.push(corrupted);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(n: usize, fill: f64) -> Vec<FeatureVector> {
        let values = vec![fill; HpcEvent::COUNT];
        vec![FeatureVector::from_slice(&values).expect("16"); n]
    }

    #[test]
    fn none_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut injector = FaultInjector::for_sample(&plan, SampleId(1), 0);
        let input = windows(6, 123.0);
        assert_eq!(injector.apply(input.clone()), input);
        assert_eq!(injector.counts().total(), 0);
        assert!(!injector.rolls_worker_panic());
    }

    /// Bit-level view of the windows: NaN-safe equality (NaN != NaN
    /// under `PartialEq`, but injection must be byte-identical).
    fn bits(windows: &[FeatureVector]) -> Vec<Vec<u64>> {
        windows
            .iter()
            .map(|w| w.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn same_seed_and_sample_is_byte_identical() {
        let plan = FaultPlan::uniform(0.3, 99);
        let input = windows(12, 5_000.0);
        let mut a = FaultInjector::for_sample(&plan, SampleId(7), 0);
        let mut b = FaultInjector::for_sample(&plan, SampleId(7), 0);
        assert_eq!(bits(&a.apply(input.clone())), bits(&b.apply(input.clone())));
        assert_eq!(a.counts(), b.counts());

        // A different sample id (or attempt) gets a different stream.
        let mut c = FaultInjector::for_sample(&plan, SampleId(8), 0);
        let mut d = FaultInjector::for_sample(&plan, SampleId(7), 1);
        let base = FaultInjector::for_sample(&plan, SampleId(7), 0).apply(input.clone());
        assert_ne!(bits(&c.apply(input.clone())), bits(&base));
        // Attempt salting changes the panic roll stream too; the window
        // outcome may coincide rarely, so just check it runs.
        let _ = d.apply(input);
    }

    #[test]
    fn every_mode_fires_at_full_rate() {
        let mut plan = FaultPlan::uniform(1.0, 1);
        plan.drop_window = 0.0; // keep windows alive so other modes act
        plan.worker_panic = 1.0;
        let mut injector = FaultInjector::for_sample(&plan, SampleId(2), 0);
        assert!(injector.rolls_worker_panic());
        let out = injector.apply(windows(4, 40_000.0));
        let counts = injector.counts();
        assert_eq!(out.len(), 8, "every window duplicated");
        assert!(counts.duplicated_windows == 4);
        assert!(counts.wrapped_windows == 4);
        assert!(counts.saturated_windows == 4);
        assert_eq!(counts.stuck_events, HpcEvent::COUNT);
        // Stuck-at-zero wins over starvation/perturbation per event.
        assert_eq!(counts.starved_readings, 0);
        for fv in &out {
            assert!(fv.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn starvation_produces_nan_estimates() {
        let mut plan = FaultPlan::none();
        plan.mux_starvation = 1.0;
        let mut injector = FaultInjector::for_sample(&plan, SampleId(3), 0);
        let out = injector.apply(windows(2, 10.0));
        assert!(out
            .iter()
            .all(|fv| fv.as_slice().iter().all(|v| v.is_nan())));
        assert_eq!(injector.counts().starved_readings, 2 * HpcEvent::COUNT);
    }

    #[test]
    fn wraparound_folds_large_counts() {
        let mut plan = FaultPlan::none();
        plan.wraparound = 1.0;
        plan.wrap_bits = 8;
        let mut injector = FaultInjector::for_sample(&plan, SampleId(4), 0);
        let out = injector.apply(windows(1, 1_000.0));
        for &v in out[0].as_slice() {
            assert!(v < 256.0, "wrapped to 8 bits, got {v}");
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut plan = FaultPlan::none();
        plan.drop_window = 1.5;
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.perturb_magnitude = f64::NAN;
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.wrap_bits = 0;
        assert!(plan.validate().is_err());

        assert!(FaultPlan::uniform(0.2, 5).validate().is_ok());
    }
}
