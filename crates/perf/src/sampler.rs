use hbmd_events::FeatureVector;
use hbmd_malware::Sample;
use hbmd_uarch::CpuConfig;

use crate::error::PerfError;
use crate::pmu::PmuConfig;
use crate::source::{open_source, CounterWindow, EventSel, SourceSelect};

/// How each sample is observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplerConfig {
    /// Sampling windows recorded per sample. The reference dataset has
    /// ~50,000 rows over 3,070 samples ⇒ ~16 windows each.
    pub windows_per_sample: usize,
    /// Instruction budget per window — the simulated 10 ms period (see
    /// the crate docs on time scaling).
    pub instructions_per_window: u64,
    /// PMU programming (multiplexing model). `None` disables
    /// multiplexing and counts every event exactly.
    pub pmu: Option<PmuConfig>,
    /// Machine description for the container cores.
    pub cpu: CpuConfig,
    /// Host-noise ratio; 0 keeps the paper's isolated-container setup.
    pub host_noise: f64,
}

impl SamplerConfig {
    /// The reference setup: 16 windows × 20,000 instructions, isolated
    /// containers, multiplexed 16-event PMU on Haswell.
    pub fn paper() -> SamplerConfig {
        SamplerConfig {
            windows_per_sample: 16,
            instructions_per_window: 20_000,
            pmu: Some(PmuConfig::haswell_collected()),
            cpu: CpuConfig::haswell(),
            host_noise: 0.0,
        }
    }

    /// A reduced setup for tests and quick experiments: 4 windows of
    /// 4,000 instructions on the tiny machine.
    pub fn fast() -> SamplerConfig {
        SamplerConfig {
            windows_per_sample: 4,
            instructions_per_window: 4_000,
            pmu: Some(PmuConfig::haswell_collected()),
            cpu: CpuConfig::tiny(),
            host_noise: 0.0,
        }
    }

    /// Check the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] for zero windows/budget, an invalid
    /// CPU description, or an invalid PMU configuration.
    pub fn validate(&self) -> Result<(), PerfError> {
        if self.windows_per_sample == 0 {
            return Err(PerfError::Config(
                "windows_per_sample must be non-zero".to_owned(),
            ));
        }
        if self.instructions_per_window == 0 {
            return Err(PerfError::Config(
                "instructions_per_window must be non-zero".to_owned(),
            ));
        }
        if !(self.host_noise.is_finite() && self.host_noise >= 0.0) {
            return Err(PerfError::Config(
                "host_noise must be finite and non-negative".to_owned(),
            ));
        }
        self.cpu
            .validate()
            .map_err(|e| PerfError::Config(format!("cpu: {e}")))?;
        if let Some(pmu) = &self.pmu {
            pmu.validate()?;
        }
        Ok(())
    }
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig::paper()
    }
}

/// Records the per-window feature vectors of individual samples — the
/// `perf stat -I 10` loop of the reference pipeline.
///
/// # Examples
///
/// ```
/// use hbmd_malware::{AppClass, Sample, SampleId};
/// use hbmd_perf::{Sampler, SamplerConfig};
///
/// let sampler = Sampler::new(SamplerConfig::fast())?;
/// let sample = Sample::generate(SampleId(0), AppClass::Worm, 5);
/// let windows = sampler.collect_sample(&sample);
/// assert_eq!(windows.len(), 4);
/// # Ok::<(), hbmd_perf::PerfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    config: SamplerConfig,
}

impl Sampler {
    /// Build a sampler.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] when `config` fails
    /// [`SamplerConfig::validate`].
    pub fn new(config: SamplerConfig) -> Result<Sampler, PerfError> {
        config.validate()?;
        Ok(Sampler { config })
    }

    /// The configuration this sampler runs with.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Execute `sample` in its container and record one feature vector
    /// per sampling window — the simulator-source convenience wrapper
    /// around [`collect_windows`](Sampler::collect_windows).
    pub fn collect_sample(&self, sample: &Sample) -> Vec<FeatureVector> {
        self.collect_windows(SourceSelect::Sim, sample)
            .expect("the simulator source is infallible on a validated config")
            .into_iter()
            .map(|window| window.features)
            .collect()
    }

    /// Read one [`CounterWindow`] per sampling window from the selected
    /// counter backend: a fresh source is minted for the sample (the
    /// per-sample container hygiene of the reference setup), programmed
    /// with the paper's 16 events, and read window by window.
    ///
    /// # Errors
    ///
    /// Propagates backend construction and read failures —
    /// [`PerfError::BackendUnavailable`] when the selected source
    /// cannot run here, [`PerfError::Backend`] when a live read fails.
    /// The simulator source never errors on a validated config.
    pub fn collect_windows(
        &self,
        select: SourceSelect,
        sample: &Sample,
    ) -> Result<Vec<CounterWindow>, PerfError> {
        let mut source = open_source(select, &self.config, sample)?;
        source.program(&EventSel::paper_set())?;
        (0..self.config.windows_per_sample)
            .map(|_| source.read_window())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_events::HpcEvent;
    use hbmd_malware::{AppClass, SampleId};

    #[test]
    fn collects_requested_window_count() {
        let sampler = Sampler::new(SamplerConfig::fast()).expect("valid");
        let sample = Sample::generate(SampleId(1), AppClass::Trojan, 9);
        let windows = sampler.collect_sample(&sample);
        assert_eq!(windows.len(), 4);
        for fv in &windows {
            assert!(fv.as_slice().iter().any(|&v| v > 0.0));
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let sampler = Sampler::new(SamplerConfig::fast()).expect("valid");
        let sample = Sample::generate(SampleId(2), AppClass::Rootkit, 9);
        assert_eq!(
            sampler.collect_sample(&sample),
            sampler.collect_sample(&sample)
        );
    }

    #[test]
    fn exact_mode_differs_from_multiplexed() {
        let sample = Sample::generate(SampleId(3), AppClass::Virus, 9);
        let multiplexed = Sampler::new(SamplerConfig::fast())
            .expect("valid")
            .collect_sample(&sample);
        let exact = Sampler::new(SamplerConfig {
            pmu: None,
            ..SamplerConfig::fast()
        })
        .expect("valid")
        .collect_sample(&sample);
        assert_ne!(multiplexed, exact);
        // But the first window's branch count should be in the same
        // ballpark (scaling is unbiased).
        let m = multiplexed[0][HpcEvent::BranchInstructions];
        let e = exact[0][HpcEvent::BranchInstructions];
        assert!((m - e).abs() / e.max(1.0) < 0.5, "m={m} e={e}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = SamplerConfig::fast();
        c.windows_per_sample = 0;
        assert!(Sampler::new(c).is_err());

        let mut c = SamplerConfig::fast();
        c.instructions_per_window = 0;
        assert!(Sampler::new(c).is_err());

        let mut c = SamplerConfig::fast();
        c.host_noise = f64::NAN;
        assert!(Sampler::new(c).is_err());
    }

    #[test]
    fn windows_vary_across_the_run() {
        // Phase scheduling means consecutive windows should not all be
        // identical for a phase-rich class.
        let sampler = Sampler::new(SamplerConfig {
            windows_per_sample: 8,
            ..SamplerConfig::fast()
        })
        .expect("valid");
        let sample = Sample::generate(SampleId(4), AppClass::Worm, 9);
        let windows = sampler.collect_sample(&sample);
        let distinct: std::collections::HashSet<String> = windows
            .iter()
            .map(|w| format!("{:?}", w.as_slice()))
            .collect();
        assert!(distinct.len() > 1, "all windows identical");
    }
}
