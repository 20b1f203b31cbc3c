//! The pluggable collection backend: a [`CounterSource`] is anything
//! that can program the paper's 16 hardware events and read back one
//! sampling window of scaled estimates.
//!
//! Two implementations exist:
//!
//! * [`SimSource`] — the deterministic `hbmd-uarch` simulator (the
//!   default; CI-safe, byte-identical output per seed), and
//! * `PerfSource` (behind the `perf-backend` feature) — a real Linux
//!   `perf_event_open(2)` group, raw-syscall FFI with no external
//!   dependencies, in [`crate::sys`].
//!
//! Both speak the same contract: [`CounterSource::program`] takes the
//! full collected event set (see [`EventSel::paper_set`]),
//! [`CounterSource::read_window`] executes one fixed-budget sampling
//! window of the sample's workload and returns a [`CounterWindow`] —
//! scaled estimates plus the `time_enabled`/`time_running` telemetry
//! that `perf stat` would print. Fault injection, sanitisation and the
//! quarantine machinery all sit *above* the source, so they compose
//! over either backend unchanged.

use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::Sample;
use hbmd_uarch::Cpu;

use crate::container::ContainedStream;
use crate::error::PerfError;
use crate::pmu::Pmu;
use crate::sampler::SamplerConfig;

/// Which counter backend a [`Collector`](crate::Collector) reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceSelect {
    /// The deterministic `hbmd-uarch` PMU model (default, CI-safe).
    #[default]
    Sim,
    /// Live Linux hardware counters via `perf_event_open(2)`. Requires
    /// the `perf-backend` feature and a host whose
    /// `kernel.perf_event_paranoid` admits self-profiling.
    Perf,
}

impl SourceSelect {
    /// Stable lowercase name (CLI values, metric labels, manifests).
    pub fn name(self) -> &'static str {
        match self {
            SourceSelect::Sim => "sim",
            SourceSelect::Perf => "perf",
        }
    }

    /// Check this backend can run here, without collecting anything.
    ///
    /// The simulator is always available. The perf backend probes at
    /// runtime: it opens (and immediately closes) a trivial hardware
    /// counter on the current thread, so a missing PMU, a restrictive
    /// `perf_event_paranoid`, or a kernel without `perf_event_open`
    /// all surface here instead of mid-collection.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::BackendUnavailable`] with the probe's
    /// findings (including the paranoid level when readable), or when
    /// the crate was built without the `perf-backend` feature.
    pub fn probe(self) -> Result<(), PerfError> {
        match self {
            SourceSelect::Sim => Ok(()),
            #[cfg(feature = "perf-backend")]
            SourceSelect::Perf => crate::sys::probe(),
            #[cfg(not(feature = "perf-backend"))]
            SourceSelect::Perf => Err(PerfError::BackendUnavailable {
                reason: "built without the `perf-backend` feature".to_owned(),
            }),
        }
    }
}

impl std::fmt::Display for SourceSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SourceSelect {
    type Err = PerfError;

    fn from_str(s: &str) -> Result<SourceSelect, PerfError> {
        match s {
            "sim" => Ok(SourceSelect::Sim),
            "perf" => Ok(SourceSelect::Perf),
            other => Err(PerfError::Config(format!(
                "unknown counter source `{other}` (expected `sim` or `perf`)"
            ))),
        }
    }
}

/// One event-programming request: a collected event plus the
/// `perf_event_attr` encoding a real PMU needs for it.
///
/// The encoding follows `include/uapi/linux/perf_event.h`: plain
/// hardware events use `PERF_TYPE_HARDWARE` ids, cache-hierarchy
/// events use `PERF_TYPE_HW_CACHE` with `id | (op << 8) |
/// (result << 16)`. The mapping is plain data — it is not
/// feature-gated, so the simulator, tests and docs can all reason
/// about what the live backend would program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSel {
    /// The collected event this selection counts.
    pub event: HpcEvent,
    /// `perf_event_attr.type`.
    pub perf_type: u32,
    /// `perf_event_attr.config`.
    pub perf_config: u64,
}

/// `perf_event_attr.type` values (uapi `perf_type_id`).
pub const PERF_TYPE_HARDWARE: u32 = 0;
/// Cache-hierarchy event type (uapi `perf_type_id`).
pub const PERF_TYPE_HW_CACHE: u32 = 3;

// uapi `perf_hw_id`.
const HW_CACHE_REFERENCES: u64 = 2;
const HW_CACHE_MISSES: u64 = 3;
const HW_BRANCH_INSTRUCTIONS: u64 = 4;
const HW_BRANCH_MISSES: u64 = 5;

// uapi `perf_hw_cache_id`.
const CACHE_L1D: u64 = 0;
const CACHE_L1I: u64 = 1;
const CACHE_LL: u64 = 2;
const CACHE_DTLB: u64 = 3;
const CACHE_ITLB: u64 = 4;
const CACHE_BPU: u64 = 5;
const CACHE_NODE: u64 = 6;

// uapi `perf_hw_cache_op_id` / `perf_hw_cache_op_result_id`.
const OP_READ: u64 = 0;
const OP_WRITE: u64 = 1;
const RESULT_ACCESS: u64 = 0;
const RESULT_MISS: u64 = 1;

const fn cache(id: u64, op: u64, result: u64) -> u64 {
    id | (op << 8) | (result << 16)
}

impl EventSel {
    /// The selection for one collected event.
    pub fn for_event(event: HpcEvent) -> EventSel {
        let (perf_type, perf_config) = match event {
            HpcEvent::BranchInstructions => (PERF_TYPE_HARDWARE, HW_BRANCH_INSTRUCTIONS),
            HpcEvent::BranchMisses => (PERF_TYPE_HARDWARE, HW_BRANCH_MISSES),
            HpcEvent::CacheReferences => (PERF_TYPE_HARDWARE, HW_CACHE_REFERENCES),
            HpcEvent::CacheMisses => (PERF_TYPE_HARDWARE, HW_CACHE_MISSES),
            HpcEvent::BranchLoads => (PERF_TYPE_HW_CACHE, cache(CACHE_BPU, OP_READ, RESULT_ACCESS)),
            HpcEvent::BranchLoadMisses => {
                (PERF_TYPE_HW_CACHE, cache(CACHE_BPU, OP_READ, RESULT_MISS))
            }
            HpcEvent::LlcLoads => (PERF_TYPE_HW_CACHE, cache(CACHE_LL, OP_READ, RESULT_ACCESS)),
            HpcEvent::LlcLoadMisses => (PERF_TYPE_HW_CACHE, cache(CACHE_LL, OP_READ, RESULT_MISS)),
            HpcEvent::L1DcacheLoads => {
                (PERF_TYPE_HW_CACHE, cache(CACHE_L1D, OP_READ, RESULT_ACCESS))
            }
            HpcEvent::L1DcacheLoadMisses => {
                (PERF_TYPE_HW_CACHE, cache(CACHE_L1D, OP_READ, RESULT_MISS))
            }
            HpcEvent::L1DcacheStores => (
                PERF_TYPE_HW_CACHE,
                cache(CACHE_L1D, OP_WRITE, RESULT_ACCESS),
            ),
            HpcEvent::L1IcacheLoadMisses => {
                (PERF_TYPE_HW_CACHE, cache(CACHE_L1I, OP_READ, RESULT_MISS))
            }
            HpcEvent::ItlbLoadMisses => {
                (PERF_TYPE_HW_CACHE, cache(CACHE_ITLB, OP_READ, RESULT_MISS))
            }
            HpcEvent::DtlbLoadMisses => {
                (PERF_TYPE_HW_CACHE, cache(CACHE_DTLB, OP_READ, RESULT_MISS))
            }
            HpcEvent::NodeLoads => (
                PERF_TYPE_HW_CACHE,
                cache(CACHE_NODE, OP_READ, RESULT_ACCESS),
            ),
            HpcEvent::NodeStores => (
                PERF_TYPE_HW_CACHE,
                cache(CACHE_NODE, OP_WRITE, RESULT_ACCESS),
            ),
        };
        EventSel {
            event,
            perf_type,
            perf_config,
        }
    }

    /// The paper's full 16-event selection, in feature-column order —
    /// the only selection both backends accept.
    pub fn paper_set() -> [EventSel; HpcEvent::COUNT] {
        let mut sels = [EventSel::for_event(HpcEvent::BranchInstructions); HpcEvent::COUNT];
        for (slot, event) in sels.iter_mut().zip(HpcEvent::ALL) {
            *slot = EventSel::for_event(event);
        }
        sels
    }

    /// `true` when `events` is exactly [`paper_set`](EventSel::paper_set).
    pub fn is_paper_set(events: &[EventSel]) -> bool {
        events.len() == HpcEvent::COUNT
            && events
                .iter()
                .zip(HpcEvent::ALL)
                .all(|(sel, event)| sel.event == event)
    }
}

/// One sampling window as read from a [`CounterSource`]: the scaled
/// estimates plus the multiplexing telemetry behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterWindow {
    /// Scaled per-event estimates (the dataset-row payload). Events the
    /// source could not schedule at all are `NaN` — the sanitiser's
    /// imputation/abstention path owns those downstream.
    pub features: FeatureVector,
    /// How long the window's events were enabled, in backend-native
    /// units (PMU time slices for the simulator, nanoseconds for the
    /// perf backend).
    pub time_enabled: u64,
    /// The *least*-scheduled event's running time, same units — the
    /// window's worst-case multiplexing duty cycle.
    pub time_running: u64,
    /// Events that were never scheduled this window (their features
    /// are `NaN`).
    pub starved_events: usize,
}

impl CounterWindow {
    /// The worst-case `enabled / running` multiplexing correction of
    /// this window (1.0 when nothing was multiplexed out).
    pub fn scaling(&self) -> f64 {
        if self.time_running == 0 {
            f64::INFINITY
        } else {
            self.time_enabled as f64 / self.time_running as f64
        }
    }

    /// `true` when every programmed event got counter time.
    pub fn fully_scheduled(&self) -> bool {
        self.starved_events == 0 && self.time_running > 0
    }
}

/// Static facts a backend reports about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceCaps {
    /// Stable backend name (matches [`SourceSelect::name`]).
    pub backend: &'static str,
    /// `true` when the counts come from real hardware.
    pub live: bool,
    /// Programmable counter registers available per scheduling group.
    pub counters: usize,
    /// `true` when the event set exceeds the registers and estimates
    /// carry a `time_enabled / time_running` correction.
    pub multiplexed: bool,
}

/// The event-programming / window-sampling contract every collection
/// backend implements.
///
/// A source is minted per sample (fresh microarchitectural state — the
/// container hygiene of the reference setup), programmed once, then
/// read once per sampling window. Reading before programming is a
/// [`PerfError::Config`] error on every backend.
pub trait CounterSource {
    /// Program the counter registers. Both shipped backends accept
    /// exactly [`EventSel::paper_set`] — the dataset schema is fixed at
    /// 16 columns, so partial selections are a configuration error.
    ///
    /// # Errors
    ///
    /// [`PerfError::Config`] for a non-paper selection;
    /// [`PerfError::BackendUnavailable`] when the backend lost access
    /// to its counters.
    fn program(&mut self, events: &[EventSel]) -> Result<(), PerfError>;

    /// Execute one fixed-budget sampling window of the sample's
    /// workload and return the scaled estimates.
    ///
    /// # Errors
    ///
    /// [`PerfError::Config`] when called before
    /// [`program`](CounterSource::program); backend-specific errors
    /// (e.g. [`PerfError::Backend`]) when a live read fails.
    fn read_window(&mut self) -> Result<CounterWindow, PerfError>;

    /// Static capability report for this backend.
    fn caps(&self) -> SourceCaps;
}

/// Mint the selected backend's source for one sample.
///
/// # Errors
///
/// Propagates backend construction failures; selecting
/// [`SourceSelect::Perf`] without the `perf-backend` feature (or on a
/// host that fails the probe) returns
/// [`PerfError::BackendUnavailable`].
pub fn open_source(
    select: SourceSelect,
    config: &SamplerConfig,
    sample: &Sample,
) -> Result<Box<dyn CounterSource>, PerfError> {
    match select {
        SourceSelect::Sim => Ok(Box::new(SimSource::new(config, sample)?)),
        #[cfg(feature = "perf-backend")]
        SourceSelect::Perf => Ok(Box::new(crate::sys::PerfSource::open(config, sample)?)),
        #[cfg(not(feature = "perf-backend"))]
        SourceSelect::Perf => Err(PerfError::BackendUnavailable {
            reason: "built without the `perf-backend` feature".to_owned(),
        }),
    }
}

/// The deterministic simulator backend: the sample's instruction
/// stream executed on the `hbmd-uarch` core model, counted by the
/// time-sliced [`Pmu`] multiplexing model (or exactly, when the
/// sampler disables multiplexing).
///
/// This is the seed pipeline's behaviour factored behind the trait —
/// its output is byte-identical to the pre-trait collector.
pub struct SimSource {
    cpu: Cpu,
    stream: ContainedStream,
    pmu: Option<Pmu>,
    budget: u64,
    programmed: bool,
}

impl SimSource {
    /// Launch `sample` in a fresh simulated container.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] when the sampler's PMU model is
    /// invalid.
    pub fn new(config: &SamplerConfig, sample: &Sample) -> Result<SimSource, PerfError> {
        Ok(SimSource {
            cpu: Cpu::new(config.cpu.clone()),
            stream: ContainedStream::new(sample, config.host_noise),
            pmu: config
                .pmu
                .as_ref()
                .map(|c| Pmu::new(c.clone()))
                .transpose()?,
            budget: config.instructions_per_window,
            programmed: false,
        })
    }
}

impl CounterSource for SimSource {
    fn program(&mut self, events: &[EventSel]) -> Result<(), PerfError> {
        if !EventSel::is_paper_set(events) {
            return Err(PerfError::Config(
                "the simulator source counts exactly the 16 collected events \
                 in column order"
                    .to_owned(),
            ));
        }
        self.programmed = true;
        Ok(())
    }

    fn read_window(&mut self) -> Result<CounterWindow, PerfError> {
        if !self.programmed {
            return Err(PerfError::Config(
                "read_window before program on the simulator source".to_owned(),
            ));
        }
        let (features, time_enabled, time_running) = match &mut self.pmu {
            Some(pmu) => {
                let features = pmu.measure_window(&mut self.cpu, &mut self.stream, self.budget);
                let slices = pmu.config().slices_per_window as u64;
                let groups = pmu.config().groups() as u64;
                // Every event is live for at least ⌊slices/groups⌋ of
                // the window's slices — the model's worst duty cycle.
                (features, slices, slices / groups)
            }
            None => {
                let features =
                    Pmu::measure_window_exact(&mut self.cpu, &mut self.stream, self.budget);
                (features, 1, 1)
            }
        };
        Ok(CounterWindow {
            features,
            time_enabled,
            time_running,
            starved_events: 0,
        })
    }

    fn caps(&self) -> SourceCaps {
        SourceCaps {
            backend: SourceSelect::Sim.name(),
            live: false,
            counters: self
                .pmu
                .as_ref()
                .map_or(HpcEvent::COUNT, |p| p.config().counters),
            multiplexed: self.pmu.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_malware::{AppClass, SampleId};

    fn sample() -> Sample {
        Sample::generate(SampleId(7), AppClass::Worm, 5)
    }

    #[test]
    fn paper_set_covers_all_events_in_column_order() {
        let set = EventSel::paper_set();
        assert_eq!(set.len(), HpcEvent::COUNT);
        for (i, sel) in set.iter().enumerate() {
            assert_eq!(sel.event.index(), i);
        }
        assert!(EventSel::is_paper_set(&set));
        assert!(!EventSel::is_paper_set(&set[..8]));
    }

    #[test]
    fn perf_encodings_are_unique_and_well_typed() {
        use std::collections::BTreeSet;
        let set = EventSel::paper_set();
        let encodings: BTreeSet<(u32, u64)> =
            set.iter().map(|s| (s.perf_type, s.perf_config)).collect();
        assert_eq!(encodings.len(), HpcEvent::COUNT, "duplicate encodings");
        for sel in &set {
            assert!(
                sel.perf_type == PERF_TYPE_HARDWARE || sel.perf_type == PERF_TYPE_HW_CACHE,
                "{:?}",
                sel
            );
        }
        // Spot-check the uapi encodings against known values.
        let branches = EventSel::for_event(HpcEvent::BranchInstructions);
        assert_eq!((branches.perf_type, branches.perf_config), (0, 4));
        let l1d_misses = EventSel::for_event(HpcEvent::L1DcacheLoadMisses);
        assert_eq!((l1d_misses.perf_type, l1d_misses.perf_config), (3, 1 << 16));
    }

    #[test]
    fn sim_source_requires_program_before_read() {
        let mut source = SimSource::new(&SamplerConfig::fast(), &sample()).expect("valid");
        assert!(matches!(source.read_window(), Err(PerfError::Config(_))));
        source.program(&EventSel::paper_set()).expect("paper set");
        assert!(source.read_window().is_ok());
    }

    #[test]
    fn sim_source_rejects_partial_selections() {
        let mut source = SimSource::new(&SamplerConfig::fast(), &sample()).expect("valid");
        let set = EventSel::paper_set();
        assert!(source.program(&set[..4]).is_err());
        assert!(source.program(&[]).is_err());
    }

    #[test]
    fn sim_windows_match_the_legacy_sampler_path() {
        let config = SamplerConfig::fast();
        let s = sample();
        let mut source = SimSource::new(&config, &s).expect("valid");
        source.program(&EventSel::paper_set()).expect("paper set");
        let via_source: Vec<FeatureVector> = (0..config.windows_per_sample)
            .map(|_| source.read_window().expect("sim never fails").features)
            .collect();
        let via_sampler = crate::Sampler::new(config)
            .expect("valid")
            .collect_sample(&s);
        assert_eq!(via_source, via_sampler);
    }

    #[test]
    fn sim_caps_and_scheduling_telemetry() {
        let mut source = SimSource::new(&SamplerConfig::fast(), &sample()).expect("valid");
        let caps = source.caps();
        assert_eq!(caps.backend, "sim");
        assert!(!caps.live);
        assert!(caps.multiplexed);
        source.program(&EventSel::paper_set()).expect("paper set");
        let window = source.read_window().expect("sim never fails");
        assert!(window.fully_scheduled());
        // 16 events on 8 registers: every event lives half the window.
        assert!((window.scaling() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn source_select_parses_and_probes() {
        assert_eq!("sim".parse::<SourceSelect>().unwrap(), SourceSelect::Sim);
        assert_eq!("perf".parse::<SourceSelect>().unwrap(), SourceSelect::Perf);
        assert!("qemu".parse::<SourceSelect>().is_err());
        assert!(SourceSelect::Sim.probe().is_ok());
        assert_eq!(SourceSelect::default(), SourceSelect::Sim);
    }
}
