use std::fmt;
use std::str::FromStr;

/// The 16 hardware performance counter events collected per sample.
///
/// These are the events the reference evaluation reads with `perf stat`
/// at a 10 ms sampling period on the Haswell i5-4590; each dataset row
/// holds one scaled count per event plus a class label (16 + 1 columns).
///
/// The discriminants are stable and double as the feature-column index in
/// every dataset produced by the suite.
///
/// # Examples
///
/// ```
/// use hbmd_events::HpcEvent;
///
/// assert_eq!(HpcEvent::BranchMisses.name(), "branch-misses");
/// assert_eq!("branch-misses".parse::<HpcEvent>()?, HpcEvent::BranchMisses);
/// assert_eq!(HpcEvent::COUNT, 16);
/// # Ok::<(), hbmd_events::ParseEventError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum HpcEvent {
    /// Retired branch instructions.
    BranchInstructions = 0,
    /// Mispredicted branch instructions.
    BranchMisses = 1,
    /// Branch-unit loads (BTB/branch-buffer reads).
    BranchLoads = 2,
    /// Branch-unit load misses (BTB misses).
    BranchLoadMisses = 3,
    /// Last-level-cache-visible memory references.
    CacheReferences = 4,
    /// References that missed in the last-level cache.
    CacheMisses = 5,
    /// Loads that reached the last-level cache.
    LlcLoads = 6,
    /// Loads that missed in the last-level cache.
    LlcLoadMisses = 7,
    /// Loads serviced by the L1 data cache.
    L1DcacheLoads = 8,
    /// Loads that missed in the L1 data cache.
    L1DcacheLoadMisses = 9,
    /// Stores issued to the L1 data cache.
    L1DcacheStores = 10,
    /// Instruction fetches that missed in the L1 instruction cache.
    L1IcacheLoadMisses = 11,
    /// Instruction-TLB load misses.
    ItlbLoadMisses = 12,
    /// Data-TLB load misses.
    DtlbLoadMisses = 13,
    /// Loads serviced by the local memory node (memory controller reads).
    NodeLoads = 14,
    /// Stores drained to the local memory node (memory controller writes).
    NodeStores = 15,
}

impl HpcEvent {
    /// Number of collected events (feature columns per sample).
    pub const COUNT: usize = 16;

    /// All events in feature-column order.
    pub const ALL: [HpcEvent; HpcEvent::COUNT] = [
        HpcEvent::BranchInstructions,
        HpcEvent::BranchMisses,
        HpcEvent::BranchLoads,
        HpcEvent::BranchLoadMisses,
        HpcEvent::CacheReferences,
        HpcEvent::CacheMisses,
        HpcEvent::LlcLoads,
        HpcEvent::LlcLoadMisses,
        HpcEvent::L1DcacheLoads,
        HpcEvent::L1DcacheLoadMisses,
        HpcEvent::L1DcacheStores,
        HpcEvent::L1IcacheLoadMisses,
        HpcEvent::ItlbLoadMisses,
        HpcEvent::DtlbLoadMisses,
        HpcEvent::NodeLoads,
        HpcEvent::NodeStores,
    ];

    /// Column index of this event in dataset rows (0‥15).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Event from its dataset column index.
    ///
    /// Returns `None` when `index >= HpcEvent::COUNT`.
    pub fn from_index(index: usize) -> Option<HpcEvent> {
        HpcEvent::ALL.get(index).copied()
    }

    /// Canonical Linux-`perf` event name.
    pub fn name(self) -> &'static str {
        match self {
            HpcEvent::BranchInstructions => "branch-instructions",
            HpcEvent::BranchMisses => "branch-misses",
            HpcEvent::BranchLoads => "branch-loads",
            HpcEvent::BranchLoadMisses => "branch-load-misses",
            HpcEvent::CacheReferences => "cache-references",
            HpcEvent::CacheMisses => "cache-misses",
            HpcEvent::LlcLoads => "LLC-loads",
            HpcEvent::LlcLoadMisses => "LLC-load-misses",
            HpcEvent::L1DcacheLoads => "L1-dcache-loads",
            HpcEvent::L1DcacheLoadMisses => "L1-dcache-load-misses",
            HpcEvent::L1DcacheStores => "L1-dcache-stores",
            HpcEvent::L1IcacheLoadMisses => "L1-icache-load-misses",
            HpcEvent::ItlbLoadMisses => "iTLB-load-misses",
            HpcEvent::DtlbLoadMisses => "dTLB-load-misses",
            HpcEvent::NodeLoads => "node-loads",
            HpcEvent::NodeStores => "node-stores",
        }
    }

    /// Broad category the event belongs to.
    pub fn kind(self) -> EventKind {
        match self {
            HpcEvent::BranchInstructions
            | HpcEvent::BranchMisses
            | HpcEvent::BranchLoads
            | HpcEvent::BranchLoadMisses => EventKind::Branch,
            HpcEvent::CacheReferences
            | HpcEvent::CacheMisses
            | HpcEvent::LlcLoads
            | HpcEvent::LlcLoadMisses
            | HpcEvent::L1DcacheLoads
            | HpcEvent::L1DcacheLoadMisses
            | HpcEvent::L1DcacheStores
            | HpcEvent::L1IcacheLoadMisses => EventKind::Cache,
            HpcEvent::ItlbLoadMisses | HpcEvent::DtlbLoadMisses => EventKind::Tlb,
            HpcEvent::NodeLoads | HpcEvent::NodeStores => EventKind::Memory,
        }
    }
}

impl fmt::Display for HpcEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for HpcEvent {
    type Err = ParseEventError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        HpcEvent::ALL
            .iter()
            .copied()
            .find(|event| event.name() == s)
            .ok_or_else(|| ParseEventError { name: s.to_owned() })
    }
}

/// Broad category of a hardware performance event.
///
/// Categories drive behavioural modelling in the simulator (which
/// microarchitectural unit emits the event) and grouping in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Branch-unit events (predictor and BTB).
    Branch,
    /// Cache-hierarchy events (L1I, L1D, LLC).
    Cache,
    /// Translation-lookaside-buffer events.
    Tlb,
    /// Memory-node (memory controller) traffic.
    Memory,
    /// Software events (context switches, page faults); present in the
    /// Haswell catalog but never collected as detector features.
    Software,
    /// Core events (cycles, instructions) used only for multiplexing
    /// pressure in the catalog.
    Core,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            EventKind::Branch => "branch",
            EventKind::Cache => "cache",
            EventKind::Tlb => "tlb",
            EventKind::Memory => "memory",
            EventKind::Software => "software",
            EventKind::Core => "core",
        };
        f.write_str(label)
    }
}

/// Error returned when parsing an unknown event name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEventError {
    name: String,
}

impl ParseEventError {
    /// The unrecognised event name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for ParseEventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown perf event name `{}`", self.name)
    }
}

impl std::error::Error for ParseEventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_count_entries_in_index_order() {
        assert_eq!(HpcEvent::ALL.len(), HpcEvent::COUNT);
        for (i, event) in HpcEvent::ALL.iter().enumerate() {
            assert_eq!(event.index(), i);
            assert_eq!(HpcEvent::from_index(i), Some(*event));
        }
    }

    #[test]
    fn from_index_out_of_range_is_none() {
        assert_eq!(HpcEvent::from_index(HpcEvent::COUNT), None);
        assert_eq!(HpcEvent::from_index(usize::MAX), None);
    }

    #[test]
    fn names_round_trip() {
        for event in HpcEvent::ALL {
            let parsed: HpcEvent = event.name().parse().expect("round trip");
            assert_eq!(parsed, event);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = HpcEvent::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HpcEvent::COUNT);
    }

    #[test]
    fn unknown_name_is_an_error() {
        let err = "flux-capacitor-misses".parse::<HpcEvent>().unwrap_err();
        assert_eq!(err.name(), "flux-capacitor-misses");
        assert!(err.to_string().contains("flux-capacitor-misses"));
    }

    #[test]
    fn kinds_cover_the_four_collected_categories() {
        use std::collections::BTreeSet;
        let kinds: BTreeSet<EventKind> = HpcEvent::ALL.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&EventKind::Branch));
        assert!(kinds.contains(&EventKind::Cache));
        assert!(kinds.contains(&EventKind::Tlb));
        assert!(kinds.contains(&EventKind::Memory));
        assert!(!kinds.contains(&EventKind::Software));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(HpcEvent::LlcLoadMisses.to_string(), "LLC-load-misses");
        assert_eq!(EventKind::Tlb.to_string(), "tlb");
    }
}
