//! Exactness of the constant-time TLB and cache models.
//!
//! `ScanTlb` and `ScanCache` below are the straightforward linear-scan
//! LRU models: every entry carries a last-use stamp, a lookup scans the
//! whole set, and a miss evicts the first invalid entry, else the one
//! with the smallest stamp. They are test oracles only. Random
//! address/write streams, with resets mid-stream, drive an oracle and
//! the production model side by side; every access result and every
//! statistic must agree.

use hbmd_uarch::{Access, Cache, CacheConfig, Tlb, TlbConfig};
use proptest::prelude::*;

/// Linear-scan LRU TLB: `(page, stamp)` per entry, `u64::MAX` page =
/// invalid.
struct ScanTlb {
    entries: Vec<(u64, u64)>,
    page_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ScanTlb {
    fn new(config: TlbConfig) -> ScanTlb {
        ScanTlb {
            entries: vec![(u64::MAX, 0); config.entries],
            page_shift: config.page_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr >> self.page_shift;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.0 == page {
                entry.1 = self.clock;
                self.hits += 1;
                return true;
            }
            if entry.1 < oldest {
                oldest = entry.1;
                victim = i;
            }
        }
        self.misses += 1;
        self.entries[victim] = (page, self.clock);
        false
    }

    fn reset(&mut self) {
        self.entries.fill((u64::MAX, 0));
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[derive(Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Linear-scan LRU cache over an array of `Line`s.
struct ScanCache {
    ways: usize,
    lines: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl ScanCache {
    fn new(config: CacheConfig) -> ScanCache {
        let sets = config.sets();
        ScanCache {
            ways: config.associativity,
            lines: vec![Line::default(); sets * config.associativity],
            set_mask: (sets - 1) as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> Access {
        self.clock += 1;
        let line_addr = addr >> self.line_shift;
        let base = (line_addr & self.set_mask) as usize * self.ways;
        let tag = line_addr >> self.set_mask.count_ones();
        for line in &mut self.lines[base..base + self.ways] {
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= write;
                self.hits += 1;
                return Access::Hit;
            }
        }
        self.misses += 1;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for way in base..base + self.ways {
            let line = &self.lines[way];
            if !line.valid {
                victim = way;
                break;
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = way;
            }
        }
        let writeback = self.lines[victim].valid && self.lines[victim].dirty;
        if writeback {
            self.writebacks += 1;
        }
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        Access::Miss { writeback }
    }

    fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

/// One step of a stream: `(kind, spread, pick, offset, write)`. Kind 0
/// resets both models (about one step in 64); otherwise the step is an
/// access whose address the geometry derives from `spread`/`pick`.
type Step = (u8, u8, u64, u64, bool);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..64, 0u8..4, 0u64..1 << 20, 0u64..1 << 12, 0u8..4)
            .prop_map(|(kind, spread, pick, offset, w)| (kind, spread, pick, offset, w == 0)),
        1..1500,
    )
}

/// An address for `config`: mostly from a conflict-heavy pool of
/// `2 × associativity` lines in each of four sets, sometimes anywhere.
fn cache_addr(config: &CacheConfig, (_, spread, pick, offset, _): Step) -> u64 {
    let line = config.line_bytes as u64;
    let stride = config.sets() as u64 * line;
    let pool = 2 * config.associativity as u64;
    match spread {
        0 => pick * 0x9e37_79b9 + offset,
        _ => 0x40_0000 + (pick % 4) * line + (pick / 4 % pool) * stride + offset % line,
    }
}

/// An address for `config`: mostly from a pool of about twice the
/// entries' worth of pages, sometimes anywhere.
fn tlb_addr(config: &TlbConfig, (_, spread, pick, offset, _): Step) -> u64 {
    let pool = 2 * config.entries as u64 + 1;
    match spread {
        0 => pick.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        _ => 0x7f00_0000_0000 + (pick % pool) * config.page_bytes + offset % config.page_bytes,
    }
}

fn check_cache(config: CacheConfig, steps: &[Step]) {
    let mut fast = Cache::new(config);
    let mut oracle = ScanCache::new(config);
    for (i, &step) in steps.iter().enumerate() {
        if step.0 == 0 {
            fast.reset();
            oracle.reset();
        } else {
            let addr = cache_addr(&config, step);
            let write = step.4;
            assert_eq!(
                fast.access(addr, write),
                oracle.access(addr, write),
                "{config:?} step {i}: access({addr:#x}, {write})"
            );
        }
        assert_eq!(fast.hits(), oracle.hits, "{config:?} step {i}: hits");
        assert_eq!(fast.misses(), oracle.misses, "{config:?} step {i}: misses");
        assert_eq!(
            fast.writebacks(),
            oracle.writebacks,
            "{config:?} step {i}: writebacks"
        );
    }
}

fn check_tlb(config: TlbConfig, steps: &[Step]) {
    let mut fast = Tlb::new(config);
    let mut oracle = ScanTlb::new(config);
    for (i, &step) in steps.iter().enumerate() {
        if step.0 == 0 {
            fast.reset();
            oracle.reset();
        } else {
            let addr = tlb_addr(&config, step);
            assert_eq!(
                fast.access(addr),
                oracle.access(addr),
                "{config:?} step {i}: access({addr:#x})"
            );
        }
        assert_eq!(fast.hits(), oracle.hits, "{config:?} step {i}: hits");
        assert_eq!(fast.misses(), oracle.misses, "{config:?} step {i}: misses");
    }
}

fn cache_geometries() -> Vec<CacheConfig> {
    vec![
        // The unit tests' 4-set, 2-way cache and CpuConfig::tiny's levels.
        CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 1024,
            associativity: 2,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 16 * 1024,
            associativity: 4,
            line_bytes: 64,
        },
        // Direct-mapped and fully associative extremes.
        CacheConfig {
            size_bytes: 1024,
            associativity: 1,
            line_bytes: 64,
        },
        CacheConfig {
            size_bytes: 512,
            associativity: 8,
            line_bytes: 64,
        },
        CacheConfig::haswell_l1(),
        CacheConfig::haswell_llc(),
    ]
}

fn tlb_geometries() -> Vec<TlbConfig> {
    vec![
        TlbConfig {
            entries: 1,
            page_bytes: 4096,
        },
        TlbConfig {
            entries: 3,
            page_bytes: 4096,
        },
        TlbConfig {
            entries: 4,
            page_bytes: 4096,
        },
        TlbConfig {
            entries: 8,
            page_bytes: 64,
        },
        TlbConfig::haswell_itlb(),
        TlbConfig::haswell_dtlb(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cache_matches_linear_scan_lru(steps in arb_steps()) {
        for config in cache_geometries() {
            check_cache(config, &steps);
        }
    }

    #[test]
    fn tlb_matches_linear_scan_lru(steps in arb_steps()) {
        for config in tlb_geometries() {
            check_tlb(config, &steps);
        }
    }
}

/// With 1-byte lines and a single set the tag of address `u64::MAX` is
/// `u64::MAX`, the empty-way sentinel: the lookup must still tell the
/// filled line from the empty ways.
#[test]
fn cache_tag_equal_to_the_empty_sentinel_is_exact() {
    let config = CacheConfig {
        size_bytes: 4,
        associativity: 4,
        line_bytes: 1,
    };
    let mut fast = Cache::new(config);
    let mut oracle = ScanCache::new(config);
    for (i, addr) in [u64::MAX, 0, u64::MAX, 1, 2, 3, u64::MAX, 4, u64::MAX]
        .into_iter()
        .enumerate()
    {
        let write = i % 2 == 0;
        assert_eq!(fast.access(addr, write), oracle.access(addr, write));
    }
    assert_eq!(fast.hits(), oracle.hits);
    assert_eq!(fast.misses(), oracle.misses);
    assert_eq!(fast.writebacks(), oracle.writebacks);
}
