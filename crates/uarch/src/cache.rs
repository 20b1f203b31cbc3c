/// Geometry of one cache level.
///
/// Sizes are in bytes; `line_bytes` and the derived set count must be
/// powers of two (validated by [`CacheConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
    /// Line (block) size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Haswell 32 KiB 8-way L1 (instruction or data).
    pub fn haswell_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            associativity: 8,
            line_bytes: 64,
        }
    }

    /// Haswell 6 MiB 12-way shared last-level cache.
    pub fn haswell_llc() -> CacheConfig {
        CacheConfig {
            size_bytes: 6 * 1024 * 1024,
            associativity: 12,
            line_bytes: 64,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.associativity * self.line_bytes)
    }

    /// Check the geometry is usable.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: zero
    /// fields, a non-power-of-two line size or set count, or a size not
    /// divisible by `associativity * line_bytes`.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err("cache geometry fields must be non-zero".to_owned());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} is not a power of two",
                self.line_bytes
            ));
        }
        if !self
            .size_bytes
            .is_multiple_of(self.associativity * self.line_bytes)
        {
            return Err(format!(
                "size {} is not divisible by associativity {} x line {}",
                self.size_bytes, self.associativity, self.line_bytes
            ));
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(format!("set count {sets} is not a power of two"));
        }
        Ok(())
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Line was present.
    Hit,
    /// Line was absent; it has been filled. `writeback` is `true` when
    /// the victim line was dirty and had to be drained downstream.
    Miss {
        /// A dirty victim was evicted.
        writeback: bool,
    },
}

impl Access {
    /// `true` for [`Access::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp; larger is more recent.
    lru: u64,
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::haswell_l1());
/// assert!(!l1.access(0x1000, false).is_hit()); // cold miss
/// assert!(l1.access(0x1000, false).is_hit());  // now resident
/// assert_eq!(l1.misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// Build a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CacheConfig::validate`]; cache geometry
    /// is a construction-time programming decision, not runtime input.
    pub fn new(config: CacheConfig) -> Cache {
        if let Err(msg) = config.validate() {
            panic!("invalid cache config: {msg}");
        }
        let sets = config.sets();
        Cache {
            config,
            lines: vec![Line::default(); sets * config.associativity],
            set_mask: (sets - 1) as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access the line containing `addr`; `write` marks the line dirty.
    ///
    /// On a miss the line is filled (write-allocate) and the LRU victim
    /// evicted; a dirty victim reports `writeback: true`.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.clock += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let ways = self.config.associativity;
        let base = set * ways;

        // Hit path.
        for way in 0..ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= write;
                self.hits += 1;
                return Access::Hit;
            }
        }

        // Miss: pick the invalid way, else the LRU way.
        self.misses += 1;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for way in 0..ways {
            let line = &self.lines[base + way];
            if !line.valid {
                victim = base + way;
                break;
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = base + way;
            }
        }
        let evicted_dirty = {
            let line = &self.lines[victim];
            line.valid && line.dirty
        };
        if evicted_dirty {
            self.writebacks += 1;
        }
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        Access::Miss {
            writeback: evicted_dirty,
        }
    }

    /// Hits since construction or the last [`reset`](Cache::reset).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction or the last reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions since construction or the last reset.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss ratio over all accesses so far (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Invalidate all lines and zero the statistics.
    pub fn reset(&mut self) {
        self.lines.fill(Line::default());
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn haswell_geometries_validate() {
        assert!(CacheConfig::haswell_l1().validate().is_ok());
        assert!(CacheConfig::haswell_llc().validate().is_ok());
        assert_eq!(CacheConfig::haswell_l1().sets(), 64);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let bad_line = CacheConfig {
            size_bytes: 512,
            associativity: 2,
            line_bytes: 48,
        };
        assert!(bad_line.validate().is_err());
        let bad_sets = CacheConfig {
            size_bytes: 3 * 64 * 2,
            associativity: 2,
            line_bytes: 64,
        };
        assert!(bad_sets.validate().is_err());
        let zero = CacheConfig {
            size_bytes: 0,
            associativity: 2,
            line_bytes: 64,
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid cache config")]
    fn constructing_with_bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 0,
            associativity: 1,
            line_bytes: 64,
        });
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0, false).is_hit());
        assert!(c.access(0x0, false).is_hit());
        assert!(c.access(0x3f, false).is_hit(), "same 64-byte line");
        assert!(!c.access(0x40, false).is_hit(), "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with set index 0: addresses k * 64 * 4.
        let stride = 64 * 4;
        c.access(0, false); // A
        c.access(stride, false); // B: set full
        c.access(0, false); // touch A -> B is LRU
        c.access(2 * stride, false); // C evicts B
        assert!(c.access(0, false).is_hit(), "A survived");
        assert!(!c.access(stride, false).is_hit(), "B was evicted");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        let stride = 64 * 4;
        c.access(0, true); // dirty A
        c.access(stride, false); // B
        c.access(2 * stride, false); // evicts dirty A (LRU)
        assert_eq!(c.writebacks(), 1);
        // Re-filling A and evicting clean B must not write back.
        match c.access(3 * stride, false) {
            Access::Miss { writeback } => assert!(!writeback),
            Access::Hit => panic!("expected a miss"),
        }
    }

    #[test]
    fn miss_ratio_and_reset() {
        let mut c = tiny();
        assert_eq!(c.miss_ratio(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
        c.reset();
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert!(!c.access(0, false).is_hit(), "reset invalidates lines");
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // 1024 distinct lines cycled twice through a 8-line cache.
        for pass in 0..2 {
            for i in 0..1024u64 {
                let hit = c.access(i * 64, false).is_hit();
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        assert!(c.miss_ratio() > 0.99);
    }
}
