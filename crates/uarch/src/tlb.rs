/// Sizing of a translation lookaside buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Number of page-translation entries.
    pub entries: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
}

impl TlbConfig {
    /// Haswell instruction TLB: 64 entries, 4 KiB pages.
    pub fn haswell_itlb() -> TlbConfig {
        TlbConfig {
            entries: 64,
            page_bytes: 4096,
        }
    }

    /// Haswell data TLB: 128 entries, 4 KiB pages.
    pub fn haswell_dtlb() -> TlbConfig {
        TlbConfig {
            entries: 128,
            page_bytes: 4096,
        }
    }
}

/// Marks an empty index bucket and the ends of the recency list.
const NIL: usize = usize::MAX;

/// A fully-associative, LRU translation lookaside buffer.
///
/// Both a hit and a miss cost O(1), whatever the entry count:
///
/// * each resident page sits in a *slot*; slots are threaded on an
///   intrusive doubly-linked recency list, head = most recently used,
///   tail = least recently used, so a hit moves its slot to the head
///   and a miss on a full TLB reuses the tail slot;
/// * an open-addressed (linear probing, Fibonacci hashing,
///   backward-shift deletion) page→slot index finds a page's slot,
///   sized to at least 4× the entries so probes stay short;
/// * a translation for the page at the head of the list is answered
///   before the index is probed: consecutive fetches and stack accesses
///   mostly stay on one page.
///
/// Only the set of resident pages and their recency order decide hits
/// and evictions; which slot a page occupies is never observable.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{Tlb, TlbConfig};
///
/// let mut dtlb = Tlb::new(TlbConfig::haswell_dtlb());
/// assert!(!dtlb.access(0x1234)); // cold miss, entry installed
/// assert!(dtlb.access(0x1fff)); // same 4 KiB page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// Resident page, recency links per slot; slots `0..len` are in use.
    slots: Vec<Slot>,
    len: usize,
    /// Most recently used slot (`NIL` when empty).
    head: usize,
    /// Least recently used slot (`NIL` when empty).
    tail: usize,
    /// Page→slot hash index; `NIL` marks an empty bucket.
    index: Vec<usize>,
    /// `64 - log2(index.len())`: keeps the top bits of the hash product.
    hash_shift: u32,
    page_shift: u32,
    hits: u64,
    misses: u64,
}

/// One TLB entry threaded on the recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    /// Neighbour toward the MRU end (`NIL` at the head).
    prev: usize,
    /// Neighbour toward the LRU end (`NIL` at the tail).
    next: usize,
}

impl Tlb {
    /// Build a TLB with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is zero or `page_bytes` is not a power of
    /// two.
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.entries > 0, "TLB needs at least one entry");
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let buckets = config.entries.saturating_mul(4).next_power_of_two();
        Tlb {
            config,
            slots: vec![
                Slot {
                    page: 0,
                    prev: NIL,
                    next: NIL,
                };
                config.entries
            ],
            len: 0,
            head: NIL,
            tail: NIL,
            index: vec![NIL; buckets],
            hash_shift: 64 - buckets.trailing_zeros(),
            page_shift: config.page_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Sizing this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Translate `addr`; returns `true` on a hit. A miss installs the
    /// translation, evicting the LRU entry.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if self.head != NIL && self.slots[self.head].page == page {
            self.hits += 1;
            return true;
        }
        let mut bucket = self.home(page);
        loop {
            let slot = self.index[bucket];
            if slot == NIL {
                break;
            }
            if self.slots[slot].page == page {
                self.unlink(slot);
                self.push_front(slot);
                self.hits += 1;
                return true;
            }
            bucket = (bucket + 1) & (self.index.len() - 1);
        }

        self.misses += 1;
        let slot = if self.len < self.slots.len() {
            self.len += 1;
            self.len - 1
        } else {
            let lru = self.tail;
            self.unindex(self.slots[lru].page);
            self.unlink(lru);
            lru
        };
        self.slots[slot].page = page;
        self.push_front(slot);
        // The eviction may have shifted entries back into the probe run,
        // so the empty bucket found above can be stale: probe again.
        let mut bucket = self.home(page);
        while self.index[bucket] != NIL {
            bucket = (bucket + 1) & (self.index.len() - 1);
        }
        self.index[bucket] = slot;
        false
    }

    /// Home bucket of `page` in the index.
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.hash_shift) as usize
    }

    /// Remove `page` (which must be indexed) from the index, shifting
    /// later members of its probe run back so no tombstone is needed.
    fn unindex(&mut self, page: u64) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(page);
        while self.slots[self.index[hole]].page != page {
            hole = (hole + 1) & mask;
        }
        let mut probe = hole;
        loop {
            probe = (probe + 1) & mask;
            let slot = self.index[probe];
            if slot == NIL {
                break;
            }
            // The entry may fill the hole unless its home lies
            // cyclically in (hole, probe].
            let home = self.home(self.slots[slot].page);
            if probe.wrapping_sub(home) & mask >= probe.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = probe;
            }
        }
        self.index[hole] = NIL;
    }

    /// Detach `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Attach a detached `slot` at the MRU end of the recency list.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Invalidate all entries and zero statistics.
    pub fn reset(&mut self) {
        self.index.fill(NIL);
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 4096,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = tiny();
        assert!(!t.access(0x0));
        assert!(t.access(0xfff));
        assert!(!t.access(0x1000));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let mut t = tiny();
        for page in 0..4u64 {
            t.access(page * 4096);
        }
        t.access(0); // refresh page 0
        t.access(4 * 4096); // evicts page 1 (LRU)
        assert!(t.access(0), "page 0 survived");
        assert!(!t.access(4096), "page 1 evicted");
    }

    #[test]
    fn spread_accesses_thrash_small_tlb() {
        let mut t = tiny();
        for i in 0..10_000u64 {
            t.access((i % 64) * 4096);
        }
        assert!(t.miss_ratio() > 0.9);
    }

    #[test]
    fn reset_clears() {
        let mut t = tiny();
        t.access(0);
        t.reset();
        assert_eq!(t.misses(), 0);
        assert!(!t.access(0));
    }

    #[test]
    fn top_page_is_an_ordinary_page() {
        // With 1-byte pages, address u64::MAX is page u64::MAX: a cold
        // miss like any other, never a match on an empty entry.
        let mut t = Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 1,
        });
        assert!(!t.access(u64::MAX));
        assert!(t.access(u64::MAX));
        assert_eq!((t.hits(), t.misses()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_pages_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 3000,
        });
    }
}
