/// Sizing of the tournament predictor and its branch target buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchPredictorConfig {
    /// log2 of each pattern-history-table's entry count (bimodal,
    /// gshare and chooser tables share this size).
    pub pht_bits: u32,
    /// Global-history length in branches (gshare component).
    pub history_bits: u32,
    /// log2 of the BTB entry count.
    pub btb_bits: u32,
}

impl BranchPredictorConfig {
    /// Haswell-shaped sizing: 4096-entry tables, 12-bit history,
    /// 1024-entry BTB.
    pub fn haswell() -> BranchPredictorConfig {
        BranchPredictorConfig {
            pht_bits: 12,
            history_bits: 12,
            btb_bits: 10,
        }
    }
}

impl Default for BranchPredictorConfig {
    fn default() -> BranchPredictorConfig {
        BranchPredictorConfig::haswell()
    }
}

/// Outcome of predicting one branch, after the predictor has been
/// trained on the actual direction and target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchOutcome {
    /// The predicted direction disagreed with the actual direction, or
    /// the direction was right but the target was unknown/stale.
    pub mispredicted: bool,
    /// The BTB had no entry for the branch PC (a "branch-load miss").
    pub btb_miss: bool,
}

/// A tournament direction predictor (per-PC bimodal + gshare, with a
/// per-PC chooser) and a direct-mapped branch target buffer.
///
/// The bimodal component captures per-site stable directions; the gshare
/// component captures history-correlated patterns; the chooser learns,
/// per branch site, which component to trust — the structure of the
/// Alpha 21264/modern-Intel front end.
///
/// Each predicted branch performs one BTB read — the microarchitectural
/// source of the `branch-loads` event; a missing entry raises
/// `branch-load-misses`.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{BranchPredictor, BranchPredictorConfig};
///
/// let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
/// // A loop branch taken every time becomes predictable quickly.
/// let mut late_mispredicts = 0;
/// for i in 0..1000 {
///     let outcome = bp.predict_and_train(0x400_000, true, 0x400_040);
///     if i >= 100 && outcome.mispredicted {
///         late_mispredicts += 1;
///     }
/// }
/// assert_eq!(late_mispredicts, 0);
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    /// 2-bit saturating counters indexed by PC.
    bimodal: Vec<u8>,
    /// 2-bit saturating counters indexed by PC ^ history.
    gshare: Vec<u8>,
    /// 2-bit chooser indexed by PC: >= 2 trusts gshare.
    chooser: Vec<u8>,
    /// Tagged direct-mapped BTB: `(tag, target)` per entry.
    btb: Vec<Option<(u64, u64)>>,
    history: u64,
    history_mask: u64,
    pht_mask: u64,
    btb_mask: u64,
    branches: u64,
    mispredicts: u64,
    btb_misses: u64,
}

impl BranchPredictor {
    /// Build a predictor with the given sizing.
    pub fn new(config: BranchPredictorConfig) -> BranchPredictor {
        let pht_len = 1usize << config.pht_bits;
        let btb_len = 1usize << config.btb_bits;
        BranchPredictor {
            config,
            bimodal: vec![1; pht_len], // weakly not-taken
            gshare: vec![1; pht_len],
            chooser: vec![1; pht_len], // weakly prefer bimodal
            btb: vec![None; btb_len],
            history: 0,
            history_mask: (1u64 << config.history_bits) - 1,
            pht_mask: (pht_len - 1) as u64,
            btb_mask: (btb_len - 1) as u64,
            branches: 0,
            mispredicts: 0,
            btb_misses: 0,
        }
    }

    /// Sizing this predictor was built with.
    pub fn config(&self) -> &BranchPredictorConfig {
        &self.config
    }

    /// Predict the branch at `pc`, then train on the actual `taken`
    /// direction and `target`.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool, target: u64) -> BranchOutcome {
        self.branches += 1;
        let bi_index = ((pc >> 2) & self.pht_mask) as usize;
        let gs_index = (((pc >> 2) ^ self.history) & self.pht_mask) as usize;

        let bi_taken = self.bimodal[bi_index] >= 2;
        let gs_taken = self.gshare[gs_index] >= 2;
        let use_gshare = self.chooser[bi_index] >= 2;
        let predicted_taken = if use_gshare { gs_taken } else { bi_taken };

        let btb_index = ((pc >> 2) & self.btb_mask) as usize;
        let btb_tag = pc >> (2 + self.config.btb_bits);
        let btb_entry = self.btb[btb_index];
        let btb_hit = matches!(btb_entry, Some((tag, _)) if tag == btb_tag);
        let target_known = matches!(btb_entry, Some((tag, t)) if tag == btb_tag && t == target);

        let direction_wrong = predicted_taken != taken;
        // A taken branch whose target the BTB could not supply redirects
        // the front end just like a direction mispredict.
        let mispredicted = direction_wrong || (taken && !target_known);

        if mispredicted {
            self.mispredicts += 1;
        }
        if !btb_hit {
            self.btb_misses += 1;
        }

        // Train the chooser toward whichever component was right when
        // they disagreed.
        if bi_taken != gs_taken {
            let c = &mut self.chooser[bi_index];
            if gs_taken == taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        // Train both direction tables.
        for (table, index) in [(&mut self.bimodal, bi_index), (&mut self.gshare, gs_index)] {
            let counter = &mut table[index];
            *counter = if taken {
                (*counter + 1).min(3)
            } else {
                counter.saturating_sub(1)
            };
        }
        // Taken branches install/refresh their BTB entry.
        if taken {
            self.btb[btb_index] = Some((btb_tag, target));
        }
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;

        BranchOutcome {
            mispredicted,
            btb_miss: !btb_hit,
        }
    }

    /// Branches predicted so far.
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// BTB misses so far.
    pub fn btb_misses(&self) -> u64 {
        self.btb_misses
    }

    /// Misprediction ratio (0 when no branches yet).
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Clear tables, history and statistics.
    pub fn reset(&mut self) {
        self.bimodal.fill(1);
        self.gshare.fill(1);
        self.chooser.fill(1);
        self.btb.fill(None);
        self.history = 0;
        self.branches = 0;
        self.mispredicts = 0;
        self.btb_misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn always_taken_loop_becomes_predictable() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        for _ in 0..64 {
            bp.predict_and_train(0x1000, true, 0x2000);
        }
        let warm = bp.mispredicts();
        for _ in 0..1000 {
            bp.predict_and_train(0x1000, true, 0x2000);
        }
        assert_eq!(bp.mispredicts(), warm, "steady-state loop mispredicts");
        assert_eq!(bp.branches(), 1064);
    }

    #[test]
    fn random_directions_mispredict_roughly_half_the_time() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        let mut rng = SmallRng::seed_from_u64(7);
        for i in 0..20_000u64 {
            let pc = 0x1000 + (i % 64) * 8;
            bp.predict_and_train(pc, rng.gen_bool(0.5), 0x9000);
        }
        let ratio = bp.mispredict_ratio();
        assert!(
            (0.35..=0.65).contains(&ratio),
            "random branches should hover near 0.5 mispredict, got {ratio}"
        );
    }

    #[test]
    fn alternating_pattern_is_learned_by_history() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        let mut taken = false;
        for _ in 0..256 {
            taken = !taken;
            bp.predict_and_train(0x1000, taken, 0x2000);
        }
        let warm = bp.mispredicts();
        for _ in 0..1000 {
            taken = !taken;
            bp.predict_and_train(0x1000, taken, 0x2000);
        }
        assert_eq!(bp.mispredicts(), warm, "gshare learns T/NT alternation");
    }

    #[test]
    fn stable_per_site_directions_survive_history_noise() {
        // Sites with fixed directions, visited in a random order with a
        // random number of other branches in between: the bimodal
        // component must keep these near-perfect despite useless history.
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        let mut rng = SmallRng::seed_from_u64(21);
        let site_dir = |site: u64| !site.is_multiple_of(3);
        // Warm up.
        for _ in 0..20_000 {
            let site = rng.gen_range(0..32u64);
            bp.predict_and_train(0x1000 + site * 8, site_dir(site), 0x9000);
        }
        let warm = bp.mispredicts();
        let warm_branches = bp.branches();
        for _ in 0..20_000 {
            let site = rng.gen_range(0..32u64);
            bp.predict_and_train(0x1000 + site * 8, site_dir(site), 0x9000);
        }
        let late_ratio = (bp.mispredicts() - warm) as f64 / (bp.branches() - warm_branches) as f64;
        assert!(
            late_ratio < 0.10,
            "stable sites should stay predictable, got {late_ratio}"
        );
    }

    #[test]
    fn btb_misses_on_first_sight_and_on_conflict() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig {
            pht_bits: 4,
            history_bits: 4,
            btb_bits: 2, // 4 entries, conflict-prone
        });
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(o.btb_miss);
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(!o.btb_miss);
        // A branch aliasing the same set with a different tag evicts it.
        let alias = 0x1000 + (4 << 2) * 1024;
        bp.predict_and_train(alias, true, 0x3000);
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(o.btb_miss, "conflict eviction causes a BTB miss");
    }

    #[test]
    fn taken_branch_without_target_counts_as_mispredict() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        // Train direction to taken without installing this PC's target.
        for _ in 0..8 {
            bp.predict_and_train(0x5000, true, 0x6000);
        }
        // New target: direction right, target stale -> mispredict.
        let o = bp.predict_and_train(0x5000, true, 0x7000);
        assert!(o.mispredicted);
    }

    #[test]
    fn reset_clears_state() {
        let mut bp = BranchPredictor::new(BranchPredictorConfig::haswell());
        bp.predict_and_train(0x1000, true, 0x2000);
        bp.reset();
        assert_eq!(bp.branches(), 0);
        assert_eq!(bp.mispredict_ratio(), 0.0);
        let o = bp.predict_and_train(0x1000, true, 0x2000);
        assert!(o.btb_miss, "BTB was cleared");
    }
}
