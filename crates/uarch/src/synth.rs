use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::inst::{Instruction, InstructionSource, Op};

/// Statistical description of a program phase's dynamic behaviour.
///
/// The synthetic substitute for running a real binary: instruction mix,
/// memory locality, code footprint and branch behaviour are the knobs
/// through which workloads (benign or malicious) express themselves in
/// hardware performance counters. Upper layers compose sequences of
/// `StreamParams` into per-malware-class behaviour profiles.
///
/// All `*_frac` fields are probabilities; `load_frac + store_frac +
/// branch_frac` must not exceed 1 (the remainder is ALU work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// Fraction of instructions that load from memory.
    pub load_frac: f64,
    /// Fraction of instructions that store to memory.
    pub store_frac: f64,
    /// Fraction of instructions that branch.
    pub branch_frac: f64,
    /// Bytes of data the phase actively touches.
    pub data_working_set: u64,
    /// Probability a memory access continues a sequential walk rather
    /// than jumping to a random location in the working set.
    pub data_locality: f64,
    /// Bytes of code the phase executes from.
    pub code_footprint: u64,
    /// Probability execution stays within the current function body
    /// rather than transferring to a random function.
    pub code_locality: f64,
    /// Probability a branch follows its per-site stable direction; the
    /// rest are coin flips with [`branch_taken_bias`](Self::branch_taken_bias).
    pub branch_predictability: f64,
    /// Taken probability for unpredictable branches.
    pub branch_taken_bias: f64,
}

impl StreamParams {
    /// A balanced, benign-looking mix: moderate loads/stores, small
    /// working set, good locality, predictable branches.
    pub fn balanced() -> StreamParams {
        StreamParams {
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.15,
            data_working_set: 64 * 1024,
            data_locality: 0.90,
            code_footprint: 16 * 1024,
            code_locality: 0.95,
            branch_predictability: 0.95,
            branch_taken_bias: 0.6,
        }
    }

    /// Check all probabilities are in range and the mix sums to at most 1.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("load_frac", self.load_frac),
            ("store_frac", self.store_frac),
            ("branch_frac", self.branch_frac),
            ("data_locality", self.data_locality),
            ("code_locality", self.code_locality),
            ("branch_predictability", self.branch_predictability),
            ("branch_taken_bias", self.branch_taken_bias),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is outside [0, 1]"));
            }
        }
        let mix = self.load_frac + self.store_frac + self.branch_frac;
        if mix > 1.0 + 1e-9 {
            return Err(format!("instruction mix sums to {mix} > 1"));
        }
        if self.data_working_set == 0 {
            return Err("data_working_set must be non-zero".to_owned());
        }
        if self.code_footprint == 0 {
            return Err("code_footprint must be non-zero".to_owned());
        }
        Ok(())
    }
}

impl Default for StreamParams {
    fn default() -> StreamParams {
        StreamParams::balanced()
    }
}

/// Virtual-address layout used by every synthetic stream.
const CODE_BASE: u64 = 0x0040_0000;
const DATA_BASE: u64 = 0x1000_0000;
/// Average straight-line body length between branch targets, in
/// instructions (used to place function entry points).
const FUNCTION_GRAIN: u64 = 256;

/// Generates an endless dynamic instruction stream realising a
/// [`StreamParams`] behaviour description. Deterministic given the seed.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{InstructionSource, StreamParams, SyntheticStream};
///
/// let mut a = SyntheticStream::new(StreamParams::balanced(), 1);
/// let mut b = SyntheticStream::new(StreamParams::balanced(), 1);
/// for _ in 0..100 {
///     assert_eq!(a.next_instruction(), b.next_instruction());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    params: StreamParams,
    rng: SmallRng,
    pc: u64,
    function_base: u64,
    data_cursor: u64,
}

impl SyntheticStream {
    /// Build a stream realising `params`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `params` fails [`StreamParams::validate`] — behaviour
    /// profiles are authored constants, not runtime input.
    pub fn new(params: StreamParams, seed: u64) -> SyntheticStream {
        if let Err(msg) = params.validate() {
            panic!("invalid stream params: {msg}");
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let function_base = CODE_BASE + (rng.gen_range(0..params.code_footprint.max(4)) & !3);
        let data_cursor = DATA_BASE + (rng.gen_range(0..params.data_working_set.max(8)) & !7);
        SyntheticStream {
            params,
            rng,
            pc: function_base,
            function_base,
            data_cursor,
        }
    }

    /// The behaviour description this stream realises.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    /// Replace the behaviour description mid-stream (phase change),
    /// keeping code/data cursors so phases blend like a real program.
    ///
    /// # Panics
    ///
    /// Panics when `params` fails [`StreamParams::validate`].
    pub fn set_params(&mut self, params: StreamParams) {
        if let Err(msg) = params.validate() {
            panic!("invalid stream params: {msg}");
        }
        self.params = params;
        // Re-clamp cursors into the possibly-smaller new regions.
        self.function_base =
            CODE_BASE + (self.function_base - CODE_BASE) % self.params.code_footprint.max(4);
        self.pc = self.function_base;
        self.data_cursor =
            DATA_BASE + (self.data_cursor - DATA_BASE) % self.params.data_working_set.max(8);
    }

    fn next_data_addr(&mut self) -> u64 {
        let ws = self.params.data_working_set.max(8);
        if self.rng.gen_bool(self.params.data_locality) {
            // Sequential walk, wrapping within the working set.
            self.data_cursor = DATA_BASE + ((self.data_cursor - DATA_BASE) + 8) % ws;
        } else {
            self.data_cursor = DATA_BASE + (self.rng.gen_range(0..ws) & !7);
        }
        self.data_cursor
    }

    fn next_branch(&mut self) -> Op {
        let p = &self.params;
        let stable_taken = !(self.pc >> 2).is_multiple_of(8); // per-site stable pattern
        let taken = if self.rng.gen_bool(p.branch_predictability) {
            stable_taken
        } else {
            self.rng.gen_bool(p.branch_taken_bias)
        };
        let target = if self.rng.gen_bool(p.code_locality) {
            // Local transfer: loop back toward the function entry.
            self.function_base
        } else {
            // Call a random function in the code region.
            let footprint = p.code_footprint.max(4);
            let functions = (footprint / (FUNCTION_GRAIN * 4)).max(1);
            let which = self.rng.gen_range(0..functions);
            CODE_BASE + which * FUNCTION_GRAIN * 4
        };
        Op::Branch { target, taken }
    }
}

impl InstructionSource for SyntheticStream {
    fn next_instruction(&mut self) -> Instruction {
        let pc = self.pc;
        let p = self.params;
        let roll: f64 = self.rng.gen();
        let op = if roll < p.load_frac {
            Op::Load(self.next_data_addr())
        } else if roll < p.load_frac + p.store_frac {
            Op::Store(self.next_data_addr())
        } else if roll < p.load_frac + p.store_frac + p.branch_frac {
            self.next_branch()
        } else {
            Op::Alu
        };

        // Advance the PC: fall through, or redirect on a taken branch.
        match op {
            Op::Branch {
                target,
                taken: true,
            } => {
                self.pc = target;
                self.function_base = target;
            }
            _ => {
                self.pc = pc + 4;
                // Keep straight-line runs inside the code footprint.
                if self.pc >= CODE_BASE + self.params.code_footprint.max(4) {
                    self.pc = self.function_base;
                }
            }
        }

        Instruction { pc, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::core::Cpu;
    use hbmd_events::HpcEvent;

    #[test]
    fn validate_rejects_bad_mix() {
        let mut p = StreamParams::balanced();
        p.load_frac = 0.7;
        p.store_frac = 0.5;
        assert!(p.validate().is_err());
        p = StreamParams::balanced();
        p.data_locality = 1.5;
        assert!(p.validate().is_err());
        p = StreamParams::balanced();
        p.data_working_set = 0;
        assert!(p.validate().is_err());
        assert!(StreamParams::balanced().validate().is_ok());
    }

    #[test]
    fn mix_fractions_are_respected() {
        let params = StreamParams {
            load_frac: 0.4,
            store_frac: 0.2,
            branch_frac: 0.1,
            ..StreamParams::balanced()
        };
        let mut s = SyntheticStream::new(params, 3);
        let n = 40_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match s.next_instruction().op {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::Branch { .. } => branches += 1,
                Op::Alu => {}
            }
        }
        let frac = |c: i32| c as f64 / n as f64;
        assert!((frac(loads) - 0.4).abs() < 0.02, "loads {}", frac(loads));
        assert!((frac(stores) - 0.2).abs() < 0.02, "stores {}", frac(stores));
        assert!(
            (frac(branches) - 0.1).abs() < 0.02,
            "branches {}",
            frac(branches)
        );
    }

    #[test]
    fn addresses_stay_in_their_regions() {
        let params = StreamParams {
            data_working_set: 4096,
            code_footprint: 4096,
            ..StreamParams::balanced()
        };
        let mut s = SyntheticStream::new(params, 9);
        for _ in 0..20_000 {
            let inst = s.next_instruction();
            assert!((CODE_BASE..CODE_BASE + 4096 + 4).contains(&inst.pc));
            match inst.op {
                Op::Load(a) | Op::Store(a) => {
                    assert!((DATA_BASE..DATA_BASE + 4096).contains(&a));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn determinism_given_seed() {
        let mut a = SyntheticStream::new(StreamParams::balanced(), 77);
        let mut b = SyntheticStream::new(StreamParams::balanced(), 77);
        for _ in 0..1_000 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
        let mut c = SyntheticStream::new(StreamParams::balanced(), 78);
        let differs = (0..1_000).any(|_| a.next_instruction() != c.next_instruction());
        assert!(differs, "different seeds diverge");
    }

    #[test]
    fn bigger_working_set_means_more_dcache_misses() {
        let run = |ws: u64| {
            let params = StreamParams {
                data_working_set: ws,
                data_locality: 0.2,
                ..StreamParams::balanced()
            };
            let mut cpu = Cpu::new(CpuConfig::tiny());
            let mut s = SyntheticStream::new(params, 11);
            cpu.run(&mut s, 50_000);
            cpu.counters()[HpcEvent::L1DcacheLoadMisses]
        };
        let small = run(512);
        let large = run(1024 * 1024);
        assert!(
            large > small * 5,
            "large working set {large} vs small {small}"
        );
    }

    #[test]
    fn unpredictable_branches_mean_more_branch_misses() {
        let run = |pred: f64| {
            let params = StreamParams {
                branch_frac: 0.3,
                branch_predictability: pred,
                branch_taken_bias: 0.5,
                ..StreamParams::balanced()
            };
            let mut cpu = Cpu::new(CpuConfig::tiny());
            let mut s = SyntheticStream::new(params, 13);
            cpu.run(&mut s, 50_000);
            cpu.counters()[HpcEvent::BranchMisses]
        };
        let predictable = run(0.99);
        let chaotic = run(0.1);
        assert!(
            chaotic > predictable * 2,
            "chaotic {chaotic} vs predictable {predictable}"
        );
    }

    #[test]
    fn bigger_code_footprint_means_more_icache_misses() {
        let run = |code: u64, locality: f64| {
            let params = StreamParams {
                code_footprint: code,
                code_locality: locality,
                branch_frac: 0.25,
                ..StreamParams::balanced()
            };
            let mut cpu = Cpu::new(CpuConfig::tiny());
            let mut s = SyntheticStream::new(params, 17);
            cpu.run(&mut s, 50_000);
            cpu.counters()[HpcEvent::L1IcacheLoadMisses]
        };
        let tight = run(1024, 0.98);
        let sprawling = run(2 * 1024 * 1024, 0.3);
        assert!(
            sprawling > tight * 3,
            "sprawling {sprawling} vs tight {tight}"
        );
    }

    #[test]
    fn set_params_changes_behaviour_mid_stream() {
        let mut s = SyntheticStream::new(StreamParams::balanced(), 5);
        for _ in 0..100 {
            s.next_instruction();
        }
        let heavy_store = StreamParams {
            load_frac: 0.0,
            store_frac: 0.9,
            branch_frac: 0.0,
            ..StreamParams::balanced()
        };
        s.set_params(heavy_store);
        let stores = (0..1_000)
            .filter(|_| matches!(s.next_instruction().op, Op::Store(_)))
            .count();
        assert!(stores > 800, "store-heavy phase produced {stores} stores");
    }
}
