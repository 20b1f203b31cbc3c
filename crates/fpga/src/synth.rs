use crate::datapath::DatapathSpec;
use crate::report::{HwReport, ResourceEstimate};

/// Synthesis parameters: datapath width, clock target, and the
/// resource-library cost constants.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Fixed-point word width in bits (16 in the reference flow).
    pub word_bits: u64,
    /// Target clock in MHz.
    pub clock_mhz: f64,
    /// LUTs per adder bit.
    pub luts_per_adder_bit: f64,
    /// LUTs per comparator bit.
    pub luts_per_comparator_bit: f64,
    /// LUTs per miscellaneous LUT-op.
    pub luts_per_lut_op: f64,
    /// Dynamic power per active DSP at 100 MHz, in milliwatts.
    pub dsp_mw: f64,
    /// Dynamic power per kLUT at 100 MHz, in milliwatts.
    pub klut_mw: f64,
    /// Dynamic power per BRAM at 100 MHz, in milliwatts.
    pub bram_mw: f64,
    /// Static power floor in milliwatts.
    pub static_mw: f64,
    /// Resource-sharing (folding) factor: each stage's arithmetic
    /// operators are time-multiplexed over this many cycles, dividing
    /// multiplier/adder counts and multiplying stage latency. 1 = fully
    /// parallel (the default flow).
    pub sharing_factor: u64,
}

impl SynthConfig {
    /// 16-bit datapath at 100 MHz on a 7-series-like library — the
    /// reference flow's operating point.
    pub fn xilinx_100mhz() -> SynthConfig {
        SynthConfig {
            word_bits: 16,
            clock_mhz: 100.0,
            luts_per_adder_bit: 1.0,
            luts_per_comparator_bit: 0.5,
            luts_per_lut_op: 4.0,
            dsp_mw: 1.2,
            klut_mw: 2.5,
            bram_mw: 1.5,
            static_mw: 20.0,
            sharing_factor: 1,
        }
    }

    /// The same library with arithmetic folded by `factor` — the
    /// HLS directive that trades latency for area on constrained parts.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is zero.
    pub fn folded(factor: u64) -> SynthConfig {
        assert!(factor > 0, "sharing factor must be non-zero");
        SynthConfig {
            sharing_factor: factor,
            ..SynthConfig::xilinx_100mhz()
        }
    }

    /// Check the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first non-positive field.
    pub fn validate(&self) -> Result<(), String> {
        if self.word_bits == 0 {
            return Err("word_bits must be non-zero".to_owned());
        }
        if self.clock_mhz <= 0.0 || self.clock_mhz.is_nan() {
            return Err("clock_mhz must be positive".to_owned());
        }
        if self.sharing_factor == 0 {
            return Err("sharing_factor must be non-zero".to_owned());
        }
        Ok(())
    }
}

impl Default for SynthConfig {
    fn default() -> SynthConfig {
        SynthConfig::xilinx_100mhz()
    }
}

/// Map a datapath onto the resource library — the "C synthesis" step of
/// the HLS flow.
///
/// Multipliers map to DSP48 slices, adders and comparators to LUT
/// fabric, activation/likelihood tables to 18 Kib BRAMs; every pipeline
/// stage boundary adds a word-wide register bank, plus the input
/// feature registers. Latency is the datapath's cycle count at the
/// configured clock.
///
/// # Panics
///
/// Panics when `config` fails [`SynthConfig::validate`].
pub fn synthesize(spec: &DatapathSpec, config: &SynthConfig) -> HwReport {
    if let Err(msg) = config.validate() {
        panic!("invalid synth config: {msg}");
    }
    let _span = hbmd_obs::span!("fpga.synthesize", stages = spec.stages.len());
    hbmd_obs::incr("fpga.designs_synthesized");
    let w = config.word_bits;
    let fold = config.sharing_factor;
    let mut resources = ResourceEstimate::default();
    let mut latency_cycles = 0u64;

    for stage in &spec.stages {
        // Folding time-multiplexes arithmetic operators, shrinking the
        // instance counts and stretching the stage's schedule.
        let multipliers = stage
            .multipliers
            .div_ceil(fold)
            .min(stage.multipliers)
            .max(u64::from(stage.multipliers > 0));
        let adders = stage
            .adders
            .div_ceil(fold)
            .min(stage.adders)
            .max(u64::from(stage.adders > 0));
        resources.dsps += multipliers;
        resources.luts += (adders as f64 * w as f64 * config.luts_per_adder_bit) as u64;
        resources.luts +=
            (stage.comparators as f64 * w as f64 * config.luts_per_comparator_bit) as u64;
        resources.luts += (stage.lut_ops as f64 * config.luts_per_lut_op) as u64;
        resources.brams += stage.rom_bits.div_ceil(18 * 1024);
        // Pipeline registers: one word-wide bank per produced operand
        // group (approximated by the wider of the stage's operator
        // counts).
        let operands = multipliers.max(adders).max(stage.comparators).max(1);
        resources.ffs += operands * w;

        // Folding only stretches stages with foldable arithmetic.
        let stage_fold = if stage.multipliers > 0 || stage.adders > 0 {
            fold
        } else {
            1
        };
        latency_cycles += stage.latency_cycles.max(1) * stage.iterations.max(1) * stage_fold;
    }
    // Input feature registers.
    resources.ffs += spec.inputs as u64 * w;

    let clock_ns = 1000.0 / config.clock_mhz;

    // Power: dynamic scales with clock and resource activity, plus the
    // static floor.
    let clock_scale = config.clock_mhz / 100.0;
    let dynamic = clock_scale
        * (resources.dsps as f64 * config.dsp_mw
            + resources.luts as f64 / 1000.0 * config.klut_mw
            + resources.brams as f64 * config.bram_mw);
    let power_mw = config.static_mw + dynamic;

    HwReport {
        scheme: spec.scheme.clone(),
        resources,
        latency_cycles,
        clock_ns,
        power_mw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::ToDatapath;
    use hbmd_ml::{Classifier, Dataset};

    fn data() -> Dataset {
        let mut d = Dataset::new(
            (0..8).map(|i| format!("f{i}")).collect(),
            vec!["a".into(), "b".into()],
        )
        .expect("schema");
        for i in 0..120 {
            let mut row: Vec<f64> = (0..8).map(|j| ((i * (j + 3)) % 23) as f64).collect();
            row[0] = i as f64;
            d.push(row, usize::from(i >= 60)).expect("row");
        }
        d
    }

    fn report_for<C: Classifier + ToDatapath>(mut model: C) -> HwReport {
        let d = data();
        model.fit(&d).expect("fit");
        synthesize(
            &model.datapath().expect("datapath"),
            &SynthConfig::default(),
        )
    }

    #[test]
    fn paper_area_ordering_holds() {
        // Figure 14's shape: rule learners tiny, trees small, linear
        // moderate, naive Bayes DSP-heavy, MLP biggest.
        let one_r = report_for(hbmd_ml::OneR::new());
        let jrip = report_for(hbmd_ml::JRip::new());
        let j48 = report_for(hbmd_ml::J48::new());
        let mlr = report_for(hbmd_ml::Mlr::new());
        let nb = report_for(hbmd_ml::NaiveBayes::new());
        let mlp = report_for(hbmd_ml::Mlp::new());

        assert!(one_r.area_units() < j48.area_units() * 2.0);
        assert!(jrip.area_units() < mlr.area_units());
        assert!(j48.area_units() < mlp.area_units());
        assert!(mlr.area_units() < mlp.area_units());
        assert!(nb.area_units() > mlr.area_units());
    }

    #[test]
    fn paper_latency_ordering_holds() {
        // Figure 15's shape: rules/trees fast, MLP slower, kNN terrible.
        let one_r = report_for(hbmd_ml::OneR::new());
        let mlp = report_for(hbmd_ml::Mlp::new());
        let knn = report_for(hbmd_ml::Ibk::new(3));
        assert!(one_r.latency_cycles < mlp.latency_cycles);
        assert!(mlp.latency_cycles < knn.latency_cycles / 4);
    }

    #[test]
    fn accuracy_per_area_crowns_the_rule_learners() {
        // Figure 16's headline: even granting the MLP higher accuracy,
        // OneR/JRip dominate per unit area.
        let one_r = report_for(hbmd_ml::OneR::new());
        let mlp = report_for(hbmd_ml::Mlp::new());
        assert!(one_r.accuracy_per_area(0.85) > mlp.accuracy_per_area(0.95));
    }

    #[test]
    fn fewer_features_means_less_linear_area() {
        let d = data();
        let full = {
            let mut m = hbmd_ml::Mlr::new();
            m.fit(&d).expect("fit");
            synthesize(&m.datapath().expect("dp"), &SynthConfig::default())
        };
        let reduced = {
            let small = d.select_features(&[0, 1, 2, 3]).expect("select");
            let mut m = hbmd_ml::Mlr::new();
            m.fit(&small).expect("fit");
            synthesize(&m.datapath().expect("dp"), &SynthConfig::default())
        };
        assert!(reduced.area_units() < full.area_units());
        assert!(reduced.latency_cycles <= full.latency_cycles);
    }

    #[test]
    fn clock_scales_latency_and_power() {
        let d = data();
        let mut m = hbmd_ml::Mlr::new();
        m.fit(&d).expect("fit");
        let spec = m.datapath().expect("dp");
        let slow = synthesize(
            &spec,
            &SynthConfig {
                clock_mhz: 50.0,
                ..SynthConfig::default()
            },
        );
        let fast = synthesize(
            &spec,
            &SynthConfig {
                clock_mhz: 200.0,
                ..SynthConfig::default()
            },
        );
        assert_eq!(slow.latency_cycles, fast.latency_cycles);
        assert!(slow.latency_ns() > fast.latency_ns());
        assert!(slow.power_mw < fast.power_mw);
    }

    #[test]
    fn folding_trades_area_for_latency() {
        let d = data();
        let mut mlp = hbmd_ml::Mlp::new();
        mlp.fit(&d).expect("fit");
        let spec = mlp.datapath().expect("dp");
        let parallel = synthesize(&spec, &SynthConfig::default());
        let folded = synthesize(&spec, &SynthConfig::folded(4));
        assert!(folded.resources.dsps < parallel.resources.dsps);
        assert!(folded.latency_cycles > parallel.latency_cycles);
        // Comparator-only designs are untouched by folding.
        let mut one_r = hbmd_ml::OneR::new();
        one_r.fit(&d).expect("fit");
        let spec = one_r.datapath().expect("dp");
        let a = synthesize(&spec, &SynthConfig::default());
        let b = synthesize(&spec, &SynthConfig::folded(4));
        assert_eq!(a.latency_cycles, b.latency_cycles);
    }

    #[test]
    fn ensembles_synthesise() {
        let d = data();
        let mut booster = hbmd_ml::AdaBoostM1::new(hbmd_ml::DecisionStump::new(), 10);
        booster.fit(&d).expect("fit");
        let boost_report = synthesize(&booster.datapath().expect("dp"), &SynthConfig::default());
        assert!(boost_report.area_units() > 0.0);
        assert_eq!(boost_report.resources.dsps, 0, "shift-add voting only");

        let mut forest = hbmd_ml::RandomForest::new(10);
        forest.fit(&d).expect("fit");
        let forest_report = synthesize(&forest.datapath().expect("dp"), &SynthConfig::default());
        assert!(forest_report.area_units() > boost_report.area_units() / 100.0);

        let mut bagger = hbmd_ml::Bagging::new(hbmd_ml::J48::new(), 5);
        bagger.fit(&d).expect("fit");
        let bag_report = synthesize(&bagger.datapath().expect("dp"), &SynthConfig::default());
        assert!(bag_report.latency_cycles >= 3);

        // Untrained ensembles refuse synthesis.
        assert!(hbmd_ml::RandomForest::new(3).datapath().is_err());
        assert!(hbmd_ml::AdaBoostM1::new(hbmd_ml::DecisionStump::new(), 3)
            .datapath()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid synth config")]
    fn bad_config_panics() {
        let d = data();
        let mut m = hbmd_ml::OneR::new();
        m.fit(&d).expect("fit");
        let _ = synthesize(
            &m.datapath().expect("dp"),
            &SynthConfig {
                clock_mhz: 0.0,
                ..SynthConfig::default()
            },
        );
    }
}
