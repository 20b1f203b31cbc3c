use std::fmt;

use hbmd_ml::{Ibk, JRip, LinearSvm, Mlp, Mlr, NaiveBayes, OneR, RepTree, J48};

/// Error produced when a datapath cannot be derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatapathError {
    /// The classifier has not been trained; its structure is unknown.
    Untrained {
        /// Scheme name of the offending classifier.
        scheme: String,
    },
}

impl fmt::Display for DatapathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatapathError::Untrained { scheme } => {
                write!(f, "cannot synthesise an untrained {scheme} model")
            }
        }
    }
}

impl std::error::Error for DatapathError {}

/// One pipeline stage of an inference datapath.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Stage {
    /// Stage role ("dot-product", "activation", "compare", …).
    pub name: String,
    /// Fixed-point multipliers instantiated in parallel.
    pub multipliers: u64,
    /// Adders (including adder-tree nodes).
    pub adders: u64,
    /// Magnitude comparators.
    pub comparators: u64,
    /// Miscellaneous LUT-mapped operations (muxes, encoders, glue).
    pub lut_ops: u64,
    /// Activation/likelihood ROM bits read in this stage.
    pub rom_bits: u64,
    /// Cycles this stage occupies in the pipeline.
    pub latency_cycles: u64,
    /// Sequential iterations of this stage per classification
    /// (1 for fully-parallel stages; large for scan loops like kNN).
    pub iterations: u64,
}

impl Stage {
    /// A stage with the given name, one iteration, everything else zero.
    pub fn new(name: &str) -> Stage {
        Stage {
            name: name.to_owned(),
            iterations: 1,
            ..Stage::default()
        }
    }
}

/// An abstract inference datapath: the pipeline a trained model
/// synthesises to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatapathSpec {
    /// Scheme name of the source model.
    pub scheme: String,
    /// Input feature count (drives I/O register cost).
    pub inputs: usize,
    /// Pipeline stages in order.
    pub stages: Vec<Stage>,
}

impl DatapathSpec {
    /// Total multipliers across stages.
    pub fn total_multipliers(&self) -> u64 {
        self.stages.iter().map(|s| s.multipliers).sum()
    }

    /// Total comparators across stages.
    pub fn total_comparators(&self) -> u64 {
        self.stages.iter().map(|s| s.comparators).sum()
    }

    /// Latency in cycles: Σ stage latency × iterations.
    pub fn latency_cycles(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.latency_cycles.max(1) * s.iterations.max(1))
            .sum()
    }
}

/// Derives the inference datapath of a *trained* model. Implemented for
/// every classifier in [`hbmd_ml`].
pub trait ToDatapath {
    /// Build the datapath summary.
    ///
    /// # Errors
    ///
    /// Returns [`DatapathError::Untrained`] when the model has not been
    /// fitted (its structure — tree shape, rule count, layer widths —
    /// does not exist yet).
    fn datapath(&self) -> Result<DatapathSpec, DatapathError>;
}

/// Adder-tree depth for summing `n` terms.
fn adder_tree_depth(n: u64) -> u64 {
    (64 - n.max(1).leading_zeros() as u64)
        .saturating_sub(1)
        .max(1)
}

/// Adder-tree node count for summing `n` terms.
fn adder_tree_nodes(n: u64) -> u64 {
    n.saturating_sub(1).max(1)
}

fn untrained(scheme: &str) -> DatapathError {
    DatapathError::Untrained {
        scheme: scheme.to_owned(),
    }
}

/// Dot-product + argmax datapath shared by the linear models
/// (logistic/MLR and SVM hyperplanes).
fn linear_datapath(scheme: &str, features: usize, classes: usize) -> DatapathSpec {
    let f = features as u64;
    let c = classes as u64;
    let dot = Stage {
        multipliers: c * f,
        adders: c * adder_tree_nodes(f + 1),
        latency_cycles: 1 + adder_tree_depth(f + 1),
        ..Stage::new("dot-product")
    };
    // Argmax over class scores: softmax/margin ordering is monotonic in
    // the linear score, so no exponential hardware is needed.
    let argmax = Stage {
        comparators: c.saturating_sub(1),
        lut_ops: c,
        latency_cycles: adder_tree_depth(c),
        ..Stage::new("argmax")
    };
    DatapathSpec {
        scheme: scheme.to_owned(),
        inputs: features,
        stages: vec![dot, argmax],
    }
}

impl ToDatapath for hbmd_ml::DecisionStump {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let (_, _) = self.rule().ok_or_else(|| untrained("DecisionStump"))?;
        let compare = Stage {
            comparators: 1,
            lut_ops: 1,
            latency_cycles: 1,
            ..Stage::new("compare")
        };
        Ok(DatapathSpec {
            scheme: "DecisionStump".to_owned(),
            inputs: 1,
            stages: vec![compare],
        })
    }
}

impl ToDatapath for OneR {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let buckets = self.num_buckets().ok_or_else(|| untrained("OneR"))? as u64;
        let compare = Stage {
            comparators: buckets.saturating_sub(1).max(1),
            latency_cycles: 1,
            ..Stage::new("bucket-compare")
        };
        let encode = Stage {
            lut_ops: buckets,
            latency_cycles: 1,
            ..Stage::new("priority-encode")
        };
        Ok(DatapathSpec {
            scheme: "OneR".to_owned(),
            inputs: 1,
            stages: vec![compare, encode],
        })
    }
}

impl ToDatapath for JRip {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        // A fitted JRip can legitimately hold zero rules (default-class
        // only), which is indistinguishable from an unfitted model here;
        // both synthesise to the same minimal first-match datapath.
        let conditions = self.num_conditions() as u64;
        let rules = self.num_rules() as u64;
        let compare = Stage {
            comparators: conditions.max(1),
            latency_cycles: 1,
            ..Stage::new("condition-compare")
        };
        let reduce = Stage {
            lut_ops: conditions.max(1) + rules,
            latency_cycles: 1,
            ..Stage::new("rule-and")
        };
        let select = Stage {
            lut_ops: rules + 1,
            latency_cycles: 1,
            ..Stage::new("first-match")
        };
        Ok(DatapathSpec {
            scheme: "JRip".to_owned(),
            inputs: conditions.max(1) as usize,
            stages: vec![compare, reduce, select],
        })
    }
}

impl ToDatapath for J48 {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        if self.num_leaves() == 0 {
            return Err(untrained("J48"));
        }
        Ok(tree_datapath(
            "J48",
            self.num_internal_nodes() as u64,
            self.num_leaves() as u64,
            self.depth() as u64,
        ))
    }
}

impl ToDatapath for RepTree {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        if self.num_leaves() == 0 {
            return Err(untrained("REPTree"));
        }
        Ok(tree_datapath(
            "REPTree",
            self.num_internal_nodes() as u64,
            self.num_leaves() as u64,
            self.depth() as u64,
        ))
    }
}

fn tree_datapath(scheme: &str, inner: u64, leaves: u64, depth: u64) -> DatapathSpec {
    // All node comparators evaluate in parallel; the path is resolved
    // by a mux cascade one level per depth.
    let compare = Stage {
        comparators: inner.max(1),
        latency_cycles: 1,
        ..Stage::new("node-compare")
    };
    let resolve = Stage {
        lut_ops: leaves + inner,
        latency_cycles: depth.max(1),
        ..Stage::new("path-resolve")
    };
    DatapathSpec {
        scheme: scheme.to_owned(),
        inputs: inner.max(1) as usize,
        stages: vec![compare, resolve],
    }
}

impl ToDatapath for NaiveBayes {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let (features, classes) = self.dims().ok_or_else(|| untrained("NaiveBayes"))?;
        let f = features as u64;
        let c = classes as u64;
        // Per class and feature: (x - mean), square, scale by 1/var —
        // two multipliers and one adder each — then a log-likelihood
        // sum tree and the class argmax.
        let likelihood = Stage {
            multipliers: 2 * c * f,
            adders: c * f,
            latency_cycles: 3,
            ..Stage::new("gaussian-likelihood")
        };
        let sum = Stage {
            adders: c * adder_tree_nodes(f + 1),
            latency_cycles: adder_tree_depth(f + 1),
            ..Stage::new("log-sum")
        };
        let argmax = Stage {
            comparators: c.saturating_sub(1),
            lut_ops: c,
            latency_cycles: adder_tree_depth(c),
            ..Stage::new("argmax")
        };
        Ok(DatapathSpec {
            scheme: "NaiveBayes".to_owned(),
            inputs: features,
            stages: vec![likelihood, sum, argmax],
        })
    }
}

impl ToDatapath for Mlr {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let (features, classes) = self.dims().ok_or_else(|| untrained("Logistic"))?;
        Ok(linear_datapath("Logistic", features, classes))
    }
}

impl ToDatapath for LinearSvm {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let (features, classes) = self.dims().ok_or_else(|| untrained("SVM"))?;
        Ok(linear_datapath("SVM", features, classes))
    }
}

impl ToDatapath for Mlp {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let [inputs, hidden, outputs] = self
            .layer_sizes()
            .ok_or_else(|| untrained("MultilayerPerceptron"))?;
        let i = inputs as u64;
        let h = hidden as u64;
        let o = outputs as u64;
        let layer1 = Stage {
            multipliers: h * i,
            adders: h * adder_tree_nodes(i + 1),
            latency_cycles: 1 + adder_tree_depth(i + 1),
            ..Stage::new("hidden-layer")
        };
        // One sigmoid lookup table (18 Kib BRAM-sized) per hidden unit.
        let activation = Stage {
            rom_bits: h * 18 * 1024,
            lut_ops: h,
            latency_cycles: 1,
            ..Stage::new("sigmoid")
        };
        let layer2 = Stage {
            multipliers: o * h,
            adders: o * adder_tree_nodes(h + 1),
            latency_cycles: 1 + adder_tree_depth(h + 1),
            ..Stage::new("output-layer")
        };
        let argmax = Stage {
            comparators: o.saturating_sub(1),
            lut_ops: o,
            latency_cycles: adder_tree_depth(o),
            ..Stage::new("argmax")
        };
        Ok(DatapathSpec {
            scheme: "MultilayerPerceptron".to_owned(),
            inputs,
            stages: vec![layer1, activation, layer2, argmax],
        })
    }
}

impl ToDatapath for hbmd_ml::AdaBoostM1<hbmd_ml::DecisionStump> {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let members = self.num_members() as u64;
        if members == 0 {
            return Err(untrained("AdaBoostM1"));
        }
        // One comparator per stump, then a constant-coefficient
        // weighted vote (shift-add network, no true multipliers).
        let compare = Stage {
            comparators: members,
            latency_cycles: 1,
            ..Stage::new("stump-compare")
        };
        let vote = Stage {
            adders: members,
            lut_ops: members,
            latency_cycles: adder_tree_depth(members) + 1,
            ..Stage::new("weighted-vote")
        };
        Ok(DatapathSpec {
            scheme: "AdaBoostM1".to_owned(),
            inputs: members as usize,
            stages: vec![compare, vote],
        })
    }
}

impl ToDatapath for hbmd_ml::Bagging<J48> {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        if self.num_members() == 0 {
            return Err(untrained("Bagging"));
        }
        let inner: u64 = self
            .members()
            .iter()
            .map(|t| t.num_internal_nodes() as u64)
            .sum();
        let leaves: u64 = self.members().iter().map(|t| t.num_leaves() as u64).sum();
        let depth = self
            .members()
            .iter()
            .map(|t| t.depth() as u64)
            .max()
            .unwrap_or(1);
        let members = self.num_members() as u64;
        let mut spec = tree_datapath("Bagging", inner, leaves, depth);
        spec.stages.push(Stage {
            adders: members,
            lut_ops: members,
            latency_cycles: adder_tree_depth(members) + 1,
            ..Stage::new("majority-vote")
        });
        Ok(spec)
    }
}

impl ToDatapath for hbmd_ml::RandomForest {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        if self.num_trees() == 0 {
            return Err(untrained("RandomForest"));
        }
        let inner = self.total_internal_nodes() as u64;
        let depth = self.max_tree_depth() as u64;
        let trees = self.num_trees() as u64;
        let mut spec = tree_datapath("RandomForest", inner, inner + trees, depth);
        spec.stages.push(Stage {
            adders: trees,
            lut_ops: trees,
            latency_cycles: adder_tree_depth(trees) + 1,
            ..Stage::new("majority-vote")
        });
        Ok(spec)
    }
}

impl ToDatapath for Ibk {
    fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        let n = self.num_train_instances();
        if n == 0 {
            return Err(untrained("IBk"));
        }
        // Instances live in BRAM; one distance unit scans them
        // sequentially (16 parallel MAC lanes), then a k-selection
        // network votes.
        let lanes = 16u64;
        let scan = Stage {
            multipliers: lanes,
            adders: lanes + adder_tree_nodes(lanes),
            rom_bits: (n as u64) * 16 * 16,
            latency_cycles: 1 + adder_tree_depth(lanes),
            iterations: (n as u64).max(1),
            ..Stage::new("distance-scan")
        };
        let select = Stage {
            comparators: self.k() as u64 * 2,
            lut_ops: self.k() as u64 * 4,
            latency_cycles: 2,
            ..Stage::new("k-select")
        };
        Ok(DatapathSpec {
            scheme: "IBk".to_owned(),
            inputs: 16,
            stages: vec![scan, select],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_ml::{Classifier, Dataset};

    fn trained_suite() -> (Dataset, Vec<(String, DatapathSpec)>) {
        let mut data = Dataset::new(vec!["x".into(), "y".into()], vec!["a".into(), "b".into()])
            .expect("schema");
        for i in 0..80 {
            data.push(vec![i as f64, (i % 7) as f64], usize::from(i >= 40))
                .expect("row");
        }
        let mut specs = Vec::new();
        macro_rules! add {
            ($model:expr) => {{
                let mut m = $model;
                m.fit(&data).expect("fit");
                let spec = m.datapath().expect("datapath");
                specs.push((spec.scheme.clone(), spec));
            }};
        }
        add!(hbmd_ml::DecisionStump::new());
        add!(OneR::new());
        add!(JRip::new());
        add!(J48::new());
        add!(RepTree::new());
        add!(NaiveBayes::new());
        add!(Mlr::new());
        add!(LinearSvm::new());
        add!(Mlp::new());
        add!(Ibk::new(3));
        (data, specs)
    }

    #[test]
    fn every_trained_model_yields_a_datapath() {
        let (_, specs) = trained_suite();
        assert_eq!(specs.len(), 10);
        for (scheme, spec) in &specs {
            assert!(!spec.stages.is_empty(), "{scheme} has stages");
            assert!(spec.latency_cycles() >= 1, "{scheme} has latency");
        }
    }

    #[test]
    fn untrained_models_are_rejected() {
        assert!(J48::new().datapath().is_err());
        assert!(Mlp::new().datapath().is_err());
        assert!(NaiveBayes::new().datapath().is_err());
        assert!(Ibk::new(3).datapath().is_err());
        assert!(OneR::new().datapath().is_err());
        assert!(hbmd_ml::DecisionStump::new().datapath().is_err());
    }

    #[test]
    fn rule_learners_use_no_multipliers() {
        let (_, specs) = trained_suite();
        for scheme in ["DecisionStump", "OneR", "JRip", "J48", "REPTree"] {
            let spec = &specs.iter().find(|(s, _)| s == scheme).expect("present").1;
            assert_eq!(spec.total_multipliers(), 0, "{scheme} is comparator-only");
        }
    }

    #[test]
    fn mlp_out_muscles_linear_models() {
        let (_, specs) = trained_suite();
        let get = |scheme: &str| &specs.iter().find(|(s, _)| s == scheme).expect("present").1;
        assert!(
            get("MultilayerPerceptron").total_multipliers() > get("Logistic").total_multipliers()
        );
    }

    #[test]
    fn knn_latency_scales_with_training_set() {
        let (data, _) = trained_suite();
        let mut small = Ibk::new(3);
        small.fit(&data).expect("fit");
        let small_latency = small.datapath().expect("dp").latency_cycles();

        let mut big_data = data.clone();
        for i in 0..800 {
            big_data.push(vec![i as f64, 0.0], i % 2).expect("row");
        }
        let mut big = Ibk::new(3);
        big.fit(&big_data).expect("fit");
        let big_latency = big.datapath().expect("dp").latency_cycles();
        assert!(big_latency > 5 * small_latency);
    }

    #[test]
    fn adder_tree_helpers() {
        assert_eq!(adder_tree_depth(1), 1);
        assert_eq!(adder_tree_depth(2), 1);
        assert_eq!(adder_tree_depth(8), 3);
        assert_eq!(adder_tree_depth(9), 3);
        assert_eq!(adder_tree_nodes(8), 7);
        assert_eq!(adder_tree_nodes(1), 1);
    }
}
