use std::fmt;

use hbmd_fpga::{DatapathError, DatapathSpec, Stage, ToDatapath};
use hbmd_ml::{
    AdaBoostM1, Bagging, Classifier, CompiledModel, Dataset, DecisionStump, Ibk, JRip, LinearSvm,
    MlError, Mlp, Mlr, NaiveBayes, OneR, RandomForest, RepTree, RowsView, ZeroR, J48,
};

/// The classifier suite of the reference evaluation, as a closed enum.
///
/// [`ClassifierKind::binary_suite`] lists the schemes the binary
/// accuracy/hardware comparison exercises (Figures 13–16);
/// [`ClassifierKind::multiclass_suite`] lists the three the multiclass
/// study uses (Figures 17–19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// Majority-class baseline.
    ZeroR,
    /// One-attribute rule learner.
    OneR,
    /// Depth-one tree.
    DecisionStump,
    /// RIPPER rule learner.
    JRip,
    /// C4.5 decision tree.
    J48,
    /// Reduced-error-pruning tree.
    RepTree,
    /// Gaussian naive Bayes.
    NaiveBayes,
    /// Multinomial logistic regression (WEKA `Logistic`, the paper's
    /// MLR).
    Logistic,
    /// Multilayer perceptron.
    Mlp,
    /// Linear support vector machine (the paper's SVM).
    Svm,
    /// k-nearest neighbours (k = 3).
    Ibk,
    /// AdaBoost.M1 over decision stumps (10 rounds).
    AdaBoost,
    /// Bagged C4.5 trees (10 members).
    Bagging,
    /// Random forest (20 trees).
    RandomForest,
}

impl ClassifierKind {
    /// The schemes compared in the binary study (Figures 13–16).
    pub const fn binary_suite() -> [ClassifierKind; 8] {
        [
            ClassifierKind::OneR,
            ClassifierKind::JRip,
            ClassifierKind::J48,
            ClassifierKind::RepTree,
            ClassifierKind::NaiveBayes,
            ClassifierKind::Logistic,
            ClassifierKind::Svm,
            ClassifierKind::Mlp,
        ]
    }

    /// The ensemble schemes of the related-work comparison (Khasawneh
    /// et al. RAID'15; Sayadi et al. DAC'18).
    pub const fn ensemble_suite() -> [ClassifierKind; 3] {
        [
            ClassifierKind::AdaBoost,
            ClassifierKind::Bagging,
            ClassifierKind::RandomForest,
        ]
    }

    /// The schemes compared in the multiclass study (Figures 17–18).
    pub const fn multiclass_suite() -> [ClassifierKind; 3] {
        [
            ClassifierKind::Logistic,
            ClassifierKind::Mlp,
            ClassifierKind::Svm,
        ]
    }

    /// WEKA scheme name.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::ZeroR => "ZeroR",
            ClassifierKind::OneR => "OneR",
            ClassifierKind::DecisionStump => "DecisionStump",
            ClassifierKind::JRip => "JRip",
            ClassifierKind::J48 => "J48",
            ClassifierKind::RepTree => "REPTree",
            ClassifierKind::NaiveBayes => "NaiveBayes",
            ClassifierKind::Logistic => "Logistic",
            ClassifierKind::Mlp => "MultilayerPerceptron",
            ClassifierKind::Svm => "SVM",
            ClassifierKind::Ibk => "IBk",
            ClassifierKind::AdaBoost => "AdaBoostM1",
            ClassifierKind::Bagging => "Bagging",
            ClassifierKind::RandomForest => "RandomForest",
        }
    }

    /// Instantiate an untrained model of this kind.
    pub fn instantiate(self) -> TrainedModel {
        match self {
            ClassifierKind::ZeroR => TrainedModel::ZeroR(ZeroR::new()),
            ClassifierKind::OneR => TrainedModel::OneR(OneR::new()),
            ClassifierKind::DecisionStump => TrainedModel::DecisionStump(DecisionStump::new()),
            ClassifierKind::JRip => TrainedModel::JRip(JRip::new()),
            ClassifierKind::J48 => TrainedModel::J48(J48::new()),
            ClassifierKind::RepTree => TrainedModel::RepTree(RepTree::new()),
            ClassifierKind::NaiveBayes => TrainedModel::NaiveBayes(NaiveBayes::new()),
            ClassifierKind::Logistic => TrainedModel::Logistic(Mlr::new()),
            ClassifierKind::Mlp => TrainedModel::Mlp(Mlp::new()),
            ClassifierKind::Svm => TrainedModel::Svm(LinearSvm::new()),
            ClassifierKind::Ibk => TrainedModel::Ibk(Ibk::new(3)),
            ClassifierKind::AdaBoost => {
                TrainedModel::AdaBoost(AdaBoostM1::new(DecisionStump::new(), 10))
            }
            ClassifierKind::Bagging => TrainedModel::Bagging(Bagging::new(J48::new(), 10)),
            ClassifierKind::RandomForest => TrainedModel::RandomForest(RandomForest::new(20)),
        }
    }
}

impl fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete classifier of the suite — trainable, predictable, and
/// synthesisable to a hardware datapath.
///
/// The enum (rather than a trait object) preserves the concrete model
/// structure the FPGA cost model needs (tree shape, rule counts, layer
/// widths).
#[derive(Debug, Clone)]
pub enum TrainedModel {
    /// See [`ZeroR`].
    ZeroR(ZeroR),
    /// See [`OneR`].
    OneR(OneR),
    /// See [`DecisionStump`].
    DecisionStump(DecisionStump),
    /// See [`JRip`].
    JRip(JRip),
    /// See [`J48`].
    J48(J48),
    /// See [`RepTree`].
    RepTree(RepTree),
    /// See [`NaiveBayes`].
    NaiveBayes(NaiveBayes),
    /// See [`Mlr`].
    Logistic(Mlr),
    /// See [`Mlp`].
    Mlp(Mlp),
    /// See [`LinearSvm`].
    Svm(LinearSvm),
    /// See [`Ibk`].
    Ibk(Ibk),
    /// See [`AdaBoostM1`].
    AdaBoost(AdaBoostM1<DecisionStump>),
    /// See [`Bagging`].
    Bagging(Bagging<J48>),
    /// See [`RandomForest`].
    RandomForest(RandomForest),
}

macro_rules! delegate {
    ($self:expr, $model:ident => $body:expr) => {
        match $self {
            TrainedModel::ZeroR($model) => $body,
            TrainedModel::OneR($model) => $body,
            TrainedModel::DecisionStump($model) => $body,
            TrainedModel::JRip($model) => $body,
            TrainedModel::J48($model) => $body,
            TrainedModel::RepTree($model) => $body,
            TrainedModel::NaiveBayes($model) => $body,
            TrainedModel::Logistic($model) => $body,
            TrainedModel::Mlp($model) => $body,
            TrainedModel::Svm($model) => $body,
            TrainedModel::Ibk($model) => $body,
            TrainedModel::AdaBoost($model) => $body,
            TrainedModel::Bagging($model) => $body,
            TrainedModel::RandomForest($model) => $body,
        }
    };
}

impl TrainedModel {
    /// The kind this model belongs to.
    pub fn kind(&self) -> ClassifierKind {
        match self {
            TrainedModel::ZeroR(_) => ClassifierKind::ZeroR,
            TrainedModel::OneR(_) => ClassifierKind::OneR,
            TrainedModel::DecisionStump(_) => ClassifierKind::DecisionStump,
            TrainedModel::JRip(_) => ClassifierKind::JRip,
            TrainedModel::J48(_) => ClassifierKind::J48,
            TrainedModel::RepTree(_) => ClassifierKind::RepTree,
            TrainedModel::NaiveBayes(_) => ClassifierKind::NaiveBayes,
            TrainedModel::Logistic(_) => ClassifierKind::Logistic,
            TrainedModel::Mlp(_) => ClassifierKind::Mlp,
            TrainedModel::Svm(_) => ClassifierKind::Svm,
            TrainedModel::Ibk(_) => ClassifierKind::Ibk,
            TrainedModel::AdaBoost(_) => ClassifierKind::AdaBoost,
            TrainedModel::Bagging(_) => ClassifierKind::Bagging,
            TrainedModel::RandomForest(_) => ClassifierKind::RandomForest,
        }
    }

    /// Derive the model's inference datapath for hardware synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`DatapathError::Untrained`] for an unfitted model.
    pub fn datapath(&self) -> Result<DatapathSpec, DatapathError> {
        match self {
            // A majority-class predictor is a constant: one LUT.
            TrainedModel::ZeroR(_) => Ok(DatapathSpec {
                scheme: "ZeroR".to_owned(),
                inputs: 0,
                stages: vec![Stage {
                    lut_ops: 1,
                    latency_cycles: 1,
                    ..Stage::new("constant")
                }],
            }),
            TrainedModel::OneR(m) => m.datapath(),
            TrainedModel::DecisionStump(m) => m.datapath(),
            TrainedModel::JRip(m) => m.datapath(),
            TrainedModel::J48(m) => m.datapath(),
            TrainedModel::RepTree(m) => m.datapath(),
            TrainedModel::NaiveBayes(m) => m.datapath(),
            TrainedModel::Logistic(m) => m.datapath(),
            TrainedModel::Mlp(m) => m.datapath(),
            TrainedModel::Svm(m) => m.datapath(),
            TrainedModel::Ibk(m) => m.datapath(),
            TrainedModel::AdaBoost(m) => m.datapath(),
            TrainedModel::Bagging(m) => m.datapath(),
            TrainedModel::RandomForest(m) => m.datapath(),
        }
    }

    /// Lower the fitted model into its flat branchless evaluator
    /// ([`hbmd_ml::compiled`]).
    ///
    /// Returns `None` for the schemes with no flat form (NaiveBayes,
    /// Logistic, Mlp, Svm, Ibk) and for unfitted models; callers fall
    /// back to the interpreted predictor.
    pub fn compile(&self) -> Option<CompiledModel> {
        match self {
            TrainedModel::ZeroR(m) => m.compile().map(CompiledModel::Tree),
            TrainedModel::OneR(m) => m.compile().map(CompiledModel::Rules),
            TrainedModel::DecisionStump(m) => m.compile().map(CompiledModel::Tree),
            TrainedModel::JRip(m) => m.compile().map(CompiledModel::Rules),
            TrainedModel::J48(m) => m.compile().map(CompiledModel::Tree),
            TrainedModel::RepTree(m) => m.compile().map(CompiledModel::Tree),
            TrainedModel::AdaBoost(m) => m.compile().map(CompiledModel::Ensemble),
            TrainedModel::Bagging(m) => m.compile().map(CompiledModel::Forest),
            TrainedModel::RandomForest(m) => m.compile().map(CompiledModel::Forest),
            TrainedModel::NaiveBayes(_)
            | TrainedModel::Logistic(_)
            | TrainedModel::Mlp(_)
            | TrainedModel::Svm(_)
            | TrainedModel::Ibk(_) => None,
        }
    }
}

impl Classifier for TrainedModel {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        delegate!(self, m => m.fit(data))
    }

    fn predict(&self, features: &[f64]) -> usize {
        delegate!(self, m => m.predict(features))
    }

    fn name(&self) -> &str {
        self.kind().name()
    }

    fn predict_batch(&self, rows: RowsView<'_>) -> Vec<usize> {
        match self.compile() {
            Some(compiled) => compiled.predict_batch(rows),
            None => delegate!(self, m => m.predict_batch(rows)),
        }
    }
}

use hbmd_ml::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for TrainedModel {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            TrainedModel::ZeroR(m) => {
                w.put_u8(0);
                m.snap(w);
            }
            TrainedModel::OneR(m) => {
                w.put_u8(1);
                m.snap(w);
            }
            TrainedModel::DecisionStump(m) => {
                w.put_u8(2);
                m.snap(w);
            }
            TrainedModel::JRip(m) => {
                w.put_u8(3);
                m.snap(w);
            }
            TrainedModel::J48(m) => {
                w.put_u8(4);
                m.snap(w);
            }
            TrainedModel::RepTree(m) => {
                w.put_u8(5);
                m.snap(w);
            }
            TrainedModel::NaiveBayes(m) => {
                w.put_u8(6);
                m.snap(w);
            }
            TrainedModel::Logistic(m) => {
                w.put_u8(7);
                m.snap(w);
            }
            TrainedModel::Mlp(m) => {
                w.put_u8(8);
                m.snap(w);
            }
            TrainedModel::Svm(m) => {
                w.put_u8(9);
                m.snap(w);
            }
            TrainedModel::Ibk(m) => {
                w.put_u8(10);
                m.snap(w);
            }
            TrainedModel::AdaBoost(m) => {
                w.put_u8(11);
                m.snap(w);
            }
            TrainedModel::Bagging(m) => {
                w.put_u8(12);
                m.snap(w);
            }
            TrainedModel::RandomForest(m) => {
                w.put_u8(13);
                m.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(TrainedModel::ZeroR(Snap::unsnap(r)?)),
            1 => Ok(TrainedModel::OneR(Snap::unsnap(r)?)),
            2 => Ok(TrainedModel::DecisionStump(Snap::unsnap(r)?)),
            3 => Ok(TrainedModel::JRip(Snap::unsnap(r)?)),
            4 => Ok(TrainedModel::J48(Snap::unsnap(r)?)),
            5 => Ok(TrainedModel::RepTree(Snap::unsnap(r)?)),
            6 => Ok(TrainedModel::NaiveBayes(Snap::unsnap(r)?)),
            7 => Ok(TrainedModel::Logistic(Snap::unsnap(r)?)),
            8 => Ok(TrainedModel::Mlp(Snap::unsnap(r)?)),
            9 => Ok(TrainedModel::Svm(Snap::unsnap(r)?)),
            10 => Ok(TrainedModel::Ibk(Snap::unsnap(r)?)),
            11 => Ok(TrainedModel::AdaBoost(Snap::unsnap(r)?)),
            12 => Ok(TrainedModel::Bagging(Snap::unsnap(r)?)),
            13 => Ok(TrainedModel::RandomForest(Snap::unsnap(r)?)),
            other => Err(SnapError::Invalid(format!("TrainedModel tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        for i in 0..60 {
            d.push(vec![i as f64], usize::from(i >= 30)).expect("row");
        }
        d
    }

    #[test]
    fn every_kind_trains_and_predicts() {
        let data = toy();
        let all = [
            ClassifierKind::ZeroR,
            ClassifierKind::OneR,
            ClassifierKind::DecisionStump,
            ClassifierKind::JRip,
            ClassifierKind::J48,
            ClassifierKind::RepTree,
            ClassifierKind::NaiveBayes,
            ClassifierKind::Logistic,
            ClassifierKind::Mlp,
            ClassifierKind::Svm,
            ClassifierKind::Ibk,
            ClassifierKind::AdaBoost,
            ClassifierKind::Bagging,
            ClassifierKind::RandomForest,
        ];
        for kind in all {
            let mut model = kind.instantiate();
            model.fit(&data).unwrap_or_else(|e| panic!("{kind}: {e}"));
            let prediction = model.predict(&[55.0]);
            if kind != ClassifierKind::ZeroR {
                assert_eq!(prediction, 1, "{kind} misses an easy boundary");
            }
            assert_eq!(model.kind(), kind);
            assert_eq!(model.name(), kind.name());
        }
    }

    #[test]
    fn every_trained_kind_synthesises() {
        let data = toy();
        for kind in ClassifierKind::binary_suite() {
            let mut model = kind.instantiate();
            model.fit(&data).expect("fit");
            let spec = model.datapath().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(spec.latency_cycles() >= 1, "{kind}");
        }
        // ZeroR synthesises even untrained structure-wise.
        let spec = ClassifierKind::ZeroR
            .instantiate()
            .datapath()
            .expect("zero-r");
        assert_eq!(spec.scheme, "ZeroR");
    }

    #[test]
    fn suites_are_subsets_of_the_kinds() {
        assert_eq!(ClassifierKind::binary_suite().len(), 8);
        assert_eq!(ClassifierKind::multiclass_suite().len(), 3);
        assert!(ClassifierKind::multiclass_suite()
            .iter()
            .all(|k| ClassifierKind::binary_suite().contains(k)));
    }

    #[test]
    fn untrained_models_refuse_synthesis() {
        assert!(ClassifierKind::Mlp.instantiate().datapath().is_err());
        assert!(ClassifierKind::J48.instantiate().datapath().is_err());
    }
}
