//! `paper_eval`: the paper's offline evaluation. Each timed pass is
//! Figure 13 (`accuracy_comparison_with`) then the transfer-attack
//! sweep (`accuracy_under_attack_with`, J48 + RandomForest × 4
//! budgets), both on a `CollectCache` warmed during set-up. The only
//! workload where classifier training and the evasion attack do the
//! work.

use std::time::{Duration, Instant};

use hbmd_core::experiments::adversarial::{
    accuracy_under_attack_with, AdversarialRow, DefenseKind, ENVELOPE_SIGMA,
};
use hbmd_core::experiments::binary::{accuracy_comparison_with, BinaryAccuracyRow};
use hbmd_core::experiments::ExperimentConfig;
use hbmd_core::{
    to_binary_dataset, ClassifierKind, CollectCache, Detector, DetectorBuilder, FeaturePlan,
    FeatureSet,
};
use hbmd_malware::{EvasionAttack, PlausibilityEnvelope};
use hbmd_ml::Classifier;
use hbmd_perf::HpcDataset;

use crate::serve::ratio;
use crate::trace::Tracer;
use crate::{check_digest, median, quantile, timed_setup, Args, Fnv, Outcome};

/// Catalog scale of the evaluation.
const SCALE: f64 = 0.02;
/// The attack sweep `repro adversarial` runs.
const SCHEMES: [ClassifierKind; 2] = [ClassifierKind::J48, ClassifierKind::RandomForest];
const BUDGETS: [f64; 4] = [0.05, 0.1, 0.2, 0.4];
/// Sweeps of the held-out split for the verdict rate and latency,
/// after every pass.
const VERDICT_SWEEPS: usize = 40;

struct Setup {
    config: ExperimentConfig,
    cache: CollectCache,
    train: HpcDataset,
    test: HpcDataset,
    /// The paper's deployed detector (J48, top-8) on the train split.
    detector: Detector,
    digest: u64,
}

/// One pass's outputs.
struct Pass {
    binary: Vec<BinaryAccuracyRow>,
    attack: Vec<AdversarialRow>,
}

impl Pass {
    fn run(s: &Setup) -> Result<Pass, String> {
        Ok(Pass {
            binary: accuracy_comparison_with(&s.cache, &s.config).map_err(|e| e.to_string())?,
            attack: accuracy_under_attack_with(&s.cache, &s.config, &SCHEMES, &BUDGETS)
                .map_err(|e| e.to_string())?,
        })
    }

    /// FNV-1a over the suite accuracies and attack outcomes.
    fn digest(&self) -> u64 {
        let mut d = Fnv::default();
        for row in &self.binary {
            d.bytes(row.scheme.name().as_bytes());
            for v in [row.accuracy_full, row.accuracy_top8, row.accuracy_top4] {
                d.u64(v.to_bits());
            }
        }
        for row in &self.attack {
            d.bytes(row.scheme.name().as_bytes());
            d.bytes(row.defense.name().as_bytes());
            d.u64(row.windows as u64);
            for v in [
                row.budget,
                row.detection_rate,
                row.evasion_rate,
                row.mean_l1,
                row.mean_iterations,
            ] {
                d.u64(v.to_bits());
            }
        }
        d.0
    }

    /// Cells of the pass (scheme rows plus attack cells) and the ones
    /// whose outputs are not finite.
    fn cells(&self) -> (u64, u64) {
        let binary_bad = self
            .binary
            .iter()
            .filter(|r| {
                ![r.accuracy_full, r.accuracy_top8, r.accuracy_top4]
                    .iter()
                    .all(|v| v.is_finite())
            })
            .count();
        let attack_bad = self
            .attack
            .iter()
            .filter(|r| !(r.detection_rate.is_finite() && r.baseline_detection.is_finite()))
            .count();
        (
            (self.binary.len() + self.attack.len()) as u64,
            (binary_bad + attack_bad) as u64,
        )
    }

    fn suite_accuracy(&self) -> f64 {
        self.binary.iter().map(|r| r.accuracy_top8).sum::<f64>() / self.binary.len() as f64
    }

    /// Score-oracle queries the attack sweep spent, from its rows.
    fn oracle_calls(&self) -> f64 {
        self.attack
            .iter()
            .filter(|r| r.defense == DefenseKind::Clean)
            .map(|r| (r.mean_iterations * r.baseline_detection * r.windows as f64).round())
            .filter(|v| v.is_finite())
            .sum()
    }
}

/// The paper's fixed catalog (seed 2018) and split (seed 42). The
/// held-out split has only ~50 benign windows, so a split or catalog
/// drawn from the run seed moves `false_alarm_rate` by far more than
/// any bound the benchmark may set; this workload has no traffic to
/// draw and ignores the run seed.
fn setup() -> Result<Setup, String> {
    let mut config = hbmd_bench::config_at_scale(SCALE);
    config.collector.threads = crate::THREADS;
    // The timed passes train and attack on one thread: the pass time
    // and the layer shares then add up.
    config.threads = 1;
    let cache = CollectCache::new();
    let collection = cache
        .collect(&config)
        .map_err(|e| format!("collect: {e}"))?;
    let (train, test) = collection.dataset.split(0.7, config.split_seed);
    let detector = DetectorBuilder::new()
        .classifier(ClassifierKind::J48)
        .feature_set(FeatureSet::Top(8))
        .train_binary(&train)
        .map_err(|e| format!("train: {e}"))?;
    let mut s = Setup {
        config,
        cache,
        train,
        test,
        detector,
        digest: 0,
    };
    // Warm-up pass: collects the unseen evaluation catalog too.
    s.digest = Pass::run(&s)?.digest();
    Ok(s)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = timed_setup(setup)?;
    let mut out = Outcome::default();
    check_digest(&mut out, "paper_eval", 0, s.digest);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut pass_s = Vec::new();
    let mut last = None;
    let mut tr = Tracer::new();
    let mut fit_ns = Vec::new();
    let rows = s.test.rows();
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut latencies = Vec::with_capacity(rows.len());
    while pass_s.len() < 3 || started.elapsed() < budget {
        let guard = hbmd_obs::install(hbmd_obs::Obs::new());
        let t0 = Instant::now();
        // Traced runs alternate traced and untraced passes: the pass
        // time difference is the tracing overhead.
        let traced = args.trace && pass_s.len() % 2 == 1;
        let root = traced.then(|| tr.begin("bench.eval_pass", None));
        let binary = if traced {
            tr.time("core.experiments.binary", root, 1, || {
                accuracy_comparison_with(&s.cache, &s.config)
            })
        } else {
            accuracy_comparison_with(&s.cache, &s.config)
        }
        .map_err(|e| e.to_string())?;
        let attack = if traced {
            tr.time("core.experiments.adversarial", root, 1, || {
                accuracy_under_attack_with(&s.cache, &s.config, &SCHEMES, &BUDGETS)
            })
        } else {
            accuracy_under_attack_with(&s.cache, &s.config, &SCHEMES, &BUDGETS)
        }
        .map_err(|e| e.to_string())?;
        if let Some(root) = root {
            tr.end(root);
        }
        pass_s.push(t0.elapsed().as_secs_f64());
        let snapshot = guard.registry().snapshot();
        drop(guard);
        if traced {
            fit_ns.push(
                snapshot
                    .histograms
                    .iter()
                    .filter(|h| h.name == "train_ns")
                    .map(|h| h.sum as f64)
                    .sum::<f64>(),
            );
        }
        let pass = Pass { binary, attack };
        if pass.digest() != s.digest {
            out.fail_check("an evaluation pass diverged from the warm-up pass");
        }
        last = Some(pass);

        // The deployed detector on the held-out split, after every
        // pass: closed-loop rate, then each call timed alone for the
        // verdict latency (median of the per-sweep medians).
        for _ in 0..VERDICT_SWEEPS {
            let t0 = Instant::now();
            for row in rows {
                std::hint::black_box(s.detector.classify(&row.features));
            }
            rates.push(rows.len() as f64 / t0.elapsed().as_secs_f64());
            latencies.clear();
            for row in rows {
                let t = Instant::now();
                std::hint::black_box(s.detector.classify(&row.features));
                latencies.push(t.elapsed().as_secs_f64() * 1e6);
            }
            p50s.push(quantile(&mut latencies, 0.5));
        }
    }
    let pass = last.expect("at least one pass");
    let (cells, bad) = pass.cells();
    out.attempted = cells * pass_s.len() as u64;
    out.failed = bad * pass_s.len() as u64;
    let eval_pass_s = median(&mut pass_s.clone());

    let (mut alarm_mal, mut mal, mut alarm_ben, mut ben) = (0, 0, 0, 0);
    for row in rows {
        let alarm = s.detector.classify(&row.features).is_malware();
        if row.class.is_malware() {
            mal += 1;
            alarm_mal += u64::from(alarm);
        } else {
            ben += 1;
            alarm_ben += u64::from(alarm);
        }
    }

    eprintln!(
        "perfbench: held-out split: {mal} malicious, {ben} benign windows; {} passes",
        pass_s.len()
    );
    if args.trace {
        probes(&s, &mut tr, &mut out)?;
        let pass_ns = tr.total_ns("bench.eval_pass") as f64;
        let adversarial_ns = tr.total_ns("core.experiments.adversarial") as f64;
        let traced_passes = tr.self_times().get("bench.eval_pass").map_or(1, |v| v.1) as f64;
        out.metric(
            "bench.eval.fit_share",
            fit_ns.iter().sum::<f64>() / pass_ns,
            "ratio",
        );
        out.metric(
            "bench.eval.adversarial_share",
            adversarial_ns / pass_ns,
            "ratio",
        );
        out.metric(
            "malware.adversarial.oracle_calls",
            pass.oracle_calls(),
            "count",
        );
        out.metric("bench.eval.pass_ms", pass_ns / traced_passes / 1e6, "ms");
        let untraced: Vec<f64> = pass_s.iter().copied().step_by(2).collect();
        out.metric(
            "bench.trace.overhead",
            1.0 - median(&mut untraced.clone()) * 1e9 / (pass_ns / traced_passes),
            "ratio",
        );
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-paper_eval-{}.jsonl",
            args.seed
        ));
        tr.write(&path).map_err(|e| format!("write spans: {e}"))?;
    } else {
        out.metric("setup_s", setup_s, "s");
        out.metric("windows_per_s", median(&mut rates), "1/s");
        out.metric("verdict_p50_us", median(&mut p50s), "us");
        out.metric("alarm_recall", ratio(alarm_mal, mal), "ratio");
        out.metric("false_alarm_rate", ratio(alarm_ben, ben), "ratio");
        out.metric("eval_pass_s", eval_pass_s, "s");
        out.metric("suite_accuracy", pass.suite_accuracy(), "ratio");
    }
    Ok(out)
}

/// Per-layer probes of the pass's work, through the same public calls
/// on the same split: feature-plan fit, each suite scheme's fit and
/// batch predict at top-8, the malice-score oracle and the attack.
fn probes(s: &Setup, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let plan = tr
        .time("core.features.plan_fit", None, 1, || {
            FeaturePlan::fit(&s.train)
        })
        .map_err(|e| e.to_string())?;
    let indices = plan
        .resolve(FeatureSet::Top(8))
        .map_err(|e| e.to_string())?;
    let train = to_binary_dataset(&s.train)
        .select_features(&indices)
        .map_err(|e| e.to_string())?;
    let test = to_binary_dataset(&s.test)
        .select_features(&indices)
        .map_err(|e| e.to_string())?;
    for scheme in ClassifierKind::binary_suite() {
        let (fit, predict) = (fit_name(scheme), predict_name(scheme));
        let mut model = scheme.instantiate();
        tr.time(fit, None, 1, || hbmd_ml::fit_timed(&mut model, &train))
            .map_err(|e| e.to_string())?;
        tr.time(predict, None, test.len() as u64, || {
            std::hint::black_box(model.predict_batch(test.rows()))
        });
        out.metric(
            &format!("ml.fit_ms.{}", scheme.name()),
            tr.per_op_ns(fit) / 1e6,
            "ms",
        );
        out.metric(
            &format!("ml.eval.predict_batch_ns.{}", scheme.name()),
            tr.per_op_ns(predict),
            "ns",
        );
    }
    let malicious: Vec<_> = s
        .test
        .rows()
        .iter()
        .filter(|r| r.class.is_malware())
        .take(64)
        .collect();
    let forest = DetectorBuilder::new()
        .classifier(ClassifierKind::RandomForest)
        .train_binary(&s.train)
        .map_err(|e| e.to_string())?;
    for detector in [&s.detector, &forest] {
        tr.time(
            "core.detector.malice_score",
            None,
            malicious.len() as u64,
            || {
                for row in &malicious {
                    std::hint::black_box(detector.malice_score(&row.features));
                }
            },
        );
    }
    let benign = s.train.filtered(|c| !c.is_malware());
    let envelope = PlausibilityEnvelope::from_stats(
        &to_binary_dataset(&benign).feature_stats(),
        ENVELOPE_SIGMA,
    );
    let attack = EvasionAttack::new(envelope, 0.2, 7);
    tr.time(
        "malware.adversarial.perturb",
        None,
        malicious.len() as u64,
        || {
            for (key, row) in malicious.iter().enumerate() {
                std::hint::black_box(attack.perturb(row.features.as_slice(), key as u64, |w| {
                    hbmd_events::FeatureVector::from_slice(w)
                        .map_or(1.0, |v| forest.malice_score(&v))
                }));
            }
        },
    );
    out.metric(
        "core.features.plan_fit_ms",
        tr.per_op_ns("core.features.plan_fit") / 1e6,
        "ms",
    );
    out.metric(
        "core.detector.malice_score_ns",
        tr.per_op_ns("core.detector.malice_score"),
        "ns",
    );
    out.metric(
        "malware.adversarial.perturb_us",
        tr.per_op_ns("malware.adversarial.perturb") / 1e3,
        "us",
    );
    Ok(())
}

/// Span names per suite scheme, built once per run.
fn fit_name(scheme: ClassifierKind) -> &'static str {
    Box::leak(format!("ml.fit.{}", scheme.name()).into_boxed_str())
}

fn predict_name(scheme: ClassifierKind) -> &'static str {
    Box::leak(format!("ml.eval.predict_batch.{}", scheme.name()).into_boxed_str())
}
