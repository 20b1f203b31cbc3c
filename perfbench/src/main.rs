//! The hbmd benchmark: one process per workload, end-to-end metrics
//! with `--trace 0`, per-layer metrics from a separate `--trace 1` run.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_replay --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Human-readable detail (digests, failure causes, open-loop lag) goes
//! to stderr. See `perfbench/README.md` for every metric's definition.

mod eval;
mod fleet_sim;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

/// Times the workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Threads the load may use (the reference host has 2 CPUs).
pub const THREADS: usize = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err("--seconds needs a positive integer".to_owned()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace needs 0 or 1".to_owned()),
            },
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit), in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Marks the run incorrect and says why on stderr.
    pub fn fail_check(&mut self, why: &str) {
        eprintln!("perfbench: OUTPUT CHECK FAILED: {why}");
        self.correct = false;
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "serve_replay" => serve::run(&args, serve::Flavor::Replay),
        "serve_faulty" => serve::run(&args, serve::Flavor::Faulty),
        "fleet_sim" => fleet_sim::run(&args),
        "paper_eval" => eval::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match outcome.and_then(|mut outcome| {
        if !args.trace {
            outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        canonical(outcome, args.trace)
    }) {
        Ok(outcome) => {
            println!("{}", render(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end metrics every untraced run prints, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("verdict_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("alarm_recall", "ratio"),
    ("false_alarm_rate", "ratio"),
    ("eval_pass_s", "s"),
    ("suite_accuracy", "ratio"),
];

/// The per-layer metrics every traced run prints, with units. A layer
/// a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("core.online.observe_ns", "ns"),
    ("core.online.vote_ns", "ns"),
    ("core.sanitize.sanitize_ns", "ns"),
    ("core.detector.classify_sanitized_ns", "ns"),
    ("core.detector.classify_ns", "ns"),
    ("core.detector.suspicion_ns", "ns"),
    ("ml.compiled.predict_ns", "ns"),
    ("ml.compiled.predict_batch_ns", "ns"),
    ("obs.metrics.incr_ns", "ns"),
    ("obs.recorder.record_ns", "ns"),
    ("core.fleet.health_record_ns", "ns"),
    ("core.supervisor.breaker_record_ns", "ns"),
    ("core.sanitize.clean", "count"),
    ("core.sanitize.repaired", "count"),
    ("core.sanitize.unusable", "count"),
    ("core.fleet.quarantines", "count"),
    ("core.fleet.readmissions", "count"),
    ("core.supervisor.trips", "count"),
    ("core.supervisor.degraded_windows", "count"),
    ("bench.no_verdict.abstained", "count"),
    ("bench.no_verdict.quarantine_skipped", "count"),
    ("bench.no_verdict.breaker_degraded", "count"),
    ("bench.no_verdict.shed", "count"),
    ("core.snapshot.save_fleet_ms", "ms"),
    ("core.snapshot.bytes", "bytes"),
    ("obs.prom.render_ms", "ms"),
    ("obs.prom.bytes", "bytes"),
    ("obs.recorder.overwrites", "count"),
    ("perf.sampler.window_us", "us"),
    ("perf.collect.samples_per_s", "1/s"),
    ("core.detector.train_ms", "ms"),
    ("bench.fleet.synthesis_share", "ratio"),
    ("bench.serve.layer_share", "ratio"),
    ("bench.trace.windows_per_s", "1/s"),
    ("bench.trace.untraced_windows_per_s", "1/s"),
    ("bench.trace.overhead", "ratio"),
    ("core.features.plan_fit_ms", "ms"),
    ("ml.fit_ms.OneR", "ms"),
    ("ml.fit_ms.JRip", "ms"),
    ("ml.fit_ms.J48", "ms"),
    ("ml.fit_ms.REPTree", "ms"),
    ("ml.fit_ms.NaiveBayes", "ms"),
    ("ml.fit_ms.Logistic", "ms"),
    ("ml.fit_ms.SVM", "ms"),
    ("ml.fit_ms.MultilayerPerceptron", "ms"),
    ("ml.eval.predict_batch_ns.OneR", "ns"),
    ("ml.eval.predict_batch_ns.JRip", "ns"),
    ("ml.eval.predict_batch_ns.J48", "ns"),
    ("ml.eval.predict_batch_ns.REPTree", "ns"),
    ("ml.eval.predict_batch_ns.NaiveBayes", "ns"),
    ("ml.eval.predict_batch_ns.Logistic", "ns"),
    ("ml.eval.predict_batch_ns.SVM", "ns"),
    ("ml.eval.predict_batch_ns.MultilayerPerceptron", "ns"),
    ("malware.adversarial.perturb_us", "us"),
    ("core.detector.malice_score_ns", "ns"),
    ("malware.adversarial.oracle_calls", "count"),
    ("bench.eval.fit_share", "ratio"),
    ("bench.eval.adversarial_share", "ratio"),
    ("bench.eval.pass_ms", "ms"),
    ("bench.openloop.verdict_p50_us", "us"),
    ("bench.openloop.verdict_p99_us", "us"),
    ("bench.openloop.lag_p99_us", "us"),
];

/// Puts the metrics in the declared order and units, filling a layer
/// the workload does not exercise with 0. A metric missing from the
/// declared lists is an error, so `BENCHMARK.json` stays in step.
fn canonical(mut outcome: Outcome, trace: bool) -> Result<Outcome, String> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match outcome.metrics.iter().position(|m| m.0 == name) {
            Some(at) => {
                let (_, value, got) = outcome.metrics.remove(at);
                if got != unit {
                    return Err(format!("{name}: unit {got}, declared {unit}"));
                }
                value
            }
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push((name.to_owned(), value, unit));
    }
    if let Some((name, ..)) = outcome.metrics.first() {
        return Err(format!("metric {name} is not declared"));
    }
    outcome.metrics = metrics;
    Ok(outcome)
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and
/// the median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&mut times)))
}

/// Median of `values` (sorts in place); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (sorts in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// SplitMix64: the seed → input generator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of pseudo-random numbers.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(salt)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Incremental FNV-1a (64-bit), the digest of every output check.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Recorded reference digests: `workload key digest` lines of
/// `perfbench/reference.txt`, read at run time from the checkout. The
/// key is the seed for the serve workloads and 0 for `fleet_sim` and
/// `paper_eval`, whose inputs do not depend on the seed.
pub fn reference_digest(workload: &str, key: u64) -> Option<u64> {
    let text = std::fs::read_to_string("perfbench/reference.txt").ok()?;
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut parts = line.split_whitespace();
            let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload && s.parse::<u64>().ok()? == key)
                .then(|| u64::from_str_radix(d, 16).ok())
                .flatten()
        })
}

/// Prints the digest and checks it against the recorded reference, if
/// one exists for this workload and key.
pub fn check_digest(outcome: &mut Outcome, workload: &str, key: u64, digest: u64) {
    match reference_digest(workload, key) {
        Some(reference) if reference != digest => outcome.fail_check(&format!(
            "{workload} key {key}: digest {digest:016x} != reference {reference:016x}"
        )),
        Some(_) => eprintln!(
            "perfbench: digest {workload} {key} {digest:016x} matches the recorded reference"
        ),
        None => {
            eprintln!("perfbench: digest {workload} {key} {digest:016x} (no recorded reference)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn canonical_orders_fills_and_rejects() {
        let mut out = Outcome::default();
        for &(name, unit) in END_TO_END.iter().rev() {
            out.metric(name, 1.0, unit);
        }
        let out = canonical(out, false).expect("every metric present");
        let names: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);

        let mut traced = Outcome::default();
        traced.metric("core.online.observe_ns", 7.0, "ns");
        let traced = canonical(traced, true).expect("missing layers read 0");
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert_eq!(traced.metrics[0].1, 7.0);
        assert_eq!(traced.metrics[1].1, 0.0);

        let mut stray = Outcome::default();
        stray.metric("not.declared", 1.0, "ns");
        assert!(canonical(stray, true).is_err());
        assert!(canonical(Outcome::default(), false).is_err());
    }

    #[test]
    fn result_line_has_the_documented_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("setup_s", 0.5, "s");
        let line = render(&out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
