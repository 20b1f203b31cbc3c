//! `repro bench-diff` — compare two `BENCH_repro.json` reports and
//! fail on wall-clock, throughput or cache regressions.
//!
//! The comparison refuses to run across *different workloads*: both
//! reports must carry the same crate version, the same
//! thread-normalized config digest, and the same phase list. A changed
//! scale, sampler, or experiment set is a different experiment, not a
//! regression — the digest makes that distinction mechanical instead
//! of a review-time judgement call.
//!
//! Within a compatible pair, a phase regresses when its wall-clock
//! exceeds `baseline * (1 + max_regress_pct/100) + SLACK_MS`; the
//! additive slack keeps sub-100 ms phases from tripping the gate on
//! scheduler noise. A phase that reports `windows_per_sec` also
//! regresses when its rate drops by the same factor:
//! `current * (1 + max_regress_pct/100) < baseline`. Cache misses
//! regress on any increase — the miss
//! counter equals the number of distinct collector configurations
//! collected, so an increase means memoization broke.

use std::fmt::Write as _;

use hbmd_obs::json::{self, Value};

use crate::TextTable;

/// Absolute wall-clock slack added on top of the percentage threshold,
/// so scheduler jitter on short phases cannot trip the gate.
pub const SLACK_MS: u64 = 50;

/// The fields of a `BENCH_repro.json` that the diff consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedReport {
    /// `hbmd-bench` version that wrote the report.
    pub version: String,
    /// Thread-normalized config digest (hex).
    pub config_digest: String,
    /// Catalog scale.
    pub scale: f64,
    /// Experiment-layer threads (informational; normalized out of the
    /// digest).
    pub threads: u64,
    /// Phase name → (wall-clock ms, windows/sec when the phase
    /// measures one), in run order.
    pub phases: Vec<(String, u64, Option<f64>)>,
    /// Collection-cache hits.
    pub cache_hits: u64,
    /// Collection-cache misses (== distinct collector configs).
    pub cache_misses: u64,
    /// End-to-end wall-clock ms.
    pub total_ms: u64,
}

/// Parse a `BENCH_repro.json` document.
///
/// # Errors
///
/// Returns a human-readable message naming the missing or malformed
/// field. Reports from before the version/digest stamp (schema v1) are
/// rejected with a pointer to regenerate the baseline.
pub fn parse_report(text: &str) -> Result<LoadedReport, String> {
    let root = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let str_field = |key: &str| -> Result<String, String> {
        root.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| {
                format!(
                    "missing `{key}` — this report predates the stamped \
                     schema; regenerate it with the current `repro`"
                )
            })
    };
    let u64_field = |key: &str| -> Result<u64, String> {
        root.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing numeric `{key}`"))
    };
    let phases = root
        .get("phases")
        .and_then(Value::as_array)
        .ok_or("missing `phases` array")?
        .iter()
        .map(|p| {
            let name = p
                .get("name")
                .and_then(Value::as_str)
                .ok_or("phase without `name`")?;
            let wall = p
                .get("wall_ms")
                .and_then(Value::as_u64)
                .ok_or("phase without numeric `wall_ms`")?;
            let rate = match p.get("windows_per_sec") {
                None => None,
                Some(rate) => Some(rate.as_f64().ok_or("non-numeric `windows_per_sec`")?),
            };
            Ok((name.to_owned(), wall, rate))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cache = root.get("cache").ok_or("missing `cache` object")?;
    let cache_u64 = |key: &str| -> Result<u64, String> {
        cache
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing numeric `cache.{key}`"))
    };
    Ok(LoadedReport {
        version: str_field("version")?,
        config_digest: str_field("config_digest")?,
        scale: root
            .get("scale")
            .and_then(Value::as_f64)
            .ok_or("missing numeric `scale`")?,
        threads: u64_field("threads")?,
        phases,
        cache_hits: cache_u64("hits")?,
        cache_misses: cache_u64("misses")?,
        total_ms: u64_field("total_ms")?,
    })
}

/// One phase's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDiff {
    /// Phase (experiment) name.
    pub name: String,
    /// Baseline wall-clock ms.
    pub baseline_ms: u64,
    /// Current wall-clock ms.
    pub current_ms: u64,
    /// Signed relative change (`0.10` = 10% slower).
    pub delta: f64,
    /// Baseline → current windows/sec, for phases that measure it.
    pub rate: Option<(f64, f64)>,
    /// Whether this phase trips the gate (wall-clock or throughput).
    pub regressed: bool,
}

/// The full comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-phase rows, baseline order (plus a `TOTAL` row).
    pub phases: Vec<PhaseDiff>,
    /// Baseline → current cache misses.
    pub cache_misses: (u64, u64),
    /// Baseline → current cache hits (informational).
    pub cache_hits: (u64, u64),
    /// The gate's percentage threshold.
    pub max_regress_pct: f64,
    /// Set when the thread counts differ — wall-clock is then only
    /// loosely comparable, and the rendering says so.
    pub thread_note: Option<String>,
}

impl DiffReport {
    /// `true` when any phase or the cache regressed.
    pub fn regressed(&self) -> bool {
        self.phases.iter().any(|p| p.regressed) || self.cache_misses.1 > self.cache_misses.0
    }

    /// Render the comparison as an aligned text table plus a verdict
    /// line.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "phase",
            "baseline ms",
            "current ms",
            "delta",
            "windows/sec",
            "gate",
        ]);
        for phase in &self.phases {
            table.row(vec![
                phase.name.clone(),
                phase.baseline_ms.to_string(),
                phase.current_ms.to_string(),
                format!("{:+.1}%", phase.delta * 100.0),
                phase.rate.map_or("-".to_owned(), |(base, curr)| {
                    format!("{base:.0} -> {curr:.0}")
                }),
                if phase.regressed {
                    "REGRESSED".to_owned()
                } else {
                    "ok".to_owned()
                },
            ]);
        }
        let mut out = table.render();
        let _ = writeln!(
            out,
            "cache: {} -> {} misses, {} -> {} hits{}",
            self.cache_misses.0,
            self.cache_misses.1,
            self.cache_hits.0,
            self.cache_hits.1,
            if self.cache_misses.1 > self.cache_misses.0 {
                "  REGRESSED (memoization collected a config twice)"
            } else {
                ""
            }
        );
        if let Some(note) = &self.thread_note {
            let _ = writeln!(out, "note: {note}");
        }
        let _ = writeln!(
            out,
            "gate: max regression {:.0}% + {} ms slack — {}",
            self.max_regress_pct,
            SLACK_MS,
            if self.regressed() { "FAIL" } else { "PASS" }
        );
        out
    }
}

/// Compare `current` against `baseline` under a percentage gate.
///
/// # Errors
///
/// Returns a message (and no diff) when the reports are incompatible:
/// different versions, different config digests, different phase
/// lists, or phases that report a throughput in only one of the two.
pub fn diff(
    baseline: &LoadedReport,
    current: &LoadedReport,
    max_regress_pct: f64,
) -> Result<DiffReport, String> {
    if baseline.version != current.version {
        return Err(format!(
            "incomparable: baseline is version {}, current is {} — \
             regenerate the baseline on this version",
            baseline.version, current.version
        ));
    }
    if baseline.config_digest != current.config_digest {
        return Err(format!(
            "incomparable: config digest {} vs {} (scale {} vs {}) — \
             these are different workloads, not a regression",
            baseline.config_digest, current.config_digest, baseline.scale, current.scale
        ));
    }
    let base_names: Vec<&str> = baseline.phases.iter().map(|p| p.0.as_str()).collect();
    let curr_names: Vec<&str> = current.phases.iter().map(|p| p.0.as_str()).collect();
    if base_names != curr_names {
        return Err(format!(
            "incomparable: phase lists differ ({base_names:?} vs {curr_names:?})"
        ));
    }
    for ((name, _, base), (_, _, curr)) in baseline.phases.iter().zip(&current.phases) {
        if base.is_some() != curr.is_some() {
            return Err(format!(
                "incomparable: phase `{name}` reports windows_per_sec in only one report"
            ));
        }
    }

    let gate = |base: u64, curr: u64| -> (f64, bool) {
        let delta = if base > 0 {
            curr as f64 / base as f64 - 1.0
        } else if curr > 0 {
            f64::INFINITY
        } else {
            0.0
        };
        let ceiling = base as f64 * (1.0 + max_regress_pct / 100.0) + SLACK_MS as f64;
        (delta, curr as f64 > ceiling)
    };

    let mut phases: Vec<PhaseDiff> = baseline
        .phases
        .iter()
        .zip(&current.phases)
        .map(|((name, base, base_rate), (_, curr, curr_rate))| {
            let (delta, slower) = gate(*base, *curr);
            let rate = base_rate.zip(*curr_rate);
            let throttled =
                rate.is_some_and(|(base, curr)| curr * (1.0 + max_regress_pct / 100.0) < base);
            PhaseDiff {
                name: name.clone(),
                baseline_ms: *base,
                current_ms: *curr,
                delta,
                rate,
                regressed: slower || throttled,
            }
        })
        .collect();
    let (delta, regressed) = gate(baseline.total_ms, current.total_ms);
    phases.push(PhaseDiff {
        name: "TOTAL".to_owned(),
        baseline_ms: baseline.total_ms,
        current_ms: current.total_ms,
        delta,
        rate: None,
        regressed,
    });

    Ok(DiffReport {
        phases,
        cache_misses: (baseline.cache_misses, current.cache_misses),
        cache_hits: (baseline.cache_hits, current.cache_hits),
        max_regress_pct,
        thread_note: (baseline.threads != current.threads).then(|| {
            format!(
                "baseline ran with {} threads, current with {} — \
                 wall-clock is only loosely comparable",
                baseline.threads, current.threads
            )
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchReport, PhaseTiming};

    fn report(wall: &[(&str, u128)], misses: usize, total: u128) -> String {
        report_with_rate(wall, None, misses, total)
    }

    fn report_with_rate(
        wall: &[(&str, u128)],
        rate: Option<f64>,
        misses: usize,
        total: u128,
    ) -> String {
        BenchReport {
            version: "1.2.3".to_owned(),
            config_digest: "abcd".to_owned(),
            scale: 0.05,
            threads: 4,
            collector_threads: 4,
            phases: wall
                .iter()
                .map(|(n, ms)| PhaseTiming {
                    name: (*n).to_owned(),
                    wall_ms: *ms,
                    windows_per_sec: rate,
                })
                .collect(),
            cache_hits: 3,
            cache_misses: misses,
            total_ms: total,
        }
        .to_json()
    }

    #[test]
    fn roundtrips_the_report_schema() {
        let loaded = parse_report(&report(&[("fig13", 1200)], 2, 1500)).expect("parse");
        assert_eq!(loaded.version, "1.2.3");
        assert_eq!(loaded.config_digest, "abcd");
        assert_eq!(loaded.phases, vec![("fig13".to_owned(), 1200, None)]);
        assert_eq!(loaded.cache_misses, 2);
        assert_eq!(loaded.total_ms, 1500);
    }

    #[test]
    fn rejects_unstamped_legacy_reports() {
        let legacy = "{\"scale\": 0.05, \"phases\": [], \
                      \"cache\": {\"hits\": 0, \"misses\": 0}, \"total_ms\": 1}";
        let err = parse_report(legacy).expect_err("legacy must be rejected");
        assert!(err.contains("version"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn within_threshold_passes() {
        let baseline = parse_report(&report(&[("fig13", 1000)], 2, 1200)).unwrap();
        let current = parse_report(&report(&[("fig13", 1100)], 2, 1300)).unwrap();
        let result = diff(&baseline, &current, 20.0).expect("compatible");
        assert!(!result.regressed(), "{}", result.render());
    }

    #[test]
    fn slow_phase_fails_the_gate() {
        let baseline = parse_report(&report(&[("fig13", 1000)], 2, 1200)).unwrap();
        let current = parse_report(&report(&[("fig13", 1600)], 2, 1300)).unwrap();
        let result = diff(&baseline, &current, 20.0).expect("compatible");
        assert!(result.regressed());
        assert!(result.render().contains("REGRESSED"));
        assert!(result.phases[0].regressed);
        assert!(!result.phases[1].regressed, "total stayed within gate");
    }

    #[test]
    fn short_phases_get_absolute_slack() {
        // 10 ms -> 45 ms is +350% but under the 50 ms slack: noise.
        let baseline = parse_report(&report(&[("fig13", 10)], 1, 10)).unwrap();
        let current = parse_report(&report(&[("fig13", 45)], 1, 45)).unwrap();
        let result = diff(&baseline, &current, 20.0).expect("compatible");
        assert!(!result.regressed(), "{}", result.render());
    }

    #[test]
    fn extra_cache_misses_regress() {
        let baseline = parse_report(&report(&[("fig13", 1000)], 2, 1200)).unwrap();
        let current = parse_report(&report(&[("fig13", 1000)], 3, 1200)).unwrap();
        let result = diff(&baseline, &current, 20.0).expect("compatible");
        assert!(result.regressed());
        assert!(result.render().contains("memoization"));
    }

    #[test]
    fn different_digests_refuse_to_compare() {
        let baseline = parse_report(&report(&[("fig13", 1000)], 2, 1200)).unwrap();
        let mut other = baseline.clone();
        other.config_digest = "ffff".to_owned();
        let err = diff(&baseline, &other, 20.0).expect_err("must refuse");
        assert!(err.contains("different workloads"), "{err}");
        let mut rate_skew = baseline.clone();
        rate_skew.phases[0].2 = Some(100.0);
        assert!(diff(&baseline, &rate_skew, 20.0).is_err());
        let mut version_skew = baseline.clone();
        version_skew.version = "9.9.9".to_owned();
        assert!(diff(&baseline, &version_skew, 20.0).is_err());
        let mut phase_skew = baseline.clone();
        phase_skew.phases[0].0 = "fig14".to_owned();
        assert!(diff(&baseline, &phase_skew, 20.0).is_err());
    }

    #[test]
    fn throughput_drop_fails_the_gate() {
        let baseline =
            parse_report(&report_with_rate(&[("fleet", 1000)], Some(600.0), 2, 1200)).unwrap();
        // Same wall-clock, 20% fewer windows/sec: inside a 50% gate.
        let current =
            parse_report(&report_with_rate(&[("fleet", 1000)], Some(480.0), 2, 1200)).unwrap();
        assert!(!diff(&baseline, &current, 50.0).unwrap().regressed());
        // A rate a third of the baseline's is a 3x slowdown: over 50%.
        let current =
            parse_report(&report_with_rate(&[("fleet", 1000)], Some(200.0), 2, 1200)).unwrap();
        let result = diff(&baseline, &current, 50.0).expect("compatible");
        assert!(result.phases[0].regressed, "{}", result.render());
        assert!(result.render().contains("600 -> 200"));
    }

    #[test]
    fn committed_baseline_and_ci_gate_run_the_gated_phases() {
        let baseline = parse_report(include_str!("../../../BENCH_repro.json"))
            .expect("committed baseline parses");
        // Rows named `phase/part` are parts a phase times on its own.
        let (phases, parts): (Vec<&str>, Vec<&str>) = baseline
            .phases
            .iter()
            .map(|p| p.0.as_str())
            .partition(|name| !name.contains('/'));
        assert_eq!(phases, crate::GATE_PHASES);
        // Every compiled scheme's predict rate is gated on its own.
        let schemes = [
            "OneR",
            "JRip",
            "J48",
            "REPTree",
            "AdaBoostM1",
            "Bagging",
            "RandomForest",
        ];
        let expected: Vec<String> = schemes.iter().map(|s| format!("predict/{s}")).collect();
        assert_eq!(parts, expected);
        for (name, _, rate) in &baseline.phases {
            if name.starts_with("predict/") {
                assert!(rate.is_some_and(|r| r > 0.0), "{name} has no rate");
            }
        }

        let ci = include_str!("../../../.github/workflows/ci.yml");
        let gate_job = &ci[ci.find("bench-gate:").expect("bench-gate job")..];
        let run = gate_job
            .lines()
            .find(|line| line.contains("repro --fast"))
            .expect("timed run in bench-gate");
        let invoked: Vec<&str> = run
            .split_whitespace()
            .skip_while(|word| *word != "--fast")
            .skip(1)
            .take_while(|word| !word.starts_with("--"))
            .collect();
        assert_eq!(invoked, crate::GATE_PHASES);
    }
}
