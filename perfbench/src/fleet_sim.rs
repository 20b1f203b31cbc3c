//! `fleet_sim`: the real `run_fleet` — lossless, one shard (producer
//! plus worker: 2 threads), simulator source, verdicts captured. The
//! only workload that runs the real shard worker, queue and
//! supervisor; window synthesis does nearly all of its work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hbmd_bench::fleet::{run_fleet, FleetConfig, FleetTimeline};
use hbmd_core::{ClassifierKind, OnlineVerdict, StreamState};

use crate::serve::{encode_verdict, ratio, train, BREAKER, SCALE};
use crate::trace::Tracer;
use crate::{check_digest, median, timed_setup, Args, Fnv, Outcome};

/// Streams and windows per stream of one `run_fleet` call: one full
/// phase cycle (160 windows) each. `run_fleet` serves timeline streams
/// `0..STREAMS` from cursor 0, so this workload has no traffic to draw
/// and ignores the run seed; a seeded stream count moved the
/// false-alarm rate 13% between seeds.
const STREAMS: u64 = 6;
const WINDOWS: u64 = 160;

struct Run {
    windows_per_s: f64,
    wall_s: f64,
    observe_p50_us: f64,
    observe_total_ns: f64,
    processed: u64,
    no_verdict: u64,
    digest: u64,
    alarms: (u64, u64, u64, u64),
}

fn run_once(detector: &Arc<hbmd_core::Detector>, config: &FleetConfig) -> Result<Run, String> {
    let sampler = hbmd_bench::config_at_scale(SCALE).collector.sampler;
    let guard = hbmd_obs::install(hbmd_obs::Obs::new());
    let started = Instant::now();
    let report = run_fleet(detector, &sampler, config).map_err(|e| format!("run_fleet: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let snapshot = guard.registry().snapshot();
    drop(guard);
    let observe = snapshot
        .histogram("online.observe_ns", &[])
        .ok_or("run_fleet recorded no online.observe_ns")?;
    let mut digest = Fnv::default();
    let (mut alarm_mal, mut mal, mut alarm_ben, mut ben, mut no_verdict) = (0, 0, 0, 0, 0);
    for (&stream, verdicts) in &report.verdicts {
        let mut per = Fnv::default();
        for (cursor, v) in verdicts.iter().enumerate() {
            encode_verdict(&mut per, *v);
            no_verdict += u64::from(v.is_none());
            let alarm = matches!(v, Some(OnlineVerdict::Alarm { .. }));
            if FleetTimeline::class_at(stream, cursor as u64).is_malware() {
                mal += 1;
                alarm_mal += u64::from(alarm);
            } else {
                ben += 1;
                alarm_ben += u64::from(alarm);
            }
        }
        digest.u64(stream);
        digest.u64(per.0);
    }
    Ok(Run {
        windows_per_s: report.processed as f64 / wall_s,
        wall_s,
        observe_p50_us: observe.p50 as f64 / 1e3,
        observe_total_ns: observe.sum as f64,
        processed: report.processed,
        no_verdict,
        digest: digest.0,
        alarms: (alarm_mal, mal, alarm_ben, ben),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let ((detector, train_ms, samples_per_s), setup_s) = timed_setup(|| {
        let trained = train(ClassifierKind::J48)?;
        Ok((
            Arc::new(trained.detector),
            trained.train_ms,
            trained.samples_per_s,
        ))
    })?;
    let config = FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1).map_err(|e| e.to_string())?,
        breaker: BREAKER,
        ..FleetConfig::lossless(STREAMS, 1, WINDOWS)
    };
    eprintln!(
        "perfbench: fleet_sim seed {}: {} streams x {} windows per run_fleet call",
        args.seed, config.streams, config.windows_limit
    );
    let mut out = Outcome::default();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut tr = Tracer::new();
    while runs.len() < 3 || started.elapsed() < budget {
        let run = if args.trace && runs.len() % 2 == 1 {
            let id = tr.begin("core.fleet.run_fleet", None);
            let run = run_once(&detector, &config)?;
            tr.end_ops(id, run.processed);
            run
        } else {
            run_once(&detector, &config)?
        };
        if run.digest != runs.first().map_or(run.digest, |r: &Run| r.digest) {
            out.fail_check("a fleet run diverged from the first run");
        }
        runs.push(run);
    }
    let first = &runs[0];
    check_digest(&mut out, "fleet_sim", 0, first.digest);
    eprintln!(
        "perfbench: {} runs; windows with no verdict (breaker-degraded or quarantine-skipped) per run: {}",
        runs.len(),
        first.no_verdict
    );
    out.attempted = runs.iter().map(|r| r.processed).sum();
    out.failed = runs.iter().map(|r| r.no_verdict).sum();
    let col = |f: fn(&Run) -> f64| median(&mut runs.iter().map(f).collect::<Vec<_>>());
    if args.trace {
        let mut timeline =
            FleetTimeline::new(&hbmd_bench::config_at_scale(SCALE).collector.sampler)
                .map_err(|e| e.to_string())?;
        let probe = tr.begin("perf.sampler.window", None);
        for cursor in 0..64 {
            std::hint::black_box(timeline.window(1_000 + args.seed, cursor));
        }
        tr.end_ops(probe, 64);
        let window_us = tr.per_op_ns("perf.sampler.window") / 1e3;
        let plain: Vec<f64> = runs.iter().step_by(2).map(|r| r.windows_per_s).collect();
        let traced: Vec<f64> = runs
            .iter()
            .skip(1)
            .step_by(2)
            .map(|r| r.windows_per_s)
            .collect();
        let (plain, traced) = (median(&mut plain.clone()), median(&mut traced.clone()));
        let wall = col(|r| r.wall_s);
        let processed = first.processed as f64;
        out.metric(
            "core.online.observe_ns",
            col(|r| r.observe_total_ns) / processed,
            "ns",
        );
        out.metric("perf.sampler.window_us", window_us, "us");
        out.metric("perf.collect.samples_per_s", samples_per_s, "1/s");
        out.metric("core.detector.train_ms", train_ms, "ms");
        out.metric(
            "bench.fleet.synthesis_share",
            processed * window_us / 1e6 / wall,
            "ratio",
        );
        out.metric(
            "bench.serve.layer_share",
            col(|r| r.observe_total_ns) / 1e9 / wall,
            "ratio",
        );
        out.metric("bench.trace.windows_per_s", traced, "1/s");
        out.metric("bench.trace.untraced_windows_per_s", plain, "1/s");
        out.metric("bench.trace.overhead", 1.0 - traced / plain, "ratio");
        let path =
            std::path::PathBuf::from(format!("perfbench/out/spans-fleet_sim-{}.jsonl", args.seed));
        tr.write(&path).map_err(|e| format!("write spans: {e}"))?;
    } else {
        let (alarm_mal, mal, alarm_ben, ben) = first.alarms;
        out.metric("setup_s", setup_s, "s");
        out.metric("windows_per_s", col(|r| r.windows_per_s), "1/s");
        out.metric("verdict_p50_us", col(|r| r.observe_p50_us), "us");
        out.metric("alarm_recall", ratio(alarm_mal, mal), "ratio");
        out.metric("false_alarm_rate", ratio(alarm_ben, ben), "ratio");
        out.metric("eval_pass_s", col(|r| r.wall_s), "s");
        out.metric("suite_accuracy", detector.evaluation().accuracy(), "ratio");
    }
    Ok(out)
}
