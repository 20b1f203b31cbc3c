//! `repro` — regenerate every table and figure of the reference
//! evaluation.
//!
//! ```text
//! repro [--scale F] [--paper] [--fast] [--threads N] [--bench-json PATH] <experiment>...
//!
//! experiments:
//!   table1 table2 fig6 fig8 fig9 fig10 fig11 fig12
//!   fig13 fig14 fig15 fig16 fig17 fig18 fig19
//!   ablate-ensemble ablate-mux ablate-noise ablate-features
//!   ablate-mlp ablate-prefetch
//!   roc detect-latency robustness adversarial emit-hdl
//!   all
//! ```
//!
//! `--scale F` shrinks the catalog to a fraction `F` (default 0.2);
//! `--paper` runs the full 3,070-sample catalog; `--fast` is shorthand
//! for `--scale 0.05` (CI smoke timing). `--threads N` sets both the
//! collector's and the experiment layer's worker count — results are
//! byte-identical at any value. All randomness is seeded, so repeated
//! runs at the same scale are identical.
//!
//! Each run also writes `BENCH_repro.json` (path override:
//! `--bench-json`): wall-clock per experiment, thread counts, and the
//! collection-cache hit/miss counters. Collection is memoized in a
//! run-local [`CollectCache`], so the `misses` counter equals the
//! number of *distinct* collector configurations the run touched.
//!
//! Observability (all off by default; stdout is byte-identical without
//! these flags):
//!
//! * `--trace-jsonl PATH` — stream every span (collection, training,
//!   per-experiment phases) as JSON lines to `PATH`;
//! * `--metrics-json PATH` — write the run's [`RunManifest`] plus the
//!   full metrics snapshot (counters, gauges, histograms) to `PATH`.
//!
//! Either flag also prints a metrics summary table to stderr at the
//! end of the run.
//!
//! Subcommands (dispatched on the first positional; the default
//! experiment mode and its byte-identical stdout are untouched):
//!
//! * `repro serve [--scale F|--fast|--paper] [--addr HOST:PORT]
//!   [--windows N] [--threads N] [--streams N] [--shards N]` — train
//!   one shared J48 detector, then monitor a fleet of independent
//!   synthetic streams (default 2,000) hash-sharded across supervised
//!   worker shards, exposing `/metrics` (Prometheus text format
//!   0.0.4), `/healthz`, per-shard `/readyz` and `/manifest` over HTTP
//!   until killed (or after `--windows N` per stream);
//! * `repro trace-report <trace.jsonl> [--collapsed PATH]` — span-tree
//!   analysis of a `--trace-jsonl` log: per-name aggregates ranked by
//!   self time, the critical path, and optional folded stacks for
//!   flamegraph renderers;
//! * `repro bench-diff --baseline PATH --current PATH
//!   [--max-regress-pct N]` — compare two `BENCH_repro.json` reports,
//!   exiting nonzero on wall-clock or cache regressions; reports from
//!   different versions, config digests, or phase sets are refused.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbmd_bench::{
    config_at_scale, config_digest, diff, fleet, pct, BenchReport, PhaseTiming, TextTable,
};
use hbmd_core::experiments::{
    self, adversarial, binary, ensemble, hardware, latency, multiclass, pca, robustness, roc,
    ExperimentConfig,
};
use hbmd_core::snapshot::{self, SnapshotError};
use hbmd_core::{
    to_binary_dataset, ClassifierKind, CollectCache, DetectorBuilder, FeaturePlan, FeatureSet,
    OnlineDetector, StreamStanding, StreamState,
};
use hbmd_fpga::SynthConfig;
use hbmd_malware::AppClass;
use hbmd_ml::{Classifier, Evaluation};
use hbmd_obs::health::FleetHealth;
use hbmd_obs::manifest::RunManifest;
use hbmd_obs::recorder::{read_bundle, RecorderHub, Trigger};
use hbmd_obs::trace::Trace;
use hbmd_obs::{json, serve, JsonlSink, Obs};
use hbmd_perf::{PerfError, PmuConfig, SourceSelect};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands dispatch on the first positional before flag parsing,
    // so the default experiment mode — and its byte-identical stdout —
    // is untouched.
    match args.first().map(String::as_str) {
        Some("serve") => return serve_mode(&args[1..]),
        Some("chaos") => return chaos_mode(&args[1..]),
        Some("trace-report") => return trace_report(&args[1..]),
        Some("bench-diff") => return bench_diff(&args[1..]),
        Some("bundle-report") => return bundle_report(&args[1..]),
        _ => {}
    }
    let mut scale = 0.2f64;
    let mut threads: Option<usize> = None;
    let mut bench_json = "BENCH_repro.json".to_owned();
    let mut trace_jsonl: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = f,
                _ => {
                    eprintln!("--scale needs a fraction in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--paper" => scale = 1.0,
            "--fast" => scale = 0.05,
            "--threads" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--bench-json" => match iter.next() {
                Some(path) => bench_json = path.clone(),
                None => {
                    eprintln!("--bench-json needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-jsonl" => match iter.next() {
                Some(path) => trace_jsonl = Some(path.clone()),
                None => {
                    eprintln!("--trace-jsonl needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-json" => match iter.next() {
                Some(path) => metrics_json = Some(path.clone()),
                None => {
                    eprintln!("--metrics-json needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => experiments.push(other.to_owned()),
        }
    }
    if experiments.is_empty() {
        print_usage();
        return ExitCode::FAILURE;
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "table1",
            "fig6",
            "fig8",
            "table2",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "ablate-ensemble",
            "ablate-mux",
            "ablate-noise",
            "ablate-features",
            "ablate-mlp",
            "ablate-prefetch",
            "roc",
            "detect-latency",
            "robustness",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    }

    let mut config = config_at_scale(scale);
    if let Some(n) = threads {
        config.threads = n;
        config.collector.threads = n;
    }
    println!(
        "# hbmd repro — catalog scale {scale} ({} samples), {} windows x {} instructions, {} threads\n",
        config.catalog().len(),
        config.collector.sampler.windows_per_sample,
        config.collector.sampler.instructions_per_window,
        config.threads,
    );

    // A fresh obs context scopes this run's metrics and spans away from
    // whatever the default registry accumulated. Installed only when an
    // observability flag asks for output, so the default run pays no
    // sink dispatch and prints byte-identical stdout.
    let observing = trace_jsonl.is_some() || metrics_json.is_some();
    let obs_guard = if observing {
        let mut obs = Obs::new();
        if let Some(path) = &trace_jsonl {
            match JsonlSink::create(path) {
                Ok(sink) => obs = obs.with_sink(Arc::new(sink)),
                Err(e) => {
                    eprintln!("cannot create {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some(hbmd_obs::install(obs))
    } else {
        None
    };

    // Run-local cache: its miss counter is exactly the number of
    // distinct collector configurations this invocation collected.
    let cache = CollectCache::new();
    let started = Instant::now();
    let mut report = BenchReport {
        version: env!("CARGO_PKG_VERSION").to_owned(),
        config_digest: config_digest(&config),
        scale,
        threads: config.threads,
        collector_threads: config.collector.threads,
        phases: Vec::with_capacity(experiments.len()),
        cache_hits: 0,
        cache_misses: 0,
        total_ms: 0,
    };
    for experiment in &experiments {
        let phase_started = Instant::now();
        let span = hbmd_obs::span!("experiment", name = experiment.as_str());
        let result = run(experiment, &config, &cache);
        drop(span);
        let windows_per_sec = match result {
            Ok(rate) => rate,
            Err(e) => {
                eprintln!("{experiment}: {e}");
                return ExitCode::FAILURE;
            }
        };
        report.phases.push(PhaseTiming {
            name: experiment.clone(),
            wall_ms: phase_started.elapsed().as_millis(),
            windows_per_sec,
        });
        println!();
    }
    report.total_ms = started.elapsed().as_millis();
    report.set_cache_stats(cache.stats());
    match std::fs::write(&bench_json, report.to_json()) {
        Ok(()) => eprintln!(
            "wrote {bench_json} ({} collections for {} lookups, {} ms total)",
            report.cache_misses,
            report.cache_hits + report.cache_misses,
            report.total_ms
        ),
        Err(e) => {
            eprintln!("cannot write {bench_json}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(guard) = obs_guard {
        let snapshot = guard.registry().snapshot();
        if let Some(path) = &metrics_json {
            let mut manifest = build_manifest(scale, &config, &experiments);
            manifest.wall.total_ms = started.elapsed().as_millis();

            let body = snapshot.to_json();
            let combined = format!(
                "{{\n  \"manifest\": {},\n{}",
                manifest.to_json(),
                body.strip_prefix("{\n").unwrap_or(&body)
            );
            if let Err(e) = std::fs::write(path, combined) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        if let Err(e) = guard.obs().flush() {
            let path = trace_jsonl.as_deref().unwrap_or("trace sink");
            eprintln!("cannot flush {path}: {e}");
            return ExitCode::FAILURE;
        }
        if trace_jsonl.is_some() {
            eprintln!("wrote {}", trace_jsonl.as_deref().unwrap_or_default());
        }
        eprint!("\n{}", snapshot.summary());
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    println!(
        "usage: repro [--scale F | --paper | --fast] [--threads N] [--bench-json PATH]\n\
         \x20      [--trace-jsonl PATH] [--metrics-json PATH] <experiment>...\n\
         \x20      repro serve [--scale F | --fast] [--addr HOST:PORT] [--windows N]\n\
         \x20                  [--streams N] [--shards N] [--panic-shard S]\n\
         \x20                  [--checkpoint PATH] [--checkpoint-every N]\n\
         \x20                  [--record-ring N] [--bundle-dir PATH]\n\
         \x20                  [--source sim|perf]\n\
         \x20      repro chaos [--scale F] [--windows N] [--checkpoint-every N] [--dir PATH]\n\
         \x20      repro trace-report <trace.jsonl> [--collapsed PATH]\n\
         \x20      repro bench-diff --baseline PATH --current PATH [--max-regress-pct N]\n\
         \x20      repro bundle-report <bundle-dir>\n\
         experiments: table1 table2 fig6 fig8 fig9 fig10 fig11 fig12 fig13 fig14\n\
         \x20            fig15 fig16 fig17 fig18 fig19 ablate-ensemble ablate-mux\n\
         \x20            ablate-noise ablate-features ablate-mlp ablate-prefetch\n\
         \x20            roc detect-latency robustness adversarial fleet predict emit-hdl all"
    );
}

/// The run's identity card, shared by `--metrics-json` and the
/// `/manifest` endpoint of `repro serve`.
fn build_manifest(scale: f64, config: &ExperimentConfig, experiments: &[String]) -> RunManifest {
    let mut manifest = RunManifest::new("repro", env!("CARGO_PKG_VERSION"));
    manifest.scale = scale;
    manifest.source = config.collector.source.name().to_owned();
    manifest.threads = config.threads;
    manifest.collector_threads = config.collector.threads;
    manifest.seeds = vec![
        ("catalog".to_owned(), config.catalog_seed),
        ("split".to_owned(), config.split_seed),
    ];
    // Same thread-normalized digest `BENCH_repro.json` is stamped with.
    manifest.config_digest =
        u64::from_str_radix(&config_digest(config), 16).expect("digest is 16 hex digits");
    // The workspace shares one version across the hbmd crates.
    manifest.crates = [
        "hbmd-events",
        "hbmd-uarch",
        "hbmd-malware",
        "hbmd-perf",
        "hbmd-ml",
        "hbmd-fpga",
        "hbmd-core",
        "hbmd-obs",
        "hbmd-bench",
    ]
    .iter()
    .map(|name| ((*name).to_owned(), env!("CARGO_PKG_VERSION").to_owned()))
    .collect();
    manifest.experiments = experiments.to_vec();
    manifest
}

/// Cooperative SIGINT flag: the handler only raises it; the pipeline
/// polls it, flushes a final checkpoint, and exits cleanly.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_: i32) {
        STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SIGINT = 2 everywhere we build; no libc crate needed.
    unsafe {
        signal(2, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Train the serve/chaos detector: J48 on the top-8 features with the
/// 4-window vote the serve endpoint has always used.
fn train_monitor(
    config: &ExperimentConfig,
    label: &str,
) -> Result<OnlineDetector, Box<dyn std::error::Error>> {
    let cache = CollectCache::new();
    let collection = cache.collect(config)?;
    let detector = DetectorBuilder::new()
        .classifier(ClassifierKind::J48)
        .feature_set(FeatureSet::Top(8))
        .train_binary(&collection.dataset)?;
    eprintln!(
        "{label}: {:.1}% held-out accuracy; monitoring with a 4-window vote, threshold 3",
        detector.evaluation().accuracy() * 100.0
    );
    Ok(OnlineDetector::builder(detector)
        .window(4)
        .threshold(3)
        .build()?)
}

/// Everything `repro serve` parses from its command line.
struct ServeOptions {
    scale: f64,
    addr: String,
    /// Windows *per stream*; 0 = run until killed.
    windows_limit: u64,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    /// Monitored endpoint streams in the fleet.
    streams: u64,
    /// Worker shards the streams are hashed across.
    shards: usize,
    /// Chaos: shards given a single injected worker panic.
    panic_shards: Vec<usize>,
    /// Flight-recorder ring capacity per shard; 0 = recorder off.
    record_ring: usize,
    /// Where anomaly-triggered diagnostic bundles land.
    bundle_dir: Option<PathBuf>,
}

/// `repro serve` — train one shared detector, then run a *fleet* of
/// independently-voting monitored streams (default 2,000), hash-sharded
/// across supervised worker shards, while exposing `/metrics`,
/// `/healthz`, per-shard `/readyz` and `/manifest` over HTTP. With
/// `--windows N` every stream stops after N windows (integration
/// tests, smoke runs); without it the fleet paces at the paper's 10 ms
/// window cadence and sheds load under backpressure until killed. With
/// `--checkpoint PATH` all stream cursors are checkpointed into one
/// multiplexed snapshot and a restart resumes from the last good
/// sections instead of retraining.
fn serve_mode(args: &[String]) -> ExitCode {
    let mut scale = 0.05f64;
    let mut addr = "127.0.0.1:9185".to_owned();
    let mut windows_limit = 0u64;
    let mut threads: Option<usize> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut checkpoint_every = 64u64;
    let mut streams = 2_000u64;
    let mut shards = 8usize;
    let mut panic_shards: Vec<usize> = Vec::new();
    let mut record_ring = 0usize;
    let mut bundle_dir: Option<PathBuf> = None;
    let mut source = SourceSelect::Sim;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = f,
                _ => {
                    eprintln!("--scale needs a fraction in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--fast" => scale = 0.05,
            "--paper" => scale = 1.0,
            "--addr" => match iter.next() {
                Some(a) => addr = a.clone(),
                None => {
                    eprintln!("--addr needs HOST:PORT (port 0 = ephemeral)");
                    return ExitCode::FAILURE;
                }
            },
            "--windows" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => windows_limit = n,
                _ => {
                    eprintln!("--windows needs a positive count");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint" => match iter.next() {
                Some(path) => checkpoint = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--checkpoint needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-every" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => checkpoint_every = n,
                _ => {
                    eprintln!("--checkpoint-every needs a positive window count");
                    return ExitCode::FAILURE;
                }
            },
            "--streams" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => streams = n,
                _ => {
                    eprintln!("--streams needs a positive count");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => {
                    eprintln!("--shards needs a positive count");
                    return ExitCode::FAILURE;
                }
            },
            "--panic-shard" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(s) => panic_shards.push(s),
                _ => {
                    eprintln!("--panic-shard needs a shard index");
                    return ExitCode::FAILURE;
                }
            },
            "--record-ring" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => record_ring = n,
                _ => {
                    eprintln!("--record-ring needs a positive slot count");
                    return ExitCode::FAILURE;
                }
            },
            "--bundle-dir" => match iter.next() {
                Some(path) => bundle_dir = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--bundle-dir needs a directory path");
                    return ExitCode::FAILURE;
                }
            },
            "--source" => match iter.next().map(|s| s.parse::<SourceSelect>()) {
                Some(Ok(s)) => source = s,
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--source needs `sim` or `perf`");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("serve: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    // Live counters are best-effort: an unprivileged or perf-less host
    // degrades gracefully to the simulator instead of refusing to
    // serve (the manifest records which source actually ran).
    if let Err(PerfError::BackendUnavailable { reason }) = source.probe() {
        eprintln!("serve: counter source `{source}` unavailable ({reason}); falling back to sim");
        source = SourceSelect::Sim;
    }
    let mut config = config_at_scale(scale);
    config.collector.source = source;
    if let Some(n) = threads {
        config.threads = n;
        config.collector.threads = n;
    }
    // A bundle directory implies recording: default the ring to 256
    // slots per shard so `--bundle-dir` alone produces useful bundles.
    if bundle_dir.is_some() && record_ring == 0 {
        record_ring = 256;
    }
    let options = ServeOptions {
        scale,
        addr,
        windows_limit,
        checkpoint,
        checkpoint_every,
        streams,
        shards,
        panic_shards,
        record_ring,
        bundle_dir,
    };
    match run_monitor(&config, &options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_monitor(
    config: &ExperimentConfig,
    options: &ServeOptions,
) -> Result<(), Box<dyn std::error::Error>> {
    // Fresh context so the endpoint exports only this fleet's counters;
    // the guard lives for the whole serve session.
    let guard = hbmd_obs::install(Obs::new());
    install_sigint_handler();
    let fleet_health = Arc::new(FleetHealth::new(options.shards));

    let config_digest_u64 =
        u64::from_str_radix(&config_digest(config), 16).expect("digest is 16 hex digits");
    // A good multiplexed checkpoint for this exact configuration
    // carries the trained detector, so a restart resumes the whole
    // fleet without retraining; anything refused falls back to a fresh
    // training run (and says why). Per-stream cursor restore happens
    // inside the fleet pipeline from the same file.
    let resumed = match &options.checkpoint {
        Some(path) if path.exists() => match snapshot::load_fleet(path, config_digest_u64) {
            Ok(restore) => {
                let high_water = restore.streams.iter().map(|s| s.cursor).max().unwrap_or(0);
                eprintln!(
                        "serve: resumed from {} at window {high_water} ({} stream sections, {} lost, training skipped)",
                        path.display(),
                        restore.streams.len(),
                        restore.lost_sections,
                    );
                Some(Arc::new(restore.detector))
            }
            Err(e) => {
                eprintln!("serve: checkpoint refused ({e}); retraining");
                None
            }
        },
        _ => None,
    };
    let (detector, template) = match resumed {
        Some(detector) => (detector, StreamState::new(4, 3, 1, 1)?),
        None => {
            eprintln!(
                "serve: training J48 detector at scale {} ({} samples)...",
                options.scale,
                config.catalog().len()
            );
            train_monitor(config, "serve")?.into_parts()
        }
    };

    let manifest = build_manifest(options.scale, config, &["serve".to_owned()]);
    // `hbmd_build_info`: the Prometheus idiom for joining run identity
    // onto any other series — a constant-1 gauge whose labels carry the
    // version, config digest, and counter source.
    let source_name = config.collector.source.to_string();
    guard
        .registry()
        .gauge_with(
            "build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("config_digest", &config_digest(config)),
                ("source", &source_name),
            ],
        )
        .set(1);

    // Flight recorder: per-shard rings shared between the fleet's hot
    // path (writer) and the debug endpoints (trigger/drain).
    let recorder = if options.record_ring > 0 {
        let mut hub = RecorderHub::new(options.shards, options.record_ring)
            .with_manifest_json(manifest.to_json())
            .with_families(AppClass::ALL.iter().map(|c| c.name().to_owned()).collect());
        if let Some(dir) = &options.bundle_dir {
            hub = hub.with_bundle_dir(dir);
        }
        Some(Arc::new(hub))
    } else {
        None
    };
    let debug: Option<serve::DebugHandler> = recorder.as_ref().map(|hub| {
        let hub = Arc::clone(hub);
        let handler = move |path: &str| match path {
            "/debug/recorder" => Some(serve::DebugReply {
                status: 200,
                body: hub.stats_json(),
            }),
            "/debug/bundle" => {
                let mut trigger = Trigger::new("http_request");
                trigger.details = "on-demand bundle via /debug/bundle".to_owned();
                Some(match hub.trigger(&trigger) {
                    Ok(Some(outcome)) => serve::DebugReply {
                        status: 200,
                        body: format!(
                            "{{\"bundle\": {}, \"events\": {}}}\n",
                            json::string(&outcome.path.display().to_string()),
                            outcome.events
                        ),
                    },
                    Ok(None) => serve::DebugReply {
                        status: 503,
                        body: "{\"error\": \"no bundle directory configured or bundle cap reached\"}\n"
                            .to_owned(),
                    },
                    Err(e) => serve::DebugReply {
                        status: 500,
                        body: format!("{{\"error\": {}}}\n", json::string(&e.to_string())),
                    },
                })
            }
            _ => None,
        };
        Arc::new(handler) as serve::DebugHandler
    });
    let server = serve::serve(
        &options.addr,
        serve::ServeContext {
            registry: Arc::clone(guard.registry()),
            manifest_json: manifest.to_json(),
            fleet: Some(Arc::clone(&fleet_health)),
            debug,
        },
    )?;
    eprintln!(
        "serve: http://{} — /metrics (Prometheus 0.0.4), /healthz, /readyz, /manifest",
        server.local_addr()
    );
    if let Some(hub) = &recorder {
        eprintln!(
            "serve: flight recorder on — {} slots x {} shards, bundles to {} (/debug/recorder, /debug/bundle)",
            options.record_ring,
            hub.shards(),
            options
                .bundle_dir
                .as_ref()
                .map_or("(disabled)".to_owned(), |d| d.display().to_string()),
        );
    }
    eprintln!(
        "serve: fleet of {} streams across {} shards",
        options.streams, options.shards
    );
    if let Some(path) = &options.checkpoint {
        eprintln!(
            "serve: checkpointing to {} every {} windows per shard",
            path.display(),
            options.checkpoint_every
        );
    }
    if !options.panic_shards.is_empty() {
        // Injected panics are expected: one stderr line each instead of
        // a full backtrace per restart.
        std::panic::set_hook(Box::new(|info| {
            eprintln!("serve: worker panic: {info}");
        }));
    }

    // Injected shard panics land a third of the way into bounded runs
    // (48 windows in for unbounded ones), leaving room to observe both
    // the fault and the recovery.
    let panic_cursor = if options.windows_limit > 0 {
        (options.windows_limit / 3).max(8)
    } else {
        48
    };
    let fleet_config = fleet::FleetConfig {
        checkpoint_every: if options.checkpoint.is_some() {
            options.checkpoint_every
        } else {
            0
        },
        checkpoint_path: options.checkpoint.clone(),
        config_digest: config_digest_u64,
        pristine_stream: template,
        // Pace at the paper's 10 ms sampling period when running as a
        // long-lived monitor; stream at full speed for bounded runs.
        pace: (options.windows_limit == 0).then(|| Duration::from_millis(10)),
        // A long-lived fleet sheds load under backpressure (hot streams
        // last); bounded smoke runs stay lossless so window counts are
        // exact.
        shed_when_full: options.windows_limit == 0,
        max_restarts: 16,
        backoff_ms: (100, 5_000),
        sleep_on_backoff: true,
        breaker: (16, 8, 64),
        panic_at: options
            .panic_shards
            .iter()
            .map(|&shard| (shard, panic_cursor))
            .collect(),
        stop: Some(Arc::new(AtomicBool::new(false))),
        fleet_health: Some(Arc::clone(&fleet_health)),
        capture_verdicts: false,
        verbose: true,
        recorder: recorder.clone(),
        ..fleet::FleetConfig::lossless(options.streams, options.shards, options.windows_limit)
    };
    // Bridge the process-wide SIGINT flag into the fleet's stop flag.
    let stop = fleet_config.stop.clone().expect("stop flag just set");
    let bridge = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if STOP.load(Ordering::SeqCst) {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    let report = fleet::run_fleet(&detector, &config.collector.sampler, &fleet_config)?;
    stop.store(true, Ordering::SeqCst);
    let _ = bridge.join();

    if report.interrupted {
        eprintln!("serve: interrupted — final checkpoint flushed");
    }
    // Mirror the supervisor counters into the scrape registry so the
    // final snapshot (and any last /metrics pull) carries them.
    hbmd_obs::gauge_set("supervisor.restarts_total", report.restarts as i64);
    hbmd_obs::gauge_set("breaker.trips_total", report.trips as i64);
    for shard in &report.shards {
        eprintln!(
            "serve: shard {}: {} streams, {} windows, {} restarts, {} trips, {} quarantines{}",
            shard.shard,
            shard.streams,
            shard.processed,
            shard.restarts,
            shard.trips,
            shard.quarantines,
            if shard.gave_up { " — GAVE UP" } else { "" },
        );
    }
    eprintln!(
        "serve: {} windows observed across the fleet ({:.0} windows/sec); final scrape state:",
        report.processed, report.windows_per_sec
    );
    eprint!("{}", guard.registry().snapshot().summary());
    server.shutdown()?;
    Ok(())
}

/// `repro chaos` — drive a one-stream, one-shard fleet through injected
/// worker panics, a NaN fault-plan burst, and a deliberately corrupted
/// checkpoint, then a sharded fleet through a shard kill, a corrupted
/// snapshot section, and a persistently faulty stream — asserting the
/// recovery and bulkhead invariants the shard supervisor promises.
/// Exits 0 only when every drill passes.
fn chaos_mode(args: &[String]) -> ExitCode {
    let mut scale = 0.05f64;
    let mut windows = 320u64;
    let mut checkpoint_every = 32u64;
    let mut dir: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(f) if f > 0.0 && f <= 1.0 => scale = f,
                _ => {
                    eprintln!("--scale needs a fraction in (0, 1]");
                    return ExitCode::FAILURE;
                }
            },
            "--windows" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 64 => windows = n,
                _ => {
                    eprintln!("--windows needs a count of at least 64");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-every" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => checkpoint_every = n,
                _ => {
                    eprintln!("--checkpoint-every needs a positive window count");
                    return ExitCode::FAILURE;
                }
            },
            "--dir" => match iter.next() {
                Some(path) => dir = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--dir needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("chaos: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    match run_chaos(scale, windows, checkpoint_every, dir) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("chaos: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_chaos(
    scale: f64,
    windows: u64,
    checkpoint_every: u64,
    dir: Option<PathBuf>,
) -> Result<bool, Box<dyn std::error::Error>> {
    let guard = hbmd_obs::install(Obs::new());
    let dir = match dir {
        Some(d) => d,
        None => std::env::temp_dir().join(format!("hbmd-chaos-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir)?;
    let checkpoint = dir.join("monitor.snap");
    let _ = std::fs::remove_file(&checkpoint);

    let config = config_at_scale(scale);
    eprintln!(
        "chaos: training J48 detector at scale {scale} ({} samples)...",
        config.catalog().len()
    );
    let (detector, template) = train_monitor(&config, "chaos")?.into_parts();
    let digest = u64::from_str_radix(&config_digest(&config), 16).expect("digest is 16 hex digits");
    let sampler = &config.collector.sampler;

    // Injected panics are expected: keep them to one stderr line
    // instead of a full backtrace per restart drill.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("chaos: worker panic: {info}");
    }));

    let mut passed = true;
    let mut check = |ok: bool, what: &str| {
        println!("chaos: {} — {what}", if ok { "ok  " } else { "FAIL" });
        passed &= ok;
    };

    // Drills 1-4 and 8 run one stream on one shard, so the shard's
    // supervisor, checkpoint and breaker see every fault.
    let single = fleet::FleetConfig {
        pristine_stream: template.clone(),
        queue_capacity: 32,
        ..fleet::FleetConfig::lossless(1, 1, windows)
    };
    let stream_verdicts = |report: &fleet::FleetReport| report.verdicts.get(&0).cloned();

    // Drill 1: the unfaulted baseline verdict stream.
    let baseline = fleet::run_fleet(&detector, sampler, &single)?;
    let baseline_verdicts = stream_verdicts(&baseline);
    check(
        baseline_verdicts
            .as_ref()
            .is_some_and(|v| v.iter().all(Option::is_some))
            && baseline.restarts == 0,
        "baseline run classifies every window without restarts",
    );

    // Drill 2: injected worker panics. Recovery must replay from the
    // last checkpoint and converge on the exact baseline verdicts.
    let faulted = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            checkpoint_every,
            checkpoint_path: Some(checkpoint.clone()),
            config_digest: digest,
            panic_at: vec![(0, windows / 3), (0, 2 * windows / 3)],
            ..single.clone()
        },
    )?;
    check(
        faulted.restarts == 2,
        "supervisor restarted the worker once per injected panic",
    );
    check(
        stream_verdicts(&faulted) == baseline_verdicts,
        "post-restore verdicts are identical to the unfaulted run",
    );
    check(
        faulted.max_missed_gap <= checkpoint_every + 32,
        "missed-alarm window is bounded by checkpoint spacing + queue depth",
    );
    check(
        checkpoint.exists(),
        "final checkpoint flushed on clean shutdown",
    );

    // Drill 3: corrupt the checkpoint's detector section on disk.
    // Loading must refuse the whole file with a typed error, and a
    // restart must fall back pristine and still converge on the
    // baseline.
    let mut bytes = std::fs::read(&checkpoint)?;
    bytes[snapshot::FLEET_DETECTOR_PAYLOAD_OFFSET] ^= 0x01;
    std::fs::write(&checkpoint, &bytes)?;
    let refusal = snapshot::load_fleet(&checkpoint, digest);
    check(
        matches!(refusal, Err(SnapshotError::ChecksumMismatch { .. })),
        "corrupted checkpoint refused with a typed checksum error",
    );
    if let Err(e) = &refusal {
        eprintln!("chaos: refusal was: {e}");
    }
    let recovered = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            checkpoint_every,
            checkpoint_path: Some(checkpoint.clone()),
            config_digest: digest,
            ..single.clone()
        },
    )?;
    check(
        recovered.refusals >= 1 && stream_verdicts(&recovered) == baseline_verdicts,
        "corrupt-checkpoint start falls back to retrain and matches the baseline",
    );

    // Drill 4: a hostile NaN burst. The sanitizer abstains, the breaker
    // trips into degraded operation, and classification resumes after
    // the burst passes.
    let burst = (0, windows / 4, windows / 4 + 64);
    let stormy = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            nan_streams: vec![burst],
            ..single.clone()
        },
    )?;
    check(
        stormy.trips >= 1 && stormy.degraded > 0,
        "NaN burst trips the breaker into degraded operation",
    );
    check(
        stream_verdicts(&stormy).is_some_and(|v| v.last().is_some_and(Option::is_some)),
        "classification resumes after the burst clears",
    );

    // Drill 5: kill one shard of a fleet mid-run, twice. The bulkhead
    // contract: only the victim shard restarts and replays; every other
    // shard's streams never miss a window, and after recovery the whole
    // fleet's verdict streams are byte-identical to an unfaulted run.
    let fleet_checkpoint = dir.join("fleet.snap");
    let _ = std::fs::remove_file(&fleet_checkpoint);
    let (streams, shards, fleet_windows) = (24u64, 4usize, 96u64);
    let base_cfg = fleet::FleetConfig {
        pristine_stream: template.clone(),
        ..fleet::FleetConfig::lossless(streams, shards, fleet_windows)
    };
    let fleet_baseline = fleet::run_fleet(&detector, sampler, &base_cfg)?;
    check(
        fleet_baseline.restarts == 0
            && fleet_baseline.verdicts.len() == streams as usize
            && fleet_baseline
                .verdicts
                .values()
                .all(|v| v.iter().all(Option::is_some)),
        "fleet baseline classifies every window of every stream without restarts",
    );

    // The shard that owns stream 0 is guaranteed non-empty.
    let victim = hbmd_core::shard_of(0, shards);
    let fleet_faulted = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            checkpoint_every,
            checkpoint_path: Some(fleet_checkpoint.clone()),
            config_digest: digest,
            panic_at: vec![(victim, fleet_windows / 3), (victim, 2 * fleet_windows / 3)],
            ..base_cfg.clone()
        },
    )?;
    check(
        fleet_faulted.restarts == 2 && fleet_faulted.shards[victim].restarts == 2,
        "only the victim shard's supervisor restarted, once per injected panic",
    );
    check(
        fleet_faulted
            .shards
            .iter()
            .filter(|s| s.shard != victim)
            .all(|s| s.restarts == 0 && s.max_missed_gap == 0),
        "bulkhead holds: no other shard restarted or missed a window",
    );
    check(
        fleet_faulted.verdicts == fleet_baseline.verdicts,
        "fleet verdict streams are byte-identical to the unfaulted run",
    );
    check(
        fleet_faulted.max_missed_gap <= checkpoint_every + 64,
        "victim shard's replay gap is bounded by checkpoint spacing + queue depth",
    );
    check(
        fleet_checkpoint.exists(),
        "multiplexed fleet checkpoint flushed on clean shutdown",
    );

    // Drill 6: corrupt exactly one stream section of the multiplexed
    // snapshot. The fleet-wide restore must still succeed — only the
    // corrupted stream falls back pristine and replays, reconverging on
    // the baseline while every other stream resumes untouched.
    let mut fleet_bytes = std::fs::read(&fleet_checkpoint)?;
    let spans = snapshot::fleet_stream_section_spans(&fleet_bytes)?;
    let span = spans[spans.len() / 2].clone();
    fleet_bytes[span.start] ^= 0x01;
    std::fs::write(&fleet_checkpoint, &fleet_bytes)?;
    let partial = snapshot::load_fleet(&fleet_checkpoint, digest)?;
    let lost: Vec<u64> = (0..streams)
        .filter(|s| partial.streams.iter().all(|sec| sec.stream != *s))
        .collect();
    check(
        partial.lost_sections == 1 && lost.len() == 1,
        "one corrupt stream section lost alone; every other stream restored",
    );
    let lost_stream = lost.first().copied().unwrap_or(0);
    let fleet_partial = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            checkpoint_every,
            checkpoint_path: Some(fleet_checkpoint.clone()),
            config_digest: digest,
            ..base_cfg.clone()
        },
    )?;
    check(
        fleet_partial.refusals == 0 && fleet_partial.lost_sections >= 1,
        "fleet-wide restore succeeded with per-stream fallback, no whole-file refusal",
    );
    check(
        fleet_partial.processed == fleet_windows
            && fleet_partial.verdicts.get(&lost_stream)
                == fleet_baseline.verdicts.get(&lost_stream),
        "only the corrupted stream replayed, reconverging on the baseline",
    );

    // Drill 7: a persistently faulty endpoint. Its stream health must
    // quarantine it (protecting the shard's breaker), then readmit it
    // through probation once the fault clears — while its healthy
    // neighbors' verdicts stay untouched.
    let (q_streams, q_windows) = (4u64, 256u64);
    let q_base = fleet::FleetConfig {
        pristine_stream: template,
        // A breaker that cannot trip on one stream's faults: the drill
        // isolates the quarantine mechanism.
        breaker: (16, 16, 64),
        ..fleet::FleetConfig::lossless(q_streams, 1, q_windows)
    };
    let quiet = fleet::run_fleet(&detector, sampler, &q_base)?;
    let faulty_stream = 2u64;
    let stormy_fleet = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            nan_streams: vec![(faulty_stream, 64, 128)],
            ..q_base.clone()
        },
    )?;
    let (standing, stream_quarantines, stream_readmissions) = stormy_fleet
        .stream_health
        .get(&faulty_stream)
        .copied()
        .unwrap_or((StreamStanding::Active, 0, 0));
    check(
        stream_quarantines >= 1 && stormy_fleet.quarantine_skipped >= 32,
        "persistently faulty stream was quarantined and its windows skipped",
    );
    check(
        stream_readmissions >= 1 && standing == StreamStanding::Active,
        "quarantined stream readmitted through probation once clean",
    );
    check(
        stormy_fleet.trips == 0,
        "quarantine absorbed the faulty stream before the shard breaker tripped",
    );
    check(
        stormy_fleet
            .verdicts
            .iter()
            .filter(|(s, _)| **s != faulty_stream)
            .all(|(s, v)| quiet.verdicts.get(s) == Some(v)),
        "healthy neighbors' verdicts are untouched by the quarantine",
    );

    // Drill 8: the flight recorder under fire. Re-run the NaN burst
    // with a recorder attached: the breaker trip must freeze the ring
    // into a checksummed bundle whose last recorded window is exactly
    // the window that tripped the breaker.
    let bundle_root = dir.join("bundles");
    let _ = std::fs::remove_dir_all(&bundle_root);
    let hub = Arc::new(
        RecorderHub::new(1, 512)
            .with_bundle_dir(&bundle_root)
            .with_deterministic(true)
            .with_families(AppClass::ALL.iter().map(|c| c.name().to_owned()).collect()),
    );
    let recorded = fleet::run_fleet(
        &detector,
        sampler,
        &fleet::FleetConfig {
            nan_streams: vec![burst],
            recorder: Some(Arc::clone(&hub)),
            ..single
        },
    )?;
    check(
        recorded.trips >= 1 && hub.bundles_written() >= 1,
        "breaker trip froze the flight ring into a diagnostic bundle",
    );
    let bundle_path = bundle_root.join("bundle-000001-breaker_trip");
    match read_bundle(&bundle_path) {
        Ok(bundle) => {
            let trigger_meta = json::parse(bundle.text("trigger.json")?)?;
            let trip_cursor = trigger_meta.get("cursor").and_then(json::Value::as_u64);
            check(
                trigger_meta.get("reason").and_then(json::Value::as_str) == Some("breaker_trip")
                    && trip_cursor.is_some(),
                "bundle trigger metadata names the breaker trip and its window",
            );
            let mut last_window_cursor = None;
            for line in bundle.text("events.jsonl")?.lines() {
                let event = json::parse(line)?;
                if event.get("kind").and_then(json::Value::as_str) == Some("window") {
                    last_window_cursor = event.get("cursor").and_then(json::Value::as_u64);
                }
            }
            check(
                last_window_cursor.is_some() && last_window_cursor == trip_cursor,
                "bundle's last recorded window is the one that tripped the breaker",
            );
        }
        Err(e) => {
            eprintln!("chaos: bundle refused: {e}");
            check(
                false,
                "bundle trigger metadata names the breaker trip and its window",
            );
            check(
                false,
                "bundle's last recorded window is the one that tripped the breaker",
            );
        }
    }
    let _ = std::fs::remove_dir_all(&bundle_root);

    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_file(&fleet_checkpoint);
    let _ = std::fs::remove_dir(&dir);
    let _ = guard;
    println!("supervisor.restarts_total {}", faulted.restarts);
    println!("chaos: {}", if passed { "PASS" } else { "FAIL" });
    Ok(passed)
}

/// `repro trace-report` — load a `--trace-jsonl` log and print where
/// the time went: per-name aggregates, the critical path, and
/// optionally a flamegraph collapsed-stack file.
fn trace_report(args: &[String]) -> ExitCode {
    let mut file: Option<String> = None;
    let mut collapsed_out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--collapsed" => match iter.next() {
                Some(path) => collapsed_out = Some(path.clone()),
                None => {
                    eprintln!("--collapsed needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_owned()),
            other => {
                eprintln!("trace-report: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: repro trace-report <trace.jsonl> [--collapsed PATH]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match Trace::parse_jsonl(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);

    println!(
        "# trace report — {} spans in {} trees, {} ms covered\n",
        trace.len(),
        trace.roots.len(),
        ms(trace.total_ns())
    );
    let mut table = TextTable::new(vec!["span", "count", "total ms", "self ms", "max ms"]);
    for row in trace.aggregate() {
        table.row(vec![
            row.name,
            row.count.to_string(),
            ms(row.total_ns),
            ms(row.self_ns),
            ms(row.max_ns),
        ]);
    }
    print!("{}", table.render());

    println!("\ncritical path (heaviest child at each level):");
    for (depth, hop) in trace.critical_path().iter().enumerate() {
        println!(
            "{}{} — {} ms ({:.0}% of parent, {} ms self)",
            "  ".repeat(depth),
            hop.name,
            ms(hop.duration_ns),
            hop.share_of_parent * 100.0,
            ms(hop.self_ns),
        );
    }

    if let Some(path) = collapsed_out {
        if let Err(e) = std::fs::write(&path, trace.collapsed()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (folded stacks; feed to a flamegraph renderer)");
    }
    ExitCode::SUCCESS
}

/// `repro bench-diff` — gate on timing regressions between two
/// `BENCH_repro.json` files. Exits nonzero when the reports are
/// incomparable or any phase (or the collection cache) regressed.
fn bench_diff(args: &[String]) -> ExitCode {
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut max_regress_pct = 25.0f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => baseline = iter.next().cloned(),
            "--current" => current = iter.next().cloned(),
            "--max-regress-pct" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 => max_regress_pct = pct,
                _ => {
                    eprintln!("--max-regress-pct needs a non-negative number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench-diff: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(baseline_path), Some(current_path)) = (baseline, current) else {
        eprintln!("usage: repro bench-diff --baseline PATH --current PATH [--max-regress-pct N]");
        return ExitCode::FAILURE;
    };
    let load = |path: &str| -> Result<diff::LoadedReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        diff::parse_report(&text).map_err(|e| format!("{path}: {e}"))
    };
    let reports = load(&baseline_path).and_then(|b| Ok((b, load(&current_path)?)));
    let (baseline_report, current_report) = match reports {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match diff::diff(&baseline_report, &current_report, max_regress_pct) {
        Ok(result) => {
            print!("{}", result.render());
            if result.regressed() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro bundle-report` — verify a diagnostic bundle's checksums,
/// then reconstruct the incident timeline on stdout: trigger metadata,
/// per-ring seqno ranges, event counts by kind, and the recorded tail
/// of window verdicts, faults, health transitions, and restart
/// markers. A corrupted bundle is refused with the typed error on
/// stderr and a nonzero exit.
fn bundle_report(args: &[String]) -> ExitCode {
    let [dir] = args else {
        eprintln!("usage: repro bundle-report <bundle-dir>");
        return ExitCode::FAILURE;
    };
    let dir = PathBuf::from(dir);
    let bundle = match read_bundle(&dir) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("bundle-report: {} refused: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    match render_bundle_report(&dir, &bundle) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bundle-report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The verified-bundle timeline as one printable string. Errors only
/// on malformed JSON inside an already checksum-verified bundle.
fn render_bundle_report(
    dir: &std::path::Path,
    bundle: &hbmd_obs::recorder::Bundle,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Diagnostic bundle {}", dir.display());
    let _ = writeln!(out, "\n## Verified files");
    for entry in &bundle.entries {
        let _ = writeln!(
            out,
            "  {:<14} {:>8} bytes  fnv1a64={:016x}",
            entry.name, entry.size, entry.digest
        );
    }

    let trigger = json::parse(bundle.text("trigger.json").map_err(|e| e.to_string())?)
        .map_err(|e| format!("trigger.json: {e}"))?;
    let opt = |value: Option<&json::Value>| -> String {
        value
            .and_then(json::Value::as_u64)
            .map_or("-".to_owned(), |v| v.to_string())
    };
    let _ = writeln!(out, "\n## Trigger");
    let _ = writeln!(
        out,
        "  reason={} shard={} stream={} cursor={}",
        trigger
            .get("reason")
            .and_then(json::Value::as_str)
            .unwrap_or("?"),
        opt(trigger.get("shard")),
        opt(trigger.get("stream")),
        opt(trigger.get("cursor")),
    );
    if let Some(details) = trigger.get("details").and_then(json::Value::as_str) {
        if !details.is_empty() {
            let _ = writeln!(out, "  details: {details}");
        }
    }
    if let Some(rings) = trigger.get("rings").and_then(json::Value::as_array) {
        for ring in rings {
            let _ = writeln!(
                out,
                "  ring shard={}: {} events, seq {}..{}, {} dropped",
                opt(ring.get("shard")),
                opt(ring.get("events")),
                opt(ring.get("first_seq")),
                opt(ring.get("last_seq")),
                opt(ring.get("dropped")),
            );
        }
    }

    if let Ok(manifest_text) = bundle.text("manifest.json") {
        if let Ok(manifest) = json::parse(manifest_text) {
            let digest = manifest
                .get("config_digest")
                .and_then(json::Value::as_u64)
                .map_or("?".to_owned(), |d| format!("{d:016x}"));
            let _ = writeln!(
                out,
                "\n## Run\n  version={} config_digest={}",
                manifest
                    .get("version")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                digest,
            );
        }
    }

    let events_text = bundle.text("events.jsonl").map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    for (lineno, line) in events_text.lines().enumerate() {
        events
            .push(json::parse(line).map_err(|e| format!("events.jsonl line {}: {e}", lineno + 1))?);
    }
    let mut counts: Vec<(String, usize)> = Vec::new();
    for event in &events {
        let kind = event
            .get("kind")
            .and_then(json::Value::as_str)
            .unwrap_or("?");
        match counts.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind.to_owned(), 1)),
        }
    }
    let _ = writeln!(out, "\n## Events ({} recorded)", events.len());
    for (kind, n) in &counts {
        let _ = writeln!(out, "  {kind:<12} {n}");
    }

    // The incident tail: every non-window marker, then the last 16
    // recorded windows — enough to see what the verdict stream was
    // doing when the trigger fired.
    let _ = writeln!(out, "\n## Timeline tail");
    let describe = |event: &json::Value| -> String {
        let kind = event
            .get("kind")
            .and_then(json::Value::as_str)
            .unwrap_or("?");
        let head = format!(
            "  seq={:>6} shard={} {kind:<10}",
            opt(event.get("seq")),
            opt(event.get("shard")),
        );
        match kind {
            "window" => format!(
                "{head} stream={} cursor={} verdict={} family={} votes={}/{} abstained={}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("verdict")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                event
                    .get("family")
                    .and_then(json::Value::as_str)
                    .unwrap_or("-"),
                opt(event.get("votes")),
                opt(event.get("of")),
                event
                    .get("abstained")
                    .and_then(json::Value::as_bool)
                    .unwrap_or(false),
            ),
            "health" => format!(
                "{head} stream={} cursor={} {} -> {}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("from")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
                event.get("to").and_then(json::Value::as_str).unwrap_or("?"),
            ),
            "fault" => format!(
                "{head} stream={} cursor={} fault={}",
                opt(event.get("stream")),
                opt(event.get("cursor")),
                event
                    .get("fault")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?"),
            ),
            "breaker" => format!(
                "{head} stream={} cursor={} breaker opened",
                opt(event.get("stream")),
                opt(event.get("cursor")),
            ),
            "checkpoint" => format!("{head} cursor={}", opt(event.get("cursor"))),
            "restart" => format!("{head} attempt={}", opt(event.get("attempt"))),
            _ => head,
        }
    };
    let markers: Vec<&json::Value> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) != Some("window"))
        .collect();
    for marker in &markers {
        let _ = writeln!(out, "{}", describe(marker));
    }
    let windows: Vec<&json::Value> = events
        .iter()
        .filter(|e| e.get("kind").and_then(json::Value::as_str) == Some("window"))
        .collect();
    let tail = windows.len().saturating_sub(16);
    if tail > 0 {
        let _ = writeln!(out, "  ... {tail} earlier window events elided ...");
    }
    for window in &windows[tail..] {
        let _ = writeln!(out, "{}", describe(window));
    }
    if let (Some(cursor), Some(last)) = (
        trigger.get("cursor").and_then(json::Value::as_u64),
        windows.last(),
    ) {
        if last.get("cursor").and_then(json::Value::as_u64) == Some(cursor) {
            let _ = writeln!(
                out,
                "\ntriggering window: cursor={cursor} is the last recorded window"
            );
        }
    }
    Ok(out)
}

fn run(
    experiment: &str,
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<Option<f64>, Box<dyn std::error::Error>> {
    match experiment {
        "fleet" => return Ok(Some(fleet_phase(config, cache)?)),
        "predict" => return Ok(Some(predict_phase(config, cache)?)),
        "adversarial" => return Ok(Some(adversarial_phase(config, cache)?)),
        "table1" => table1(config, cache),
        "fig6" => fig6(config, cache),
        "table2" => table2(config, cache)?,
        "fig8" => fig8(config, cache)?,
        "fig9" => scatter(config, cache, AppClass::Rootkit, "Figure 9")?,
        "fig10" => scatter(config, cache, AppClass::Trojan, "Figure 10")?,
        "fig11" => scatter(config, cache, AppClass::Virus, "Figure 11")?,
        "fig12" => scatter(config, cache, AppClass::Worm, "Figure 12")?,
        "fig13" => fig13(config, cache)?,
        "fig14" | "fig15" | "fig16" => hardware_figures(config, cache, experiment)?,
        "fig17" | "fig18" => multiclass_figures(config, cache, experiment)?,
        "fig19" => fig19(config, cache)?,
        "ablate-ensemble" => ablate_ensemble(config, cache)?,
        "roc" => roc_analysis(config, cache)?,
        "detect-latency" => detect_latency(config, cache)?,
        "robustness" => robustness_sweep(config, cache)?,
        "emit-hdl" => emit_hdl(config, cache)?,
        "ablate-prefetch" => ablate_prefetch(config, cache)?,
        "ablate-mux" => ablate_mux(config, cache)?,
        "ablate-noise" => ablate_noise(config, cache)?,
        "ablate-features" => ablate_features(config, cache)?,
        "ablate-mlp" => ablate_mlp(config, cache)?,
        other => return Err(format!("unknown experiment `{other}`").into()),
    }
    Ok(None)
}

/// The `fleet` bench phase: run a small sharded fleet at full speed and
/// report its aggregate throughput. The deterministic facts (stream
/// placement, counters) go to stdout; the machine-dependent rate goes
/// to stderr and into `BENCH_repro.json` as `windows_per_sec`, where
/// `repro bench-diff` gates the phase's wall-clock.
fn fleet_phase(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<f64, Box<dyn std::error::Error>> {
    println!("## Fleet: sharded online monitoring throughput");
    let collection = cache.collect(config)?;
    let detector = DetectorBuilder::new()
        .classifier(ClassifierKind::J48)
        .feature_set(FeatureSet::Top(8))
        .train_binary(&collection.dataset)?;
    let monitor = OnlineDetector::builder(detector)
        .window(4)
        .threshold(3)
        .build()?;
    let (detector, template) = monitor.into_parts();

    let (streams, shards, windows) = (64u64, 8usize, 64u64);
    let fleet_config = fleet::FleetConfig {
        pristine_stream: template,
        capture_verdicts: false,
        ..fleet::FleetConfig::lossless(streams, shards, windows)
    };
    let report = fleet::run_fleet(&detector, &config.collector.sampler, &fleet_config)?;

    let mut table = TextTable::new(vec!["streams", "shards", "windows/stream", "windows"]);
    table.row(vec![
        streams.to_string(),
        shards.to_string(),
        windows.to_string(),
        report.processed.to_string(),
    ]);
    print!("{}", table.render());
    println!(
        "restarts {}  trips {}  quarantines {}  shed {}",
        report.restarts,
        report.trips,
        report.quarantines,
        report.shed_low + report.shed_high
    );
    eprintln!(
        "fleet: {:.0} windows/sec aggregate over {} shards ({} ms wall)",
        report.windows_per_sec, shards, report.wall_ms
    );
    Ok(report.windows_per_sec)
}

/// The `predict` bench phase: fit every compilable scheme, lower it
/// through the compilation pass, and report the compiled evaluator's
/// footprint (deterministic: stdout) plus its batched columnar
/// throughput (machine-dependent: stderr and `BENCH_repro.json`). The
/// returned rate is the fastest per-scheme batch throughput, so `repro
/// bench-diff` gates compiled prediction speed alongside wall-clock.
fn predict_phase(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<f64, Box<dyn std::error::Error>> {
    println!("## Predict: compiled evaluator footprint and batched throughput");
    let collection = cache.collect(config)?;
    let data = to_binary_dataset(&collection.dataset);
    let (train, test) = data.split(0.7, config.split_seed);
    if test.is_empty() {
        return Err("predict phase needs a non-empty test split".into());
    }

    let kinds = [
        ClassifierKind::OneR,
        ClassifierKind::JRip,
        ClassifierKind::J48,
        ClassifierKind::RepTree,
        ClassifierKind::AdaBoost,
        ClassifierKind::Bagging,
        ClassifierKind::RandomForest,
    ];
    let mut table = TextTable::new(vec!["scheme", "accuracy %", "nodes", "bytes"]);
    let mut best = 0.0f64;
    for kind in kinds {
        let mut model = kind.instantiate();
        model.fit(&train)?;
        let accuracy = Evaluation::of(&model, &test).accuracy();
        let compiled = model
            .compile()
            .ok_or_else(|| format!("{kind} did not compile"))?;
        table.row(vec![
            kind.name().to_owned(),
            format!("{:.2}", accuracy * 100.0),
            compiled.node_count().to_string(),
            compiled.byte_size().to_string(),
        ]);

        // A fixed window budget (not a fixed duration) so the
        // wall-clock gate sees comparable work at any machine speed.
        let rows = test.rows();
        let target = 200_000usize;
        let mut predicted = 0usize;
        let started = Instant::now();
        while predicted < target {
            predicted += compiled.predict_batch(rows).len();
        }
        let rate = predicted as f64 / started.elapsed().as_secs_f64();
        eprintln!(
            "predict: {} {:.3e} windows/sec compiled batch ({predicted} windows)",
            kind.name(),
            rate,
        );
        best = best.max(rate);
    }
    print!("{}", table.render());
    Ok(best)
}

/// The `adversarial` bench phase: craft plausibility-constrained
/// evasion attacks against each trained detector, score the same
/// crafted windows under every defense (clean / retrained /
/// ensemble-disagreement), and measure end-to-end detection against
/// behaviour-level camouflage catalogs. All tables and the per-scheme
/// summary lines are deterministic (stdout); the attack throughput
/// goes to stderr and into `BENCH_repro.json` as `windows_per_sec`,
/// where `repro bench-diff` gates the phase's wall-clock.
fn adversarial_phase(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<f64, Box<dyn std::error::Error>> {
    println!("## Adversarial: accuracy under attack, clean vs defended");
    println!("(gradient-free evasion inside a benign plausibility envelope; arXiv:2005.03644 threat model)");
    let schemes = [ClassifierKind::J48, ClassifierKind::RandomForest];
    let budgets = [0.05, 0.1, 0.2, 0.4];
    let started = Instant::now();
    let rows = adversarial::accuracy_under_attack_with(cache, config, &schemes, &budgets)?;
    let elapsed = started.elapsed().as_secs_f64();

    let mut table = TextTable::new(vec![
        "budget",
        "classifier",
        "defense",
        "baseline",
        "detection",
        "evasion",
        "mean L1",
        "iters",
        "windows",
        "susp trips",
    ]);
    for row in &rows {
        table.row(vec![
            pct(row.budget),
            row.scheme.to_string(),
            row.defense.to_string(),
            pct(row.baseline_detection),
            pct(row.detection_rate),
            pct(row.evasion_rate),
            format!("{:.1}", row.mean_l1),
            format!("{:.1}", row.mean_iterations),
            row.windows.to_string(),
            row.suspicion_trips.to_string(),
        ]);
    }
    print!("{}", table.render());

    // One machine-parseable verdict line per scheme at the heaviest
    // budget — the CI smoke gate asserts on these.
    let top_budget = budgets[budgets.len() - 1];
    for scheme in schemes {
        let at_top: Vec<&adversarial::AdversarialRow> = rows
            .iter()
            .filter(|r| r.scheme == scheme && r.budget == top_budget)
            .collect();
        let clean = at_top
            .iter()
            .find(|r| r.defense == adversarial::DefenseKind::Clean)
            .ok_or("missing clean defense row")?;
        let defended = at_top
            .iter()
            .filter(|r| r.defense != adversarial::DefenseKind::Clean)
            .map(|r| r.evasion_rate)
            .fold(f64::INFINITY, f64::min);
        println!(
            "adversarial: scheme={scheme} budget={top_budget} clean_evasion={:.4} defended_evasion={defended:.4}",
            clean.evasion_rate,
        );
    }

    println!();
    println!("### Behaviour-level camouflage (evasive catalog variants)");
    let tactic_rows = adversarial::camouflage_sweep_with(cache, config, &schemes)?;
    let mut camo = TextTable::new(vec!["tactic", "classifier", "detection", "windows"]);
    for row in &tactic_rows {
        camo.row(vec![
            row.tactic.clone(),
            row.scheme.to_string(),
            pct(row.detection_rate),
            row.windows.to_string(),
        ]);
    }
    print!("{}", camo.render());

    let attacked: usize = rows
        .iter()
        .filter(|r| r.defense == adversarial::DefenseKind::Clean)
        .map(|r| r.windows)
        .sum();
    let rate = attacked as f64 / elapsed.max(1e-9);
    eprintln!(
        "adversarial: {rate:.0} attacked windows/sec over {} sweep cells ({attacked} windows)",
        rows.len() / adversarial::DefenseKind::ALL.len(),
    );
    Ok(rate)
}

fn table1(config: &ExperimentConfig, cache: &CollectCache) {
    println!("## Table 1: samples per application class");
    println!("paper: backdoor 452, rootkit 324, trojan 1169, virus 650, worm 149, benign 326 (3,070 total)");
    let rows = experiments::census_with(cache, config);
    let mut table = TextTable::new(vec!["class", "samples", "share", "dataset rows"]);
    let mut total = 0usize;
    for row in &rows {
        total += row.samples;
        table.row(vec![
            row.class.to_string(),
            row.samples.to_string(),
            pct(row.share),
            row.dataset_rows.to_string(),
        ]);
    }
    table.row(vec![
        "total".to_owned(),
        total.to_string(),
        String::new(),
        String::new(),
    ]);
    print!("{}", table.render());
}

fn fig6(config: &ExperimentConfig, cache: &CollectCache) {
    println!("## Figure 6: class distribution of the database");
    println!("paper: trojan-dominated, mirroring the in-the-wild distribution (Figure 3)");
    let rows = experiments::census_with(cache, config);
    let mut table = TextTable::new(vec!["class", "share", "bar"]);
    for row in &rows {
        let bar = "#".repeat((row.share * 60.0).round() as usize);
        table.row(vec![row.class.to_string(), pct(row.share), bar]);
    }
    print!("{}", table.render());
}

fn table2(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Table 2: PCA-reduced features per class");
    println!("paper: 4 common features + custom 8 per malware class");
    let result = pca::table2_with(cache, config)?;
    println!("common features: {}", result.common.join(", "));
    let mut table = TextTable::new(vec!["class", "custom top-8 features"]);
    for (class, features) in &result.per_class {
        table.row(vec![class.to_string(), features.join(", ")]);
    }
    print!("{}", table.render());
    Ok(())
}

fn fig8(config: &ExperimentConfig, cache: &CollectCache) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 8: PCA eigen summary (WEKA PrincipalComponents -R 0.95)");
    let summary = pca::eigen_summary_with(cache, config)?;
    println!(
        "components for 95% variance: {} of 16",
        summary.components_for_95
    );
    let mut table = TextTable::new(vec![
        "rank",
        "attribute",
        "score",
        "eigenvalue",
        "explained",
    ]);
    for (i, (name, score)) in summary.ranking.iter().enumerate() {
        table.row(vec![
            (i + 1).to_string(),
            name.clone(),
            format!("{score:.4}"),
            format!("{:.4}", summary.eigenvalues[i]),
            pct(summary.explained[i]),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn scatter(
    config: &ExperimentConfig,
    cache: &CollectCache,
    class: AppClass,
    figure: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## {figure}: PCA plot for {class} (top-2 components, class vs benign)");
    let points = pca::scatter_with(cache, config, class)?;
    // Render as a coarse ASCII density plot: 'b' benign, 'm' malware,
    // '*' both.
    let (width, height) = (64usize, 20usize);
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in &points {
        min_x = min_x.min(p.pc1);
        max_x = max_x.max(p.pc1);
        min_y = min_y.min(p.pc2);
        max_y = max_y.max(p.pc2);
    }
    let mut grid = vec![vec![' '; width]; height];
    for p in &points {
        let x = ((p.pc1 - min_x) / (max_x - min_x).max(1e-12) * (width - 1) as f64) as usize;
        let y = ((p.pc2 - min_y) / (max_y - min_y).max(1e-12) * (height - 1) as f64) as usize;
        let cell = &mut grid[height - 1 - y][x];
        let mark = if p.malware { 'm' } else { 'b' };
        *cell = match (*cell, mark) {
            (' ', m) => m,
            (existing, m) if existing == m => m,
            _ => '*',
        };
    }
    let malware_mean: f64 = points
        .iter()
        .filter(|p| p.malware)
        .map(|p| p.pc1)
        .sum::<f64>()
        / points.iter().filter(|p| p.malware).count().max(1) as f64;
    let benign_mean: f64 = points
        .iter()
        .filter(|p| !p.malware)
        .map(|p| p.pc1)
        .sum::<f64>()
        / points.iter().filter(|p| !p.malware).count().max(1) as f64;
    for line in grid {
        println!("|{}|", line.into_iter().collect::<String>());
    }
    println!(
        "PC1 centroid separation: {:.2} ({} points; b=benign, m={}, *=overlap)",
        (malware_mean - benign_mean).abs(),
        points.len(),
        class
    );
    Ok(())
}

fn fig13(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 13: binary accuracy, 16 vs PCA top-8 vs top-4 features");
    println!("paper: most classifiers dip slightly at 4 features; J48/OneR barely move");
    let rows = binary::accuracy_comparison_with(cache, config)?;
    let mut table = TextTable::new(vec![
        "classifier",
        "16 features",
        "8 features",
        "4 features",
        "8->4 cost",
    ]);
    for row in &rows {
        table.row(vec![
            row.scheme.to_string(),
            pct(row.accuracy_full),
            pct(row.accuracy_top8),
            pct(row.accuracy_top4),
            format!("{:+.1}pp", row.reduction_cost() * 100.0),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn hardware_figures(
    config: &ExperimentConfig,
    cache: &CollectCache,
    which: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let rows = hardware::comparison_with(cache, config, &SynthConfig::default())?;
    match which {
        "fig14" => {
            println!("## Figure 14: FPGA area comparison (8 vs 4 features)");
            println!("paper: OneR/JRip tiny; MLP an order of magnitude larger");
            let mut table = TextTable::new(vec![
                "classifier",
                "area (8f)",
                "area (4f)",
                "LUT/FF/DSP/BRAM (8f)",
            ]);
            for row in &rows {
                let r = &row.top8.report.resources;
                table.row(vec![
                    row.scheme.to_string(),
                    format!("{:.0}", row.top8.report.area_units()),
                    format!("{:.0}", row.top4.report.area_units()),
                    format!("{}/{}/{}/{}", r.luts, r.ffs, r.dsps, r.brams),
                ]);
            }
            print!("{}", table.render());
        }
        "fig15" => {
            println!("## Figure 15: FPGA latency comparison (8 vs 4 features)");
            println!("paper: rule learners in a couple of cycles; networks slower");
            let mut table = TextTable::new(vec![
                "classifier",
                "cycles (8f)",
                "latency ns (8f)",
                "cycles (4f)",
                "power mW (8f)",
            ]);
            for row in &rows {
                table.row(vec![
                    row.scheme.to_string(),
                    row.top8.report.latency_cycles.to_string(),
                    format!("{:.0}", row.top8.report.latency_ns()),
                    row.top4.report.latency_cycles.to_string(),
                    format!("{:.1}", row.top8.report.power_mw),
                ]);
            }
            print!("{}", table.render());
        }
        _ => {
            println!("## Figure 16: accuracy/area comparison (8 vs 4 features)");
            println!("paper: JRip and OneR dominate the figure of merit");
            let mut table = TextTable::new(vec![
                "classifier",
                "acc (8f)",
                "acc/area (8f)",
                "acc (4f)",
                "acc/area (4f)",
            ]);
            for row in &rows {
                table.row(vec![
                    row.scheme.to_string(),
                    pct(row.top8.accuracy),
                    format!("{:.3}", row.top8.accuracy_per_area()),
                    pct(row.top4.accuracy),
                    format!("{:.3}", row.top4.accuracy_per_area()),
                ]);
            }
            print!("{}", table.render());
        }
    }
    Ok(())
}

fn multiclass_figures(
    config: &ExperimentConfig,
    cache: &CollectCache,
    which: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let rows = multiclass::accuracy_comparison_with(cache, config)?;
    if which == "fig17" {
        println!("## Figure 17: average multiclass accuracy (MLR / MLP / SVM)");
        println!("paper: the neural network (MLP) leads the multiclass comparison");
        let mut table = TextTable::new(vec!["classifier", "average accuracy"]);
        for row in &rows {
            table.row(vec![row.scheme.to_string(), pct(row.average_accuracy)]);
        }
        print!("{}", table.render());
    } else {
        println!("## Figure 18: per-class accuracy for the multiclass classifiers");
        let mut headers = vec!["class"];
        let names: Vec<String> = rows.iter().map(|r| r.scheme.to_string()).collect();
        headers.extend(names.iter().map(String::as_str));
        let mut table = TextTable::new(headers);
        for class in AppClass::ALL {
            let mut cells = vec![class.to_string()];
            for row in &rows {
                cells.push(pct(row.per_class[class.index()]));
            }
            table.row(cells);
        }
        print!("{}", table.render());
    }
    Ok(())
}

fn fig19(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Figure 19: PCA-assisted MLR vs normal MLR");
    println!("paper: custom per-class 8-feature sets gain ~7pp over non-custom features");
    let result = multiclass::pca_assisted_comparison_with(cache, config)?;
    let mut table = TextTable::new(vec!["variant", "accuracy"]);
    table.row(vec![
        "MLR, all 16 features (context)".to_owned(),
        pct(result.plain_full_accuracy),
    ]);
    table.row(vec![
        "normal MLR, generic top-8".to_owned(),
        pct(result.plain_accuracy),
    ]);
    table.row(vec![
        "PCA-assisted MLR, custom-8 per class".to_owned(),
        pct(result.assisted_accuracy),
    ]);
    print!("{}", table.render());
    println!(
        "improvement over non-custom reduction: {:+.1}pp overall, {:+.1}pp mean per-class",
        result.improvement() * 100.0,
        result.macro_improvement() * 100.0
    );
    let mut per_class = TextTable::new(vec!["class", "normal recall", "assisted recall"]);
    for class in AppClass::ALL {
        per_class.row(vec![
            class.to_string(),
            pct(result.plain_per_class[class.index()]),
            pct(result.assisted_per_class[class.index()]),
        ]);
    }
    print!("{}", per_class.render());
    Ok(())
}

fn detect_latency(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: run-time detection latency (windows to alarm)");
    println!("(J48 detector, 4-window vote, 3-vote threshold, unseen specimens)");
    let rows = latency::windows_to_alarm_with(cache, config, 8, 32)?;
    let mut table = TextTable::new(vec![
        "family",
        "detected",
        "mean windows",
        "mean ms (10ms/window)",
    ]);
    for row in &rows {
        table.row(vec![
            row.class.to_string(),
            format!("{}/{}", row.detected, row.observed),
            if row.detected > 0 {
                format!("{:.1}", row.mean_windows_to_alarm)
            } else {
                "-".to_owned()
            },
            if row.detected > 0 {
                format!("{:.0}", row.mean_ms_to_alarm())
            } else {
                "-".to_owned()
            },
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn robustness_sweep(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: graceful degradation under collection faults");
    println!("(detectors trained clean, evaluated through a fault-injected pipeline)");
    let schemes = [
        ClassifierKind::J48,
        ClassifierKind::JRip,
        ClassifierKind::Logistic,
        ClassifierKind::NaiveBayes,
    ];
    let rates = [0.0, 0.02, 0.05, 0.1, 0.2];
    let rows = robustness::degradation_sweep_with(cache, config, &schemes, &rates)?;
    let mut table = TextTable::new(vec![
        "fault rate",
        "classifier",
        "accuracy (decided)",
        "abstained",
        "windows",
        "quarantined",
        "retries",
    ]);
    for row in &rows {
        table.row(vec![
            pct(row.fault_rate),
            row.scheme.to_string(),
            if row.accuracy.is_nan() {
                "-".to_owned()
            } else {
                pct(row.accuracy)
            },
            pct(row.abstain_rate),
            row.windows.to_string(),
            row.quarantined.to_string(),
            row.retries.to_string(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn roc_analysis(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: ROC analysis of the score-producing detectors");
    println!("(a deployed monitor is tuned to a false-positive budget, not peak accuracy)");
    let rows = roc::comparison_with(cache, config)?;
    let mut table = TextTable::new(vec!["scheme", "AUC", "TPR @ 1% FPR", "TPR @ 5% FPR"]);
    for row in &rows {
        table.row(vec![
            row.scheme.clone(),
            format!("{:.4}", row.auc),
            pct(row.at_1pct_fpr.tpr),
            pct(row.at_5pct_fpr.tpr),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn emit_hdl(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## SystemVerilog skeletons for the trained rule learners");
    let collection = cache.collect(config)?;
    let (train_hpc, _) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let indices = plan.resolve(FeatureSet::Top(8))?;
    let train = to_binary_dataset(&train_hpc).select_features(&indices)?;
    for kind in [ClassifierKind::OneR, ClassifierKind::JRip] {
        let mut model = kind.instantiate();
        hbmd_ml::fit_timed(&mut model, &train)?;
        let rtl = hbmd_fpga::emit_system_verilog(&model.datapath()?, &SynthConfig::default());
        println!("{rtl}");
    }
    Ok(())
}

fn ablate_ensemble(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Extension: ensemble learning (RAID'15 / DAC'18 follow-ups)");
    println!("(single learners vs boosting, bagging and random forests, top-8 features)");
    let rows = ensemble::comparison_with(cache, config)?;
    let mut table = TextTable::new(vec![
        "scheme",
        "accuracy",
        "area",
        "latency cyc",
        "acc/area",
    ]);
    for row in &rows {
        table.row(vec![
            row.scheme.to_string(),
            pct(row.accuracy),
            format!("{:.0}", row.area_units),
            row.latency_cycles.to_string(),
            format!("{:.3}", row.accuracy_per_area()),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_prefetch(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: L1D next-line prefetcher vs counter signal");
    println!("(prefetching shifts traffic from demand misses to prefetch references)");
    let mut table = TextTable::new(vec!["cpu model", "J48 accuracy", "Logistic accuracy"]);
    for (label, cpu) in [
        (
            "no prefetcher (paper model)",
            hbmd_uarch::CpuConfig::haswell(),
        ),
        (
            "next-line L1D prefetcher",
            hbmd_uarch::CpuConfig::haswell_prefetch(),
        ),
    ] {
        let mut variant = config.clone();
        variant.collector.sampler.cpu = cpu;
        let collection = cache.collect(&variant)?;
        let (train_hpc, test_hpc) = collection.dataset.split(0.7, variant.split_seed);
        let train = to_binary_dataset(&train_hpc);
        let test = to_binary_dataset(&test_hpc);
        let mut accs = Vec::new();
        for kind in [ClassifierKind::J48, ClassifierKind::Logistic] {
            let mut model = kind.instantiate();
            hbmd_ml::fit_timed(&mut model, &train)?;
            accs.push(Evaluation::of(&model, &test).accuracy());
        }
        table.row(vec![label.to_owned(), pct(accs[0]), pct(accs[1])]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_mux(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: PMU multiplexing pressure vs detection accuracy");
    println!("(design note: counter scaling noise is part of the measured signal)");
    let variants: [(&str, Option<PmuConfig>); 3] = [
        ("exact counting (no PMU sharing)", None),
        (
            "16 events on 8 counters (paper)",
            Some(PmuConfig::haswell_collected()),
        ),
        (
            "52 events on 8 counters (full catalog)",
            Some(PmuConfig::haswell_full()),
        ),
    ];
    let mut table = TextTable::new(vec!["pmu mode", "J48 accuracy", "Logistic accuracy"]);
    for (label, pmu) in variants {
        let mut variant = config.clone();
        variant.collector.sampler.pmu = pmu;
        let collection = cache.collect(&variant)?;
        let (train_hpc, test_hpc) = collection.dataset.split(0.7, variant.split_seed);
        let train = to_binary_dataset(&train_hpc);
        let test = to_binary_dataset(&test_hpc);
        let mut accs = Vec::new();
        for kind in [ClassifierKind::J48, ClassifierKind::Logistic] {
            let mut model = kind.instantiate();
            hbmd_ml::fit_timed(&mut model, &train)?;
            accs.push(Evaluation::of(&model, &test).accuracy());
        }
        table.row(vec![label.to_owned(), pct(accs[0]), pct(accs[1])]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_noise(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: container isolation vs shared-host noise");
    println!("(the LXC containers' purpose: keep host activity out of the counters)");
    let mut table = TextTable::new(vec!["host noise ratio", "J48 accuracy"]);
    for noise in [0.0, 0.5, 1.0, 2.0] {
        let mut variant = config.clone();
        variant.collector.sampler.host_noise = noise;
        let collection = cache.collect(&variant)?;
        let (train_hpc, test_hpc) = collection.dataset.split(0.7, variant.split_seed);
        let train = to_binary_dataset(&train_hpc);
        let test = to_binary_dataset(&test_hpc);
        let mut model = ClassifierKind::J48.instantiate();
        hbmd_ml::fit_timed(&mut model, &train)?;
        table.row(vec![
            format!("{noise:.1}"),
            pct(Evaluation::of(&model, &test).accuracy()),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_features(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: feature-count sweep (beyond the paper's 8 and 4)");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let plan = FeaturePlan::fit(&train_hpc)?;
    let train_full = to_binary_dataset(&train_hpc);
    let test_full = to_binary_dataset(&test_hpc);
    let mut table = TextTable::new(vec![
        "features",
        "J48 accuracy",
        "Logistic accuracy",
        "Logistic area",
    ]);
    for k in [2usize, 4, 8, 12, 16] {
        let indices = plan.resolve(FeatureSet::Top(k))?;
        let train = train_full.select_features(&indices)?;
        let test = test_full.select_features(&indices)?;
        let mut j48 = ClassifierKind::J48.instantiate();
        hbmd_ml::fit_timed(&mut j48, &train)?;
        let mut logistic = ClassifierKind::Logistic.instantiate();
        hbmd_ml::fit_timed(&mut logistic, &train)?;
        let area =
            hbmd_fpga::synthesize(&logistic.datapath()?, &SynthConfig::default()).area_units();
        table.row(vec![
            k.to_string(),
            pct(Evaluation::of(&j48, &test).accuracy()),
            pct(Evaluation::of(&logistic, &test).accuracy()),
            format!("{area:.0}"),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}

fn ablate_mlp(
    config: &ExperimentConfig,
    cache: &CollectCache,
) -> Result<(), Box<dyn std::error::Error>> {
    println!("## Ablation: MLP hidden width vs accuracy and area");
    let collection = cache.collect(config)?;
    let (train_hpc, test_hpc) = collection.dataset.split(0.7, config.split_seed);
    let train = to_binary_dataset(&train_hpc);
    let test = to_binary_dataset(&test_hpc);
    let mut table = TextTable::new(vec!["hidden units", "accuracy", "area", "latency cycles"]);
    for hidden in [2usize, 4, 9, 16, 32] {
        let mut mlp = hbmd_ml::Mlp::with_hidden(hidden);
        hbmd_ml::fit_timed(&mut mlp, &train)?;
        let evaluation = Evaluation::of(&mlp, &test);
        let report = hbmd_fpga::synthesize(
            &hbmd_fpga::ToDatapath::datapath(&mlp)?,
            &SynthConfig::default(),
        );
        table.row(vec![
            hidden.to_string(),
            pct(evaluation.accuracy()),
            format!("{:.0}", report.area_units()),
            report.latency_cycles.to_string(),
        ]);
    }
    print!("{}", table.render());
    Ok(())
}
