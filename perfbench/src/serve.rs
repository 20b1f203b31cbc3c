//! `serve_replay` and `serve_faulty`: the per-window serve path of the
//! fleet, replayed from a pool of pre-synthesized windows so the
//! simulator stays out of the timed region.
//!
//! Set-up collects the training catalog, trains the detector and
//! synthesizes the pool with `FleetTimeline::window`: pool source `p`
//! is timeline stream `p`, cursors `0..CYCLE` (one full phase cycle).
//! The seed maps thousands of logical streams onto the pool (which
//! source, at which phase offset) and, for `serve_faulty`, draws the
//! corruption mix. Each window then goes through the public calls the
//! fleet's shard worker makes, in its order: observe → recorder →
//! stream health → shard breaker → metrics, with a `/metrics`
//! exposition rendered (and, for `serve_faulty`, a fleet checkpoint
//! written) at a fixed window cadence.
//!
//! A pass replays every logical stream for a fixed number of sweeps
//! from fresh state, so every pass yields the same verdicts and the
//! same digest.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbmd_bench::fleet::{run_fleet, FleetConfig, FleetTimeline};
use hbmd_core::experiments::adversarial::SUSPICION_ALARM;
use hbmd_core::fleet::{shard_of, StreamHealth, StreamHealthConfig, StreamStanding};
use hbmd_core::snapshot::{self, StreamSection};
use hbmd_core::supervisor::{BreakerState, CircuitBreaker};
use hbmd_core::{
    ClassifierKind, CollectCache, Detector, DetectorBuilder, FeatureSet, OnlineVerdict,
    SanitizeOutcome, StreamState,
};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::AppClass;
use hbmd_ml::RowsView;
use hbmd_obs::recorder::{
    Event, FeatureFrame, RecorderHub, StandingKind, Trigger, VerdictKind, NO_FAMILY,
};
use hbmd_perf::SamplerConfig;

use crate::trace::Tracer;
use crate::{check_digest, median, quantile, timed_setup, Args, Fnv, Outcome, Rng};

/// Catalog scale of the training collection (the fixed deployment
/// catalog: seed 2018, split 42, as `repro serve` trains on).
pub const SCALE: f64 = 0.02;
/// Pool source streams (timeline streams `0..SOURCES`).
const SOURCES: u64 = 4;
/// Pool cursors per source: one full phase cycle (10 phases × 16
/// windows), so a logical stream wrapping around the pool keeps the
/// phase order.
const CYCLE: u64 = 160;
/// Worker shards simulated (each with its own breaker and recorder
/// ring), as `repro serve` defaults to.
const SHARDS: usize = 8;
/// Flight-recorder slots per shard (the `repro serve` bundle default).
const RING: usize = 256;
/// Windows between two `/metrics` renderings (a few per second).
const SCRAPE_EVERY: u64 = 65_536;
/// Windows per closed-loop throughput block; a run reports the median
/// block rate.
const BLOCK: u64 = 32_768;
/// Outlier windows put every counter at this multiple of its training
/// maximum: inside the sanitizer's per-counter ceiling (8×), far past
/// its joint RMS-z margin.
const OUTLIER_SCALE: f64 = 6.0;
/// Self-test: timeline streams and cursors replayed both through
/// `run_fleet` and through this harness.
const SELFTEST_STREAMS: u64 = SOURCES;
const SELFTEST_CURSORS: u64 = 48;
/// Shard breaker shape (window, trip threshold, cooldown), as `repro
/// serve` configures its fleet.
pub const BREAKER: (usize, usize, u64) = (16, 8, 64);

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Clean traffic, J48 Top-8, 4-window vote with threshold 3.
    Replay,
    /// RandomForest with the disagreement alarm; one stream in eight
    /// corrupted; fleet checkpoints.
    Faulty,
}

impl Flavor {
    fn name(self) -> &'static str {
        match self {
            Flavor::Replay => "serve_replay",
            Flavor::Faulty => "serve_faulty",
        }
    }

    /// Logical streams. `serve_replay` keeps about 4 MB of per-stream
    /// state (vote ring, health, digest, layout), the size of a 4 MiB L2.
    fn streams(self) -> usize {
        match self {
            Flavor::Replay => 16_384,
            Flavor::Faulty => 1_024,
        }
    }

    /// Sweeps per pass. `serve_faulty` passes are long enough for a
    /// quarantined stream to sit out its 64 windows and be readmitted
    /// after 16 clean probation windows.
    fn sweeps(self) -> u64 {
        match self {
            Flavor::Replay => 16,
            Flavor::Faulty => 112,
        }
    }

    /// The fixed open-loop offered rate, windows per second: about a
    /// fifth of the closed-loop rate on a 2-vCPU Xeon VM whose speed
    /// swings by a third or more with its neighbours' load, so the
    /// load stays light in its slow phases too.
    fn offered_rate(self) -> f64 {
        match self {
            Flavor::Replay => 125_000.0,
            Flavor::Faulty => 60_000.0,
        }
    }
}

/// How a corrupted stream's windows are damaged.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Damage {
    /// 1–3 counters NaN: the sanitizer's repair path.
    PartialNan,
    /// Every counter NaN: abstain → quarantine → readmission.
    AllNan,
    /// Every counter at [`OUTLIER_SCALE`] × its training maximum:
    /// each under the sanitizer's range ceiling, jointly implausible
    /// (the RMS-z `Unusable` path).
    Outlier,
}

/// A corrupted burst on one logical stream: sweeps `start..start+len`
/// read `corrupt[first..first+len]` instead of the pool.
#[derive(Clone, Copy)]
struct Burst {
    start: u64,
    len: u64,
    first: usize,
}

/// Seeded traffic: which pool source and phase offset each logical
/// stream reads, its shard, and its corrupted burst, if any.
struct Layout {
    sweeps: u64,
    shards: usize,
    src: Vec<u64>,
    offset: Vec<u64>,
    shard: Vec<usize>,
    burst: Vec<Option<Burst>>,
    corrupt: Vec<FeatureVector>,
    damaged: BTreeMap<Damage, u64>,
}

/// The pre-synthesized windows plus their ground truth.
struct Pool {
    cycle: u64,
    windows: Vec<FeatureVector>,
    malicious: Vec<bool>,
}

impl Pool {
    /// Synthesizes cursors `0..cursors` of timeline streams
    /// `0..sources` on up to [`crate::THREADS`] threads.
    fn synthesize(config: &SamplerConfig, sources: u64, cursors: u64) -> Result<Pool, String> {
        let threads = (crate::THREADS as u64).min(sources).max(1);
        let parts: Vec<Result<Vec<FeatureVector>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut timeline = FleetTimeline::new(config).map_err(|e| e.to_string())?;
                        let mut out = Vec::new();
                        for stream in (t..sources).step_by(threads as usize) {
                            for cursor in 0..cursors {
                                out.push(timeline.window(stream, cursor));
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool synthesis thread panicked"))
                .collect()
        });
        let parts: Vec<Vec<FeatureVector>> = parts.into_iter().collect::<Result<_, _>>()?;
        let mut windows = Vec::with_capacity((sources * cursors) as usize);
        let mut iters: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
        for stream in 0..sources {
            let part = &mut iters[(stream % threads) as usize];
            windows.extend(part.by_ref().take(cursors as usize));
        }
        let malicious = (0..sources)
            .flat_map(|s| (0..cursors).map(move |c| FleetTimeline::class_at(s, c).is_malware()))
            .collect();
        Ok(Pool {
            cycle: cursors,
            windows,
            malicious,
        })
    }

    fn index(&self, src: u64, cursor: u64) -> usize {
        (src * self.cycle + cursor % self.cycle) as usize
    }
}

impl Layout {
    /// The self-test layout: logical stream `i` is timeline stream `i`
    /// from cursor 0, one shard, no corruption — exactly what
    /// `run_fleet` serves for `streams` streams.
    fn identity(streams: u64, sweeps: u64) -> Layout {
        let n = streams as usize;
        Layout {
            sweeps,
            shards: 1,
            src: (0..streams).collect(),
            offset: vec![0; n],
            shard: vec![0; n],
            burst: vec![None; n],
            corrupt: Vec::new(),
            damaged: BTreeMap::new(),
        }
    }

    /// Seeded traffic over the pool.
    fn seeded(flavor: Flavor, seed: u64, pool: &Pool, training_max: &[f64]) -> Layout {
        let n = flavor.streams();
        let mut rng = Rng::new(seed, 0x5E12_7E00);
        let src: Vec<u64> = (0..n).map(|_| rng.below(SOURCES)).collect();
        let offset: Vec<u64> = (0..n).map(|_| rng.below(CYCLE)).collect();
        let shard: Vec<usize> = (0..n as u64).map(|i| shard_of(i, SHARDS)).collect();
        let mut layout = Layout {
            sweeps: flavor.sweeps(),
            shards: SHARDS,
            src,
            offset,
            shard,
            burst: vec![None; n],
            corrupt: Vec::new(),
            damaged: BTreeMap::new(),
        };
        if flavor == Flavor::Faulty {
            layout.corrupt_mix(seed, pool, training_max);
        }
        layout
    }

    /// One stream in eight is corrupted. Per shard, half of them are a
    /// storm of slot-adjacent streams going all-NaN together (enough to
    /// trip the shard's breaker); the rest are drawn at random: 40%
    /// partial-NaN, 40% all-NaN, 20% outliers, each burst at its own
    /// seeded start.
    fn corrupt_mix(&mut self, seed: u64, pool: &Pool, training_max: &[f64]) {
        let mut rng = Rng::new(seed, 0xC0_22_07);
        let sweeps = self.sweeps;
        for s in 0..self.shards {
            let slots: Vec<usize> = (0..self.src.len())
                .filter(|&i| self.shard[i] == s)
                .collect();
            let target = slots.len() / 8;
            let storm_len = target / 2;
            let storm_at = rng.below((slots.len() - storm_len) as u64 + 1) as usize;
            let storm_start = rng.below(8);
            for &i in &slots[storm_at..storm_at + storm_len] {
                self.add_burst(
                    i,
                    Damage::AllNan,
                    storm_start,
                    24,
                    pool,
                    training_max,
                    &mut rng,
                );
            }
            let mut chosen = storm_len;
            while chosen < target {
                let i = slots[rng.below(slots.len() as u64) as usize];
                if self.burst[i].is_some() {
                    continue;
                }
                let (damage, len) = match rng.below(10) {
                    0..=3 => (Damage::PartialNan, 24),
                    4..=7 => (Damage::AllNan, 24),
                    _ => (Damage::Outlier, 8),
                };
                let start = rng.below(sweeps - len);
                self.add_burst(i, damage, start, len, pool, training_max, &mut rng);
                chosen += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn add_burst(
        &mut self,
        i: usize,
        damage: Damage,
        start: u64,
        len: u64,
        pool: &Pool,
        training_max: &[f64],
        rng: &mut Rng,
    ) {
        let first = self.corrupt.len();
        for t in start..start + len {
            let clean = &pool.windows[pool.index(self.src[i], self.offset[i] + t)];
            let mut values = clean.as_slice().to_vec();
            match damage {
                Damage::PartialNan => {
                    for _ in 0..=rng.below(3) {
                        values[rng.below(HpcEvent::COUNT as u64) as usize] = f64::NAN;
                    }
                }
                Damage::AllNan => values.fill(f64::NAN),
                Damage::Outlier => {
                    for (v, &max) in values.iter_mut().zip(training_max) {
                        *v = max * OUTLIER_SCALE;
                    }
                }
            }
            self.corrupt
                .push(FeatureVector::from_slice(&values).expect("full-width window"));
        }
        self.burst[i] = Some(Burst { start, len, first });
        *self.damaged.entry(damage).or_default() += 1;
    }

    fn streams(&self) -> usize {
        self.src.len()
    }

    fn windows_per_pass(&self) -> u64 {
        self.streams() as u64 * self.sweeps
    }

    /// Logical stream `i`'s window at sweep `t`, and its truth.
    fn window<'a>(&'a self, pool: &'a Pool, i: usize, t: u64) -> (&'a FeatureVector, bool) {
        let at = pool.index(self.src[i], self.offset[i] + t);
        let window = match self.burst[i] {
            Some(b) if t >= b.start && t < b.start + b.len => {
                &self.corrupt[b.first + (t - b.start) as usize]
            }
            _ => &pool.windows[at],
        };
        (window, pool.malicious[at])
    }
}

/// Windows with no window-level verdict, by cause, plus alarm tallies.
#[derive(Default, Clone)]
struct Tally {
    abstained: u64,
    quarantine_skipped: u64,
    breaker_degraded: u64,
    alarms_malicious: u64,
    malicious: u64,
    alarms_benign: u64,
    benign: u64,
    quarantines: u64,
    readmissions: u64,
    trips: u64,
}

/// One replayed fleet over a pool and a traffic layout: per-stream
/// vote, health and digest state, the per-shard breakers, and the
/// shared recorder.
struct Fleet<'a> {
    detector: &'a Detector,
    pristine: &'a StreamState,
    pool: &'a Pool,
    layout: &'a Layout,
    states: Vec<StreamState>,
    health: Vec<StreamHealth>,
    breakers: Vec<CircuitBreaker>,
    digests: Vec<Fnv>,
    hub: Arc<RecorderHub>,
    tally: Tally,
    processed: u64,
}

impl<'a> Fleet<'a> {
    fn new(
        detector: &'a Detector,
        pristine: &'a StreamState,
        pool: &'a Pool,
        layout: &'a Layout,
        hub: Arc<RecorderHub>,
    ) -> Fleet<'a> {
        let mut fleet = Fleet {
            detector,
            pristine,
            pool,
            layout,
            states: Vec::new(),
            health: Vec::new(),
            breakers: Vec::new(),
            digests: Vec::new(),
            hub,
            tally: Tally::default(),
            processed: 0,
        };
        fleet.reset();
        fleet
    }

    /// Fresh state for every stream and shard: the start of a pass.
    fn reset(&mut self) {
        let n = self.layout.streams();
        self.states = vec![self.pristine.clone(); n];
        self.health = vec![StreamHealth::new(StreamHealthConfig::default()); n];
        let (window, trip, cooldown) = BREAKER;
        self.breakers = (0..self.layout.shards)
            .map(|_| CircuitBreaker::new(window, trip, cooldown))
            .collect();
        self.digests = vec![Fnv::default(); n];
        self.tally = Tally::default();
    }

    /// FNV-1a over the per-stream verdict sequences, in stream order.
    fn digest(&self) -> u64 {
        let mut all = Fnv::default();
        for (stream, d) in self.digests.iter().enumerate() {
            all.u64(stream as u64);
            all.u64(d.0);
        }
        all.0
    }

    /// One window through the shard worker's per-window calls.
    #[inline]
    fn step<const TRACE: bool>(
        &mut self,
        i: usize,
        shard: usize,
        cursor: u64,
        window: &FeatureVector,
        malicious: bool,
        tr: &mut Tracer,
    ) {
        let root = if TRACE {
            Some(tr.begin("bench.window", None))
        } else {
            None
        };
        let verdict = if self.breakers[shard].state() == BreakerState::Open {
            self.tally.breaker_degraded += 1;
            let s = span::<TRACE>(tr, "core.supervisor.breaker_record", root);
            let now = self.breakers[shard].record(false);
            close::<TRACE>(tr, s);
            if now == BreakerState::HalfOpen {
                let s = span::<TRACE>(tr, "obs.metrics.incr", root);
                shard_state(shard, 1);
                close::<TRACE>(tr, s);
            }
            None
        } else if self.health[i].is_quarantined() {
            self.tally.quarantine_skipped += 1;
            let s = span::<TRACE>(tr, "core.fleet.health_record", root);
            let before = self.health[i].standing();
            let after = self.health[i].record(false);
            close::<TRACE>(tr, s);
            if before != after {
                let s = span::<TRACE>(tr, "obs.recorder.record", root);
                self.hub
                    .record(shard as u32, &health_event(i, cursor, before, after));
                close::<TRACE>(tr, s);
            }
            None
        } else {
            let s = span::<TRACE>(tr, "core.online.observe", root);
            let verdict = self.states[i].observe(self.detector, window);
            let faulted = self.states[i].last_window_abstained();
            close::<TRACE>(tr, s);

            let s = span::<TRACE>(tr, "obs.recorder.record", root);
            self.hub.record(
                shard as u32,
                &window_event(i, cursor, verdict, faulted, window),
            );
            close::<TRACE>(tr, s);

            let s = span::<TRACE>(tr, "core.fleet.health_record", root);
            let before = self.health[i].standing();
            let after = self.health[i].record(faulted);
            close::<TRACE>(tr, s);
            if before != after {
                let s = span::<TRACE>(tr, "obs.recorder.record", root);
                self.hub
                    .record(shard as u32, &health_event(i, cursor, before, after));
                close::<TRACE>(tr, s);
                let s = span::<TRACE>(tr, "obs.metrics.incr", root);
                if after == StreamStanding::Quarantined {
                    self.tally.quarantines += 1;
                    hbmd_obs::incr("fleet.quarantines");
                } else if before == StreamStanding::Probation && after == StreamStanding::Active {
                    self.tally.readmissions += 1;
                    hbmd_obs::incr("fleet.readmissions");
                }
                close::<TRACE>(tr, s);
            }

            let s = span::<TRACE>(tr, "core.supervisor.breaker_record", root);
            let was = self.breakers[shard].state();
            let now = self.breakers[shard].record(faulted);
            close::<TRACE>(tr, s);
            if now == BreakerState::Open && was != BreakerState::Open {
                self.tally.trips += 1;
                let s = span::<TRACE>(tr, "obs.recorder.record", root);
                self.hub.record(
                    shard as u32,
                    &Event::Breaker {
                        stream: i as u64,
                        cursor,
                    },
                );
                let mut trigger = Trigger::new("breaker_trip");
                trigger.shard = Some(shard as u32);
                trigger.stream = Some(i as u64);
                trigger.cursor = Some(cursor);
                let _ = self.hub.trigger(&trigger);
                close::<TRACE>(tr, s);
                let s = span::<TRACE>(tr, "obs.metrics.incr", root);
                hbmd_obs::incr("breaker.trips");
                shard_state(shard, 2);
                close::<TRACE>(tr, s);
            }
            if faulted {
                self.tally.abstained += 1;
            }
            Some(verdict)
        };

        let s = span::<TRACE>(tr, "obs.metrics.incr", root);
        hbmd_obs::incr("fleet.windows");
        self.processed += 1;
        if self.processed.is_multiple_of(4096) {
            hbmd_obs::gauge_set("fleet.windows_per_sec", self.processed as i64);
        }
        close::<TRACE>(tr, s);

        let alarm = matches!(verdict, Some(OnlineVerdict::Alarm { .. }));
        if malicious {
            self.tally.malicious += 1;
            self.tally.alarms_malicious += u64::from(alarm);
        } else {
            self.tally.benign += 1;
            self.tally.alarms_benign += u64::from(alarm);
        }
        encode_verdict(&mut self.digests[i], verdict);
        if let Some(root) = root {
            tr.end(root);
        }
    }

    /// Every stream's section, as the fleet's checkpointer commits it.
    fn sections(&self, cursor: u64) -> Vec<StreamSection> {
        self.states
            .iter()
            .zip(&self.health)
            .enumerate()
            .map(|(i, (state, health))| StreamSection {
                stream: i as u64,
                cursor,
                state: state.clone(),
                health: health.clone(),
            })
            .collect()
    }
}

/// The shard-state gauge the fleet sets on breaker transitions
/// (1 = ready, 2 = degraded).
fn shard_state(shard: usize, state: i64) {
    hbmd_obs::current()
        .registry()
        .gauge_with("fleet.shard_state", &[("shard", &shard.to_string())])
        .set(state);
}

#[inline]
fn span<const TRACE: bool>(tr: &mut Tracer, name: &'static str, parent: Option<usize>) -> usize {
    if TRACE {
        tr.begin(name, parent)
    } else {
        0
    }
}

#[inline]
fn close<const TRACE: bool>(tr: &mut Tracer, id: usize) {
    if TRACE {
        tr.end(id);
    }
}

/// One verdict (or its absence) into a stream's digest.
pub fn encode_verdict(fnv: &mut Fnv, verdict: Option<OnlineVerdict>) {
    match verdict {
        None => fnv.bytes(&[0xFF]),
        Some(OnlineVerdict::Warmup) => fnv.bytes(&[0]),
        Some(OnlineVerdict::Clean) => fnv.bytes(&[1]),
        Some(OnlineVerdict::Alarm { family, votes, of }) => {
            fnv.bytes(&[2, family.index() as u8, votes as u8, of as u8]);
        }
    }
}

fn standing_kind(standing: StreamStanding) -> StandingKind {
    match standing {
        StreamStanding::Active => StandingKind::Active,
        StreamStanding::Quarantined => StandingKind::Quarantined,
        StreamStanding::Probation => StandingKind::Probation,
    }
}

fn health_event(i: usize, cursor: u64, from: StreamStanding, to: StreamStanding) -> Event {
    Event::Health {
        stream: i as u64,
        cursor,
        from: standing_kind(from),
        to: standing_kind(to),
    }
}

/// The recorder's window record, as the shard worker builds it.
fn window_event(
    i: usize,
    cursor: u64,
    verdict: OnlineVerdict,
    abstained: bool,
    window: &FeatureVector,
) -> Event {
    let (verdict, family, votes, of) = match verdict {
        OnlineVerdict::Warmup => (VerdictKind::Warmup, NO_FAMILY, 0, 0),
        OnlineVerdict::Clean => (VerdictKind::Clean, NO_FAMILY, 0, 0),
        OnlineVerdict::Alarm { family, votes, of } => (
            VerdictKind::Alarm,
            family.index() as u8,
            votes as u16,
            of as u16,
        ),
    };
    Event::Window {
        stream: i as u64,
        cursor,
        verdict,
        family,
        votes,
        of,
        abstained,
        features: FeatureFrame::from_slice(window.as_slice()),
    }
}

/// Periodic side work between windows: `/metrics` scrapes and, for
/// `serve_faulty`, a fleet checkpoint of every stream once per pass.
struct Periodic {
    checkpoint: Option<(PathBuf, u64)>,
    scrape_ms: Vec<f64>,
    scrape_bytes: u64,
    save_ms: Vec<f64>,
    save_bytes: u64,
}

impl Periodic {
    fn new(checkpoint: Option<(PathBuf, u64)>) -> Periodic {
        Periodic {
            checkpoint,
            scrape_ms: Vec::new(),
            scrape_bytes: 0,
            save_ms: Vec::new(),
            save_bytes: 0,
        }
    }

    /// Runs whatever falls due after `fleet.processed` windows.
    fn after_window(&mut self, fleet: &Fleet<'_>, cursor: u64) -> Result<(), String> {
        let n = fleet.processed;
        if n.is_multiple_of(SCRAPE_EVERY) {
            let started = Instant::now();
            let body = hbmd_obs::prom::render(&hbmd_obs::current().registry().snapshot());
            self.scrape_ms.push(started.elapsed().as_secs_f64() * 1e3);
            self.scrape_bytes = body.len() as u64;
        }
        if let Some((path, every)) = &self.checkpoint {
            if n.is_multiple_of(*every) {
                let started = Instant::now();
                snapshot::save_fleet(
                    fleet.detector,
                    SHARDS as u32,
                    0,
                    &fleet.sections(cursor),
                    path,
                )
                .map_err(|e| format!("checkpoint: {e}"))?;
                self.save_ms.push(started.elapsed().as_secs_f64() * 1e3);
                self.save_bytes = std::fs::metadata(path).map_or(0, |m| m.len());
            }
        }
        Ok(())
    }
}

/// Everything set-up builds.
struct Setup {
    detector: Detector,
    pristine: StreamState,
    pool: Pool,
    layout: Layout,
    samples_per_s: f64,
    train_ms: f64,
    window_us: f64,
}

/// A detector trained on the fixed deployment catalog, with what its
/// set-up measured.
pub struct Trained {
    pub detector: Detector,
    /// Per-counter maximum over the training collection.
    pub training_max: Vec<f64>,
    pub samples_per_s: f64,
    pub train_ms: f64,
}

/// Collects the fixed deployment catalog and trains a top-8 detector.
pub fn train(kind: ClassifierKind) -> Result<Trained, String> {
    let mut config = hbmd_bench::config_at_scale(SCALE);
    config.threads = crate::THREADS;
    config.collector.threads = crate::THREADS;
    let started = Instant::now();
    let collection = CollectCache::new()
        .collect(&config)
        .map_err(|e| format!("collect: {e}"))?;
    let samples_per_s = config.catalog().len() as f64 / started.elapsed().as_secs_f64();
    let started = Instant::now();
    let detector = DetectorBuilder::new()
        .classifier(kind)
        .feature_set(FeatureSet::Top(8))
        .train_binary(&collection.dataset)
        .map_err(|e| format!("train: {e}"))?;
    let train_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut training_max = vec![0.0f64; HpcEvent::COUNT];
    for row in collection.dataset.rows() {
        for (m, &v) in training_max.iter_mut().zip(row.features.as_slice()) {
            if v.is_finite() {
                *m = m.max(v);
            }
        }
    }
    Ok(Trained {
        detector,
        training_max,
        samples_per_s,
        train_ms,
    })
}

fn setup(flavor: Flavor, seed: u64) -> Result<Setup, String> {
    let kind = match flavor {
        Flavor::Replay => ClassifierKind::J48,
        Flavor::Faulty => ClassifierKind::RandomForest,
    };
    let Trained {
        detector,
        training_max,
        samples_per_s,
        train_ms,
    } = train(kind)?;
    let mut pristine = StreamState::new(4, 3, 1, 1).map_err(|e| e.to_string())?;
    if flavor == Flavor::Faulty {
        pristine = pristine
            .with_suspicion_threshold(SUSPICION_ALARM)
            .map_err(|e| e.to_string())?;
    }
    let config = hbmd_bench::config_at_scale(SCALE).collector.sampler;
    let started = Instant::now();
    let pool = Pool::synthesize(&config, SOURCES, CYCLE)?;
    // Synthesis runs on THREADS threads: per-window cost is the
    // single-thread equivalent.
    let window_us =
        started.elapsed().as_secs_f64() * 1e6 * crate::THREADS as f64 / pool.windows.len() as f64;
    let layout = Layout::seeded(flavor, seed, &pool, &training_max);
    Ok(Setup {
        detector,
        pristine,
        pool,
        layout,
        samples_per_s,
        train_ms,
        window_us,
    })
}

fn new_hub() -> Arc<RecorderHub> {
    Arc::new(
        RecorderHub::new(SHARDS, RING)
            .with_families(AppClass::ALL.iter().map(|c| c.name().to_owned()).collect()),
    )
}

/// The open-loop schedule: window `next` of the phase is due at
/// `start + next / rate`; its latency (due → verdict) goes to
/// `latencies`, how late it started to `lags`.
struct OpenLoop {
    start: Instant,
    rate: f64,
    next: u64,
    /// Seconds spent in paced passes.
    paced_s: f64,
    latencies: Vec<f32>,
    lags: Vec<f32>,
}

/// Latency quantiles of an open-loop phase, in microseconds.
struct OpenSummary {
    p50_us: f64,
    p99_us: f64,
    lag_p99_us: f64,
}

impl OpenLoop {
    fn new(rate: f64, capacity: usize) -> OpenLoop {
        OpenLoop {
            start: Instant::now(),
            rate,
            next: 0,
            paced_s: 0.0,
            latencies: Vec::with_capacity(capacity),
            lags: Vec::with_capacity(capacity),
        }
    }

    /// Starts a new schedule; the time since the last one counts as
    /// paced.
    fn restart(&mut self) {
        if self.next > 0 {
            self.paced_s += self.start.elapsed().as_secs_f64();
        }
        self.start = Instant::now();
        self.next = 0;
    }

    /// The phase's quantiles, also printed on stderr with the sample
    /// count and how late the schedule ran.
    fn summary(mut self, flavor: Flavor) -> OpenSummary {
        self.restart();
        let samples = self.latencies.len();
        let mut latencies: Vec<f64> = self.latencies.iter().map(|&v| f64::from(v)).collect();
        let mut lags: Vec<f64> = self.lags.iter().map(|&v| f64::from(v)).collect();
        let summary = OpenSummary {
            p50_us: quantile(&mut latencies, 0.5),
            p99_us: quantile(&mut latencies, 0.99),
            lag_p99_us: quantile(&mut lags, 0.99),
        };
        eprintln!(
            "perfbench: open loop at {:.0} windows/s: {samples} samples, achieved {:.0}/s; due-to-verdict p50 {:.2} us p99 {:.2} us; start lag p50 {:.2} us p99 {:.2} us max {:.1} us",
            flavor.offered_rate(),
            samples as f64 / self.paced_s,
            summary.p50_us,
            summary.p99_us,
            quantile(&mut lags, 0.5),
            summary.lag_p99_us,
            quantile(&mut lags, 1.0),
        );
        summary
    }
}

/// One pass (at most `max_windows` windows) from fresh state; paced
/// by `open` if given, with closed-loop block rates pushed to `blocks`.
fn pass<const TRACE: bool>(
    fleet: &mut Fleet<'_>,
    periodic: &mut Periodic,
    mut open: Option<&mut OpenLoop>,
    mut blocks: Option<&mut Vec<f64>>,
    tr: &mut Tracer,
    max_windows: u64,
) -> Result<u64, String> {
    fleet.reset();
    let layout = fleet.layout;
    let mut block_start = Instant::now();
    let mut done = 0u64;
    'sweeps: for t in 0..layout.sweeps {
        for i in 0..layout.streams() {
            if done == max_windows {
                break 'sweeps;
            }
            let (window, malicious) = layout.window(fleet.pool, i, t);
            let due = open.as_deref_mut().map(|o| {
                let due = o.start + Duration::from_secs_f64(o.next as f64 / o.rate);
                o.next += 1;
                let mut now = Instant::now();
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                o.lags.push((now - due).as_secs_f32() * 1e6);
                due
            });
            fleet.step::<TRACE>(i, layout.shard[i], t, window, malicious, tr);
            periodic.after_window(fleet, t)?;
            if let (Some(o), Some(due)) = (open.as_deref_mut(), due) {
                o.latencies.push(due.elapsed().as_secs_f32() * 1e6);
            }
            done += 1;
            if let Some(blocks) = blocks.as_deref_mut() {
                if fleet.processed.is_multiple_of(BLOCK) {
                    blocks.push(BLOCK as f64 / block_start.elapsed().as_secs_f64());
                    block_start = Instant::now();
                }
            }
        }
    }
    Ok(done)
}

/// Replays timeline streams `0..SELFTEST_STREAMS`, cursors
/// `0..SELFTEST_CURSORS`, through `run_fleet` and through this harness,
/// and compares every stream's verdict sequence.
fn self_test(s: &Setup) -> Result<bool, String> {
    let config = hbmd_bench::config_at_scale(SCALE).collector.sampler;
    let fleet_config = FleetConfig {
        pristine_stream: s.pristine.clone(),
        breaker: BREAKER,
        ..FleetConfig::lossless(SELFTEST_STREAMS, 1, SELFTEST_CURSORS)
    };
    let detector = Arc::new(s.detector.clone());
    let report = run_fleet(&detector, &config, &fleet_config).map_err(|e| e.to_string())?;
    let layout = Layout::identity(SELFTEST_STREAMS, SELFTEST_CURSORS);
    let mut fleet = Fleet::new(&s.detector, &s.pristine, &s.pool, &layout, new_hub());
    let mut periodic = Periodic::new(None);
    pass::<false>(
        &mut fleet,
        &mut periodic,
        None,
        None,
        &mut Tracer::new(),
        u64::MAX,
    )?;
    let mut same = true;
    for stream in 0..SELFTEST_STREAMS {
        let mut expected = Fnv::default();
        for v in report.verdicts.get(&stream).into_iter().flatten() {
            encode_verdict(&mut expected, *v);
        }
        same &= expected.0 == fleet.digests[stream as usize].0;
    }
    eprintln!(
        "perfbench: self-test replay vs run_fleet over {SELFTEST_STREAMS} streams x {SELFTEST_CURSORS} cursors: {}",
        if same { "identical verdicts" } else { "MISMATCH" }
    );
    Ok(same)
}

pub fn run(args: &Args, flavor: Flavor) -> Result<Outcome, String> {
    let (s, setup_s) = timed_setup(|| setup(flavor, args.seed))?;
    let _obs = hbmd_obs::install(hbmd_obs::Obs::new());
    let mut out = Outcome::default();
    if flavor == Flavor::Replay && !self_test(&s)? {
        out.fail_check("serve_replay harness diverges from run_fleet");
    }
    let checkpoint = (flavor == Flavor::Faulty).then(|| PathBuf::from("perfbench/out/fleet.snap"));
    if let Some(path) = &checkpoint {
        std::fs::create_dir_all(path.parent().expect("has a parent"))
            .map_err(|e| format!("checkpoint dir: {e}"))?;
    }
    let hub = new_hub();
    let mut fleet = Fleet::new(
        &s.detector,
        &s.pristine,
        &s.pool,
        &s.layout,
        Arc::clone(&hub),
    );
    let per_pass = s.layout.windows_per_pass();
    let mut periodic = Periodic::new(checkpoint.clone().map(|path| (path, per_pass)));
    let mut tr = Tracer::new();
    let budget = Duration::from_secs(args.seconds);
    eprintln!(
        "perfbench: {} seed {}: {} streams x {} sweeps per pass, pool {} windows, damaged {:?}",
        flavor.name(),
        args.seed,
        s.layout.streams(),
        s.layout.sweeps,
        s.pool.windows.len(),
        s.layout.damaged
    );

    let result = if args.trace {
        traced(
            &s,
            &mut fleet,
            &mut periodic,
            &mut tr,
            budget,
            flavor,
            &mut out,
        )
    } else {
        untraced(
            &s,
            &mut fleet,
            &mut periodic,
            budget,
            flavor,
            &mut out,
            setup_s,
        )
    };
    if let Some(path) = &checkpoint {
        let _ = std::fs::remove_file(path);
    }
    let (digest, tally, passes) = result?;
    check_digest(&mut out, flavor.name(), args.seed, digest);
    eprintln!(
        "perfbench: per pass {per_pass} windows; no window-level verdict by cause: abstained={} quarantine_skipped={} breaker_degraded={} shed=0",
        tally.abstained, tally.quarantine_skipped, tally.breaker_degraded
    );
    out.attempted = passes * per_pass;
    if flavor == Flavor::Replay {
        // Clean traffic: every window must get a verdict.
        out.failed = passes * (tally.abstained + tally.quarantine_skipped + tally.breaker_degraded);
    }
    if args.trace {
        let (clean, repaired, unusable) = sanitize_census(&s);
        out.metric("core.sanitize.clean", clean as f64, "count");
        out.metric("core.sanitize.repaired", repaired as f64, "count");
        out.metric("core.sanitize.unusable", unusable as f64, "count");
        out.metric("core.fleet.quarantines", tally.quarantines as f64, "count");
        out.metric(
            "core.fleet.readmissions",
            tally.readmissions as f64,
            "count",
        );
        out.metric("core.supervisor.trips", tally.trips as f64, "count");
        out.metric(
            "core.supervisor.degraded_windows",
            tally.breaker_degraded as f64,
            "count",
        );
        out.metric(
            "bench.no_verdict.abstained",
            tally.abstained as f64,
            "count",
        );
        out.metric(
            "bench.no_verdict.quarantine_skipped",
            tally.quarantine_skipped as f64,
            "count",
        );
        out.metric(
            "bench.no_verdict.breaker_degraded",
            tally.breaker_degraded as f64,
            "count",
        );
        out.metric("bench.no_verdict.shed", 0.0, "count");
        let overwrites: u64 = (0..SHARDS as u32)
            .map(|k| hub.ring(k).recorded().saturating_sub(RING as u64))
            .sum();
        out.metric("obs.recorder.overwrites", overwrites as f64, "count");
        out.metric("obs.prom.render_ms", median(&mut periodic.scrape_ms), "ms");
        out.metric("obs.prom.bytes", periodic.scrape_bytes as f64, "bytes");
        out.metric(
            "core.snapshot.save_fleet_ms",
            median(&mut periodic.save_ms),
            "ms",
        );
        out.metric("core.snapshot.bytes", periodic.save_bytes as f64, "bytes");
        out.metric("perf.sampler.window_us", s.window_us, "us");
        out.metric("perf.collect.samples_per_s", s.samples_per_s, "1/s");
        out.metric("core.detector.train_ms", s.train_ms, "ms");
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            flavor.name(),
            args.seed
        ));
        tr.write(&path).map_err(|e| format!("write spans: {e}"))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(out)
}

/// Sanitizer outcomes over one pass's windows.
fn sanitize_census(s: &Setup) -> (u64, u64, u64) {
    let (mut clean, mut repaired, mut unusable) = (0, 0, 0);
    let sanitizer = s.detector.sanitizer();
    for t in 0..s.layout.sweeps {
        for i in 0..s.layout.streams() {
            match sanitizer.sanitize(s.layout.window(&s.pool, i, t).0) {
                SanitizeOutcome::Clean(_) => clean += 1,
                SanitizeOutcome::Repaired { .. } => repaired += 1,
                SanitizeOutcome::Unusable { .. } => unusable += 1,
            }
        }
    }
    (clean, repaired, unusable)
}

type PhaseResult = Result<(u64, Tally, u64), String>;

/// Closed-loop passes, unpaced, alternating with open-loop passes at
/// the workload's fixed offered rate; whole passes only, and every pass
/// must reproduce the first pass's digest.
fn untraced(
    s: &Setup,
    fleet: &mut Fleet<'_>,
    periodic: &mut Periodic,
    budget: Duration,
    flavor: Flavor,
    out: &mut Outcome,
    setup_s: f64,
) -> PhaseResult {
    let mut tr = Tracer::new();
    let mut blocks = Vec::new();
    let mut digest = None;
    let mut tally = None;
    let mut passes = 0u64;
    let mut check = |fleet: &Fleet<'_>, out: &mut Outcome| {
        let d = fleet.digest();
        match digest {
            None => {
                digest = Some(d);
                tally = Some(fleet.tally.clone());
            }
            Some(first) if first != d => out.fail_check("a pass diverged from the first pass"),
            Some(_) => {}
        }
    };
    // Closed-loop and open-loop passes alternate until the budget is
    // spent, so both sample the host over the whole run.
    let per_pass = s.layout.windows_per_pass();
    let capacity = (flavor.offered_rate() * budget.as_secs_f64()) as usize + per_pass as usize;
    let mut open = OpenLoop::new(flavor.offered_rate(), capacity);
    let started = Instant::now();
    while passes == 0 || started.elapsed() < budget {
        pass::<false>(fleet, periodic, None, Some(&mut blocks), &mut tr, u64::MAX)?;
        check(fleet, out);
        open.restart();
        pass::<false>(fleet, periodic, Some(&mut open), None, &mut tr, u64::MAX)?;
        check(fleet, out);
        passes += 2;
    }
    let tally = tally.expect("at least one pass");
    let summary = open.summary(flavor);
    eprintln!(
        "perfbench: closed loop: {} blocks of {BLOCK} windows, rate p10 {:.0} p50 {:.0} p90 {:.0} /s",
        blocks.len(),
        quantile(&mut blocks, 0.1),
        quantile(&mut blocks, 0.5),
        quantile(&mut blocks, 0.9)
    );
    let windows_per_s = median(&mut blocks);
    let pass_s = per_pass as f64 / windows_per_s;
    out.metric("setup_s", setup_s, "s");
    out.metric("windows_per_s", windows_per_s, "1/s");
    out.metric("verdict_p50_us", summary.p50_us, "us");
    out.metric(
        "alarm_recall",
        ratio(tally.alarms_malicious, tally.malicious),
        "ratio",
    );
    out.metric(
        "false_alarm_rate",
        ratio(tally.alarms_benign, tally.benign),
        "ratio",
    );
    out.metric("eval_pass_s", pass_s, "s");
    out.metric(
        "suite_accuracy",
        s.detector.evaluation().accuracy(),
        "ratio",
    );
    Ok((digest.expect("at least one pass"), tally, passes))
}

pub fn ratio(hits: u64, of: u64) -> f64 {
    if of == 0 {
        f64::NAN
    } else {
        hits as f64 / of as f64
    }
}

/// Windows per traced sample: spans stay in memory, so the traced
/// replay covers this prefix of a pass.
const TRACED_WINDOWS: u64 = 131_072;

/// The traced run: untraced and traced replays of the same prefix
/// (their rate difference is the tracing overhead), then probes of the
/// layers `observe` calls internally, on the same windows.
fn traced(
    s: &Setup,
    fleet: &mut Fleet<'_>,
    periodic: &mut Periodic,
    tr: &mut Tracer,
    budget: Duration,
    flavor: Flavor,
    out: &mut Outcome,
) -> PhaseResult {
    let mut quiet = Tracer::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    // Full untraced passes first: the digest and tallies.
    pass::<false>(fleet, periodic, None, None, &mut quiet, u64::MAX)?;
    let digest = fleet.digest();
    let tally = fleet.tally.clone();
    // Alternate untraced and traced replays of the same prefix; the
    // first traced round's spans are the ones kept.
    let mut rounds = 0;
    while rounds < 3 || (rounds < 12 && started.elapsed() < budget) {
        let t0 = Instant::now();
        let n = pass::<false>(fleet, periodic, None, None, &mut quiet, TRACED_WINDOWS)?;
        plain.push(n as f64 / t0.elapsed().as_secs_f64());
        let mut scratch = Tracer::new();
        let spans = if rounds == 0 { &mut *tr } else { &mut scratch };
        let t0 = Instant::now();
        let n = pass::<true>(fleet, periodic, None, None, spans, TRACED_WINDOWS)?;
        traced.push(n as f64 / t0.elapsed().as_secs_f64());
        rounds += 1;
    }
    let untraced_wps = median(&mut plain);
    let traced_wps = median(&mut traced);

    // One paced pass: the open-loop tail, which varies too much between
    // runs on a shared VM to be bounded end to end.
    let mut open = OpenLoop::new(flavor.offered_rate(), s.layout.windows_per_pass() as usize);
    pass::<false>(fleet, periodic, Some(&mut open), None, &mut quiet, u64::MAX)?;
    let summary = open.summary(flavor);
    out.metric("bench.openloop.verdict_p50_us", summary.p50_us, "us");
    out.metric("bench.openloop.verdict_p99_us", summary.p99_us, "us");
    out.metric("bench.openloop.lag_p99_us", summary.lag_p99_us, "us");

    // Probes of observe's sub-layers over the traced windows.
    let windows: Vec<&FeatureVector> = (0..s.layout.sweeps)
        .flat_map(|t| (0..s.layout.streams()).map(move |i| (i, t)))
        .take(TRACED_WINDOWS as usize)
        .map(|(i, t)| s.layout.window(&s.pool, i, t).0)
        .collect();
    let n = windows.len() as u64;
    let d = &s.detector;
    let sanitized: Vec<FeatureVector> = windows
        .iter()
        .map(|w| match d.sanitizer().sanitize(w) {
            SanitizeOutcome::Clean(f) | SanitizeOutcome::Repaired { features: f, .. } => f,
            SanitizeOutcome::Unusable { .. } => {
                FeatureVector::from_slice(d.sanitizer().medians()).expect("full-width medians")
            }
        })
        .collect();
    let rows: Vec<f64> = sanitized
        .iter()
        .flat_map(|w| d.feature_indices().iter().map(move |&j| w.as_slice()[j]))
        .collect();
    let width = d.feature_indices().len();
    let compiled = d.compiled().ok_or("detector has no compiled form")?;
    for _ in 0..3 {
        tr.time("core.sanitize.sanitize", None, n, || {
            for w in &windows {
                std::hint::black_box(d.sanitizer().sanitize(w));
            }
        });
        tr.time("core.detector.classify_sanitized", None, n, || {
            for w in &windows {
                std::hint::black_box(d.classify_sanitized(w));
            }
        });
        tr.time("core.detector.classify", None, n, || {
            for w in &sanitized {
                std::hint::black_box(d.classify(w));
            }
        });
        tr.time("core.detector.suspicion", None, n, || {
            for w in &windows {
                std::hint::black_box(d.suspicion(w));
            }
        });
        tr.time("ml.compiled.predict", None, n, || {
            for row in rows.chunks_exact(width) {
                std::hint::black_box(compiled.predict(row));
            }
        });
        tr.time("ml.compiled.predict_batch", None, n, || {
            std::hint::black_box(compiled.predict_batch(RowsView::new(&rows, width)));
        });
    }
    let per = |name: &str| tr.per_op_ns(name);
    let observe_ns = per("core.online.observe");
    let suspicion_ns = if s.pristine.suspicion_threshold().is_some() {
        per("core.detector.suspicion")
    } else {
        0.0
    };
    let layers = [
        "core.online.observe",
        "obs.recorder.record",
        "core.fleet.health_record",
        "core.supervisor.breaker_record",
        "obs.metrics.incr",
    ];
    let window_ns = tr.total_ns("bench.window") as f64;
    let layer_ns: f64 = layers
        .iter()
        .map(|l| tr.self_times().get(l).map_or(0, |v| v.0) as f64)
        .sum();
    out.metric("core.online.observe_ns", observe_ns, "ns");
    out.metric(
        "core.online.vote_ns",
        observe_ns - per("core.detector.classify_sanitized") - suspicion_ns,
        "ns",
    );
    out.metric(
        "core.sanitize.sanitize_ns",
        per("core.sanitize.sanitize"),
        "ns",
    );
    out.metric(
        "core.detector.classify_sanitized_ns",
        per("core.detector.classify_sanitized"),
        "ns",
    );
    out.metric(
        "core.detector.classify_ns",
        per("core.detector.classify"),
        "ns",
    );
    out.metric("core.detector.suspicion_ns", suspicion_ns, "ns");
    out.metric("ml.compiled.predict_ns", per("ml.compiled.predict"), "ns");
    out.metric(
        "ml.compiled.predict_batch_ns",
        per("ml.compiled.predict_batch"),
        "ns",
    );
    let per_window =
        |name: &str| tr.self_times().get(name).map_or(0, |v| v.0) as f64 / TRACED_WINDOWS as f64;
    out.metric("obs.metrics.incr_ns", per_window("obs.metrics.incr"), "ns");
    out.metric(
        "obs.recorder.record_ns",
        per_window("obs.recorder.record"),
        "ns",
    );
    out.metric(
        "core.fleet.health_record_ns",
        per_window("core.fleet.health_record"),
        "ns",
    );
    out.metric(
        "core.supervisor.breaker_record_ns",
        per_window("core.supervisor.breaker_record"),
        "ns",
    );
    out.metric("bench.serve.layer_share", layer_ns / window_ns, "ratio");
    out.metric("bench.trace.windows_per_s", traced_wps, "1/s");
    out.metric("bench.trace.untraced_windows_per_s", untraced_wps, "1/s");
    out.metric(
        "bench.trace.overhead",
        1.0 - traced_wps / untraced_wps,
        "ratio",
    );
    eprintln!("perfbench: {} traced {rounds} rounds", flavor.name());
    Ok((digest, tally, 1))
}
