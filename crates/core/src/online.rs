use std::collections::VecDeque;
use std::sync::Arc;

use hbmd_events::FeatureVector;
use hbmd_malware::AppClass;

use crate::detector::{Detector, Verdict};
use crate::error::CoreError;

/// Aggregated run-time decision after one more sampling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineVerdict {
    /// Not enough windows observed yet.
    Warmup,
    /// The window majority looks benign.
    Clean,
    /// The window majority flags malware (most-voted family in
    /// multiclass mode).
    Alarm {
        /// Most-voted family among the malicious windows.
        family: AppClass,
        /// Malicious windows in the current window.
        votes: usize,
        /// Window size.
        of: usize,
    },
}

/// Sliding-window majority voting over per-window verdicts — the
/// run-time decision layer the related work (Demme et al., Ozsoy et
/// al.) puts on top of per-sample classification, smoothing the noisy
/// 10 ms verdict stream into a stable alarm signal.
///
/// Windows are screened through the detector's sanitised path: a
/// corrupted-but-repairable window is imputed before voting, while an
/// unsalvageable one [abstains](Verdict::Abstain) — it occupies a
/// history slot but votes neither way, so a burst of counter faults
/// cannot manufacture (or suppress) an alarm on its own. Optional
/// [hysteresis](OnlineDetectorBuilder::hysteresis) additionally
/// requires sustained evidence before raising or clearing the alarm,
/// preventing transient faults from flapping it.
///
/// The monitor reports into the installed [`hbmd_obs`] context: alarm
/// raise/clear transitions as `online.alarms_raised` /
/// `online.alarms_cleared` counters, every fed window as
/// `online.windows_observed`, per-call wall latency as the
/// `online.observe_ns` timing histogram, and the vote margin of each
/// alarm decision as the exact `online.alarm_votes` histogram. With a
/// [suspicion threshold](OnlineDetectorBuilder::suspicion_threshold)
/// armed, every window whose committee dispersion reaches it counts
/// into `online.disagreement_trips`.
///
/// # Examples
///
/// ```
/// use hbmd_core::{ClassifierKind, DetectorBuilder, OnlineDetector, OnlineVerdict};
/// use hbmd_malware::SampleCatalog;
/// use hbmd_perf::{Collector, CollectorConfig};
///
/// let catalog = SampleCatalog::scaled(0.02, 3);
/// let dataset = Collector::new(CollectorConfig::fast())?.collect(&catalog)?.dataset;
/// let detector = DetectorBuilder::new()
///     .classifier(ClassifierKind::J48)
///     .train_binary(&dataset)?;
///
/// let mut online = OnlineDetector::builder(detector)
///     .window(4)
///     .threshold(3)
///     .build()?;
/// for row in dataset.rows().iter().take(3) {
///     assert_eq!(online.observe(&row.features), OnlineVerdict::Warmup);
/// }
/// # Ok::<(), hbmd_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineDetector {
    detector: Arc<Detector>,
    state: StreamState,
}

/// The per-stream half of an online monitor: the vote-window ring,
/// hysteresis counters, and latched alarm — everything that mutates as
/// windows arrive, with the (expensive, immutable) trained
/// [`Detector`] factored out so a fleet of thousands of streams can
/// share one model behind an [`Arc`].
///
/// A [`StreamState`] is fed through
/// [`observe`](StreamState::observe), which borrows the shared
/// detector per call; [`OnlineDetector`] is the single-stream
/// convenience wrapper that pairs one `StreamState` with its detector.
#[derive(Debug, Clone)]
pub struct StreamState {
    window: usize,
    threshold: usize,
    history: VecDeque<Verdict>,
    /// Consecutive over-threshold decisions required to raise the
    /// alarm (1 = raise immediately, the pre-hysteresis behaviour).
    raise_after: usize,
    /// Consecutive clean decisions required to clear a raised alarm
    /// (1 = clear immediately).
    clear_after: usize,
    alarm_streak: usize,
    clean_streak: usize,
    /// Latched alarm: `(family, votes)` at (or since) raise time.
    latched: Option<(AppClass, usize)>,
    /// Ensemble-disagreement alarm: flag any window whose committee
    /// vote dispersion reaches this threshold (`None` disarms — the
    /// pre-adversarial behaviour, and the only option for single-model
    /// schemes, which report no dispersion).
    suspicion_threshold: Option<f64>,
    /// The committee dispersion of the most recent window when it
    /// tripped the disagreement alarm (transient, like the derived
    /// caches — not snapshotted).
    last_suspicion: Option<f64>,
}

/// Builder for [`OnlineDetector`]: voting window, alarm threshold, and
/// optional hysteresis, validated at [`OnlineDetectorBuilder::build`]
/// time instead of panicking.
///
/// Defaults match the latency experiment's reference setup: a window of
/// 4 verdicts, 3 malicious votes to alarm, no hysteresis.
#[derive(Debug, Clone)]
pub struct OnlineDetectorBuilder {
    detector: Arc<Detector>,
    window: usize,
    threshold: usize,
    raise_after: usize,
    clear_after: usize,
    suspicion_threshold: Option<f64>,
}

impl OnlineDetectorBuilder {
    /// Start from a trained detector with the default window/threshold.
    pub fn new(detector: Detector) -> OnlineDetectorBuilder {
        OnlineDetectorBuilder::shared(Arc::new(detector))
    }

    /// Start from an already-shared detector — the fleet path, where
    /// thousands of monitors vote against one immutably-held model.
    pub fn shared(detector: Arc<Detector>) -> OnlineDetectorBuilder {
        OnlineDetectorBuilder {
            detector,
            window: 4,
            threshold: 3,
            raise_after: 1,
            clear_after: 1,
            suspicion_threshold: None,
        }
    }

    /// Number of recent verdicts voted over.
    pub fn window(mut self, window: usize) -> OnlineDetectorBuilder {
        self.window = window;
        self
    }

    /// Malicious votes (within the window) required to alarm.
    pub fn threshold(mut self, threshold: usize) -> OnlineDetectorBuilder {
        self.threshold = threshold;
        self
    }

    /// Alarm hysteresis: raise only after `raise_after` consecutive
    /// over-threshold decisions; once raised, clear only after
    /// `clear_after` consecutive clean decisions. `(1, 1)` (the
    /// default) is the plain majority-vote behaviour.
    pub fn hysteresis(mut self, raise_after: usize, clear_after: usize) -> OnlineDetectorBuilder {
        self.raise_after = raise_after;
        self.clear_after = clear_after;
        self
    }

    /// Arm the ensemble-disagreement alarm: flag any window whose
    /// committee vote dispersion ([`Detector::suspicion`]) reaches
    /// `threshold`. Disarmed by default. Only committee schemes
    /// (RandomForest / Bagging / AdaBoost) produce the signal —
    /// single-model detectors never trip it.
    pub fn suspicion_threshold(mut self, threshold: f64) -> OnlineDetectorBuilder {
        self.suspicion_threshold = Some(threshold);
        self
    }

    /// Validate and build the monitor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the window is zero, the
    /// threshold exceeds the window, or either hysteresis count is
    /// zero.
    pub fn build(self) -> Result<OnlineDetector, CoreError> {
        if self.window == 0 {
            return Err(CoreError::Config("window must be non-zero".to_owned()));
        }
        if self.threshold > self.window {
            return Err(CoreError::Config(format!(
                "threshold {} cannot exceed the window {}",
                self.threshold, self.window
            )));
        }
        if self.raise_after == 0 || self.clear_after == 0 {
            return Err(CoreError::Config(
                "hysteresis counts must be non-zero".to_owned(),
            ));
        }
        if let Some(t) = self.suspicion_threshold {
            if !(t.is_finite() && t > 0.0 && t <= 1.0) {
                return Err(CoreError::Config(format!(
                    "suspicion threshold {t} is outside (0, 1]"
                )));
            }
        }
        Ok(OnlineDetector {
            detector: self.detector,
            state: StreamState {
                window: self.window,
                threshold: self.threshold,
                history: VecDeque::with_capacity(self.window),
                raise_after: self.raise_after,
                clear_after: self.clear_after,
                alarm_streak: 0,
                clean_streak: 0,
                latched: None,
                suspicion_threshold: self.suspicion_threshold,
                last_suspicion: None,
            },
        })
    }

    /// Build just the per-stream state (no detector attached) — the
    /// fleet path, where one [`StreamState`] is minted per monitored
    /// endpoint and the detector is borrowed at observe time.
    ///
    /// # Errors
    ///
    /// Same validation as [`build`](OnlineDetectorBuilder::build).
    pub fn build_stream(self) -> Result<StreamState, CoreError> {
        Ok(self.build()?.state)
    }
}

impl OnlineDetector {
    /// Start building a monitor around a trained detector.
    pub fn builder(detector: Detector) -> OnlineDetectorBuilder {
        OnlineDetectorBuilder::new(detector)
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// A cheap handle to the shared detector — clone this to mint
    /// further per-stream states against the same model.
    pub fn shared_detector(&self) -> Arc<Detector> {
        Arc::clone(&self.detector)
    }

    /// The per-stream half of the monitor.
    pub fn state(&self) -> &StreamState {
        &self.state
    }

    /// Split into the shared detector and the per-stream state.
    pub fn into_parts(self) -> (Arc<Detector>, StreamState) {
        (self.detector, self.state)
    }

    /// Reassemble a monitor from a shared detector and a stream state
    /// (the inverse of [`into_parts`](Self::into_parts)).
    pub fn from_parts(detector: Arc<Detector>, state: StreamState) -> OnlineDetector {
        OnlineDetector { detector, state }
    }

    /// Abstaining verdicts currently in the voting window.
    pub fn abstentions(&self) -> usize {
        self.state.abstentions()
    }

    /// `true` when the most recently observed window abstained —
    /// the per-window fault signal supervision layers feed into a
    /// circuit breaker (unlike [`abstentions`](Self::abstentions),
    /// this does not saturate once the voting window fills up).
    pub fn last_window_abstained(&self) -> bool {
        self.state.last_window_abstained()
    }

    /// `true` when the most recently observed window tripped the
    /// ensemble-disagreement alarm — the evasion-attempt signal
    /// supervision layers feed into the flight recorder. Always `false`
    /// while no [suspicion
    /// threshold](OnlineDetectorBuilder::suspicion_threshold) is armed.
    pub fn last_window_suspicious(&self) -> bool {
        self.state.last_window_suspicion().is_some()
    }

    /// Feed one sampling window; returns the aggregated decision.
    pub fn observe(&mut self, window: &FeatureVector) -> OnlineVerdict {
        self.state.observe(&self.detector, window)
    }

    /// The current aggregated decision without feeding a new window:
    /// the latched alarm while hysteresis holds it, otherwise the raw
    /// majority vote (suppressed until `raise_after` is met).
    pub fn decision(&self) -> OnlineVerdict {
        self.state.decision()
    }

    /// Drop all observed history and any latched alarm (e.g. on a
    /// process switch).
    pub fn reset(&mut self) {
        self.state.reset();
    }
}

impl StreamState {
    /// A fresh stream state with validated voting/hysteresis shape —
    /// the same checks [`OnlineDetectorBuilder::build`] applies.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the window is zero, the
    /// threshold exceeds the window, or either hysteresis count is
    /// zero.
    pub fn new(
        window: usize,
        threshold: usize,
        raise_after: usize,
        clear_after: usize,
    ) -> Result<StreamState, CoreError> {
        if window == 0 {
            return Err(CoreError::Config("window must be non-zero".to_owned()));
        }
        if threshold > window {
            return Err(CoreError::Config(format!(
                "threshold {threshold} cannot exceed the window {window}"
            )));
        }
        if raise_after == 0 || clear_after == 0 {
            return Err(CoreError::Config(
                "hysteresis counts must be non-zero".to_owned(),
            ));
        }
        Ok(StreamState {
            window,
            threshold,
            history: VecDeque::with_capacity(window),
            raise_after,
            clear_after,
            alarm_streak: 0,
            clean_streak: 0,
            latched: None,
            suspicion_threshold: None,
            last_suspicion: None,
        })
    }

    /// Arm the ensemble-disagreement alarm on this stream (see
    /// [`OnlineDetectorBuilder::suspicion_threshold`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when `threshold` is outside
    /// `(0, 1]`.
    pub fn with_suspicion_threshold(mut self, threshold: f64) -> Result<StreamState, CoreError> {
        if !(threshold.is_finite() && threshold > 0.0 && threshold <= 1.0) {
            return Err(CoreError::Config(format!(
                "suspicion threshold {threshold} is outside (0, 1]"
            )));
        }
        self.suspicion_threshold = Some(threshold);
        Ok(self)
    }

    /// The voting-window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Abstaining verdicts currently in the voting window.
    pub fn abstentions(&self) -> usize {
        self.history.iter().filter(|v| v.is_abstain()).count()
    }

    /// `true` when the most recently observed window abstained.
    pub fn last_window_abstained(&self) -> bool {
        self.history.back().is_some_and(|v| v.is_abstain())
    }

    /// The committee dispersion of the most recently observed window
    /// when it tripped the ensemble-disagreement alarm, else `None`.
    pub fn last_window_suspicion(&self) -> Option<f64> {
        self.last_suspicion
    }

    /// The armed disagreement threshold, if any.
    pub fn suspicion_threshold(&self) -> Option<f64> {
        self.suspicion_threshold
    }

    /// Feed one sampling window through `detector`; returns the
    /// aggregated decision for this stream.
    pub fn observe(&mut self, detector: &Detector, window: &FeatureVector) -> OnlineVerdict {
        let _latency = hbmd_obs::timer("online.observe_ns");
        hbmd_obs::incr("online.windows_observed");
        self.last_suspicion = None;
        if let Some(limit) = self.suspicion_threshold {
            if let Some(dispersion) = detector.suspicion(window) {
                if dispersion >= limit {
                    self.last_suspicion = Some(dispersion);
                    hbmd_obs::incr("online.disagreement_trips");
                }
            }
        }
        let verdict = detector.classify_sanitized(window);
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(verdict);
        let was_latched = self.latched.is_some();

        match self.raw_decision() {
            OnlineVerdict::Alarm { family, votes, .. } => {
                self.alarm_streak += 1;
                self.clean_streak = 0;
                if self.alarm_streak >= self.raise_after || self.latched.is_some() {
                    // Raise, or refresh an already-raised alarm with the
                    // latest evidence.
                    self.latched = Some((family, votes));
                }
            }
            OnlineVerdict::Clean => {
                self.clean_streak += 1;
                self.alarm_streak = 0;
                if self.clean_streak >= self.clear_after {
                    self.latched = None;
                }
            }
            OnlineVerdict::Warmup => {}
        }
        // Count latch *transitions* (the hysteresis state machine's
        // edges), not alarm decisions — a held alarm is one raise.
        if self.latched.is_some() && !was_latched {
            hbmd_obs::incr("online.alarms_raised");
        } else if was_latched && self.latched.is_none() {
            hbmd_obs::incr("online.alarms_cleared");
        }
        let decision = self.decision();
        if let OnlineVerdict::Alarm { votes, .. } = decision {
            // Exact (deterministic-domain) histogram: how much of the
            // window agreed each time an alarm decision was returned.
            hbmd_obs::observe("online.alarm_votes", votes as u64);
        }
        decision
    }

    /// The current aggregated decision without feeding a new window:
    /// the latched alarm while hysteresis holds it, otherwise the raw
    /// majority vote (suppressed until `raise_after` is met).
    pub fn decision(&self) -> OnlineVerdict {
        if self.history.len() < self.window {
            return OnlineVerdict::Warmup;
        }
        if let Some((family, votes)) = self.latched {
            return OnlineVerdict::Alarm {
                family,
                votes,
                of: self.window,
            };
        }
        match self.raw_decision() {
            OnlineVerdict::Alarm { .. } if self.alarm_streak < self.raise_after => {
                OnlineVerdict::Clean
            }
            decision => decision,
        }
    }

    /// The un-hysteresised majority vote over the current history.
    /// Abstaining windows occupy history slots but vote neither way.
    fn raw_decision(&self) -> OnlineVerdict {
        if self.history.len() < self.window {
            return OnlineVerdict::Warmup;
        }
        let mut family_votes = [0usize; AppClass::COUNT];
        let mut malicious = 0usize;
        for verdict in &self.history {
            if let Verdict::Malware(family) = verdict {
                malicious += 1;
                family_votes[family.index()] += 1;
            }
        }
        if malicious >= self.threshold {
            // Most-voted family; ties resolve deterministically to the
            // lowest class index (the reversed iterator makes
            // `max_by_key`, which keeps the *last* maximum, land on the
            // first index among equals).
            let family = family_votes
                .iter()
                .enumerate()
                .rev()
                .max_by_key(|&(_, &v)| v)
                .map(|(i, _)| AppClass::from_index(i).expect("vote index is a class"))
                .expect("family_votes is non-empty");
            OnlineVerdict::Alarm {
                family,
                votes: malicious,
                of: self.window,
            }
        } else {
            OnlineVerdict::Clean
        }
    }

    /// Drop all observed history and any latched alarm (e.g. on a
    /// process switch).
    pub fn reset(&mut self) {
        self.history.clear();
        self.alarm_streak = 0;
        self.clean_streak = 0;
        self.latched = None;
        self.last_suspicion = None;
    }
}

use hbmd_ml::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// A stream's vote/hysteresis state as it is written into each stream
/// section of a fleet snapshot, ending with the v2 disagreement-alarm
/// tail.
impl Snap for StreamState {
    fn snap(&self, w: &mut SnapWriter) {
        self.window.snap(w);
        self.threshold.snap(w);
        w.put_usize(self.history.len());
        for verdict in &self.history {
            verdict.snap(w);
        }
        self.raise_after.snap(w);
        self.clear_after.snap(w);
        self.alarm_streak.snap(w);
        self.clean_streak.snap(w);
        match &self.latched {
            None => w.put_u8(0),
            Some((family, votes)) => {
                w.put_u8(1);
                w.put_u8(family.index() as u8);
                votes.snap(w);
            }
        }
        // v2 tail: the disagreement-alarm arm state. `last_suspicion`
        // is transient and rebuilt at the next observe, not encoded.
        match self.suspicion_threshold {
            None => w.put_u8(0),
            Some(t) => {
                w.put_u8(1);
                t.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let window: usize = Snap::unsnap(r)?;
        let threshold: usize = Snap::unsnap(r)?;
        if window == 0 || threshold == 0 || threshold > window {
            return Err(SnapError::Invalid(format!(
                "online detector window/threshold {window}/{threshold}"
            )));
        }
        let history_len = r.get_seq_len(1)?;
        if history_len > window {
            return Err(SnapError::Invalid(format!(
                "history length {history_len} exceeds window {window}"
            )));
        }
        let mut history = VecDeque::with_capacity(window);
        for _ in 0..history_len {
            history.push_back(Verdict::unsnap(r)?);
        }
        let raise_after: usize = Snap::unsnap(r)?;
        let clear_after: usize = Snap::unsnap(r)?;
        if raise_after == 0 || clear_after == 0 {
            return Err(SnapError::Invalid(
                "hysteresis thresholds must be non-zero".to_owned(),
            ));
        }
        let alarm_streak: usize = Snap::unsnap(r)?;
        let clean_streak: usize = Snap::unsnap(r)?;
        let latched = match r.get_u8()? {
            0 => None,
            1 => {
                let index = usize::from(r.get_u8()?);
                let family = AppClass::from_index(index)
                    .ok_or_else(|| SnapError::Invalid(format!("AppClass index {index}")))?;
                Some((family, Snap::unsnap(r)?))
            }
            other => return Err(SnapError::Invalid(format!("latch tag {other}"))),
        };
        let suspicion_threshold = match r.get_u8()? {
            0 => None,
            1 => {
                let t: f64 = Snap::unsnap(r)?;
                if !(t.is_finite() && t > 0.0 && t <= 1.0) {
                    return Err(SnapError::Invalid(format!(
                        "suspicion threshold {t} is outside (0, 1]"
                    )));
                }
                Some(t)
            }
            other => return Err(SnapError::Invalid(format!("suspicion tag {other}"))),
        };
        Ok(StreamState {
            window,
            threshold,
            history,
            raise_after,
            clear_after,
            alarm_streak,
            clean_streak,
            latched,
            suspicion_threshold,
            last_suspicion: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorBuilder;
    use crate::suite::ClassifierKind;
    use hbmd_malware::{Sample, SampleCatalog, SampleId};
    use hbmd_perf::{Collector, CollectorConfig, Sampler, SamplerConfig};

    fn trained() -> Detector {
        let catalog = SampleCatalog::scaled(0.03, 17);
        let dataset = Collector::new(CollectorConfig::fast())
            .expect("config")
            .collect(&catalog)
            .expect("collect")
            .dataset;
        DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .train_binary(&dataset)
            .expect("train")
    }

    #[test]
    fn warmup_then_decision() {
        let mut online = OnlineDetector::builder(trained())
            .window(3)
            .threshold(2)
            .build()
            .expect("valid monitor");
        let sampler = Sampler::new(SamplerConfig::fast()).expect("sampler");
        let worm = Sample::generate(SampleId(900), hbmd_malware::AppClass::Worm, 23);
        let windows = sampler.collect_sample(&worm);
        assert_eq!(online.observe(&windows[0]), OnlineVerdict::Warmup);
        assert_eq!(online.observe(&windows[1]), OnlineVerdict::Warmup);
        let decided = online.observe(&windows[2]);
        assert_ne!(decided, OnlineVerdict::Warmup);
    }

    #[test]
    fn sustained_malware_raises_an_alarm() {
        let mut online = OnlineDetector::builder(trained())
            .window(4)
            .threshold(3)
            .build()
            .expect("valid monitor");
        let sampler = Sampler::new(SamplerConfig {
            windows_per_sample: 12,
            ..SamplerConfig::fast()
        })
        .expect("sampler");
        let worm = Sample::generate(SampleId(901), hbmd_malware::AppClass::Worm, 29);
        let mut alarms = 0;
        for window in sampler.collect_sample(&worm) {
            if matches!(online.observe(&window), OnlineVerdict::Alarm { .. }) {
                alarms += 1;
            }
        }
        assert!(alarms > 0, "a worm under sustained observation must trip");
    }

    #[test]
    fn benign_stream_stays_clean_mostly() {
        let mut online = OnlineDetector::builder(trained())
            .window(4)
            .threshold(4)
            .build()
            .expect("valid monitor");
        let sampler = Sampler::new(SamplerConfig {
            windows_per_sample: 12,
            ..SamplerConfig::fast()
        })
        .expect("sampler");
        let benign = Sample::generate(SampleId(902), hbmd_malware::AppClass::Benign, 31);
        let alarms = sampler
            .collect_sample(&benign)
            .iter()
            .filter(|w| matches!(online.observe(w), OnlineVerdict::Alarm { .. }))
            .count();
        assert!(alarms <= 2, "benign stream raised {alarms} alarms");
    }

    #[test]
    fn reset_returns_to_warmup() {
        let mut online = OnlineDetector::builder(trained())
            .window(2)
            .threshold(1)
            .build()
            .expect("valid monitor");
        let sampler = Sampler::new(SamplerConfig::fast()).expect("sampler");
        let sample = Sample::generate(SampleId(903), hbmd_malware::AppClass::Virus, 37);
        let windows = sampler.collect_sample(&sample);
        online.observe(&windows[0]);
        online.observe(&windows[1]);
        assert_ne!(online.decision(), OnlineVerdict::Warmup);
        online.reset();
        assert_eq!(online.decision(), OnlineVerdict::Warmup);
    }

    #[test]
    fn builder_rejects_bad_shapes() {
        assert!(OnlineDetector::builder(trained())
            .window(0)
            .build()
            .is_err());
        assert!(OnlineDetector::builder(trained())
            .window(2)
            .threshold(3)
            .build()
            .is_err());
        assert!(OnlineDetector::builder(trained())
            .hysteresis(0, 1)
            .build()
            .is_err());
    }

    #[test]
    fn corrupted_windows_abstain_instead_of_voting() {
        use hbmd_events::{FeatureVector, HpcEvent};
        // Threshold 2 of 4: even if garbage windows were guessed
        // malicious they would trip the alarm; abstention must not.
        let mut online = OnlineDetector::builder(trained())
            .window(4)
            .threshold(2)
            .build()
            .expect("valid monitor");
        let garbage = FeatureVector::from_slice(&[f64::NAN; HpcEvent::COUNT]).expect("16");
        for _ in 0..8 {
            let decision = online.observe(&garbage);
            assert!(
                !matches!(decision, OnlineVerdict::Alarm { .. }),
                "an all-corrupt stream must never alarm"
            );
        }
        assert_eq!(online.abstentions(), 4, "the whole window abstains");
    }

    #[test]
    fn hysteresis_latches_and_clears_deliberately() {
        let detector = trained();
        let sampler = Sampler::new(SamplerConfig {
            windows_per_sample: 16,
            ..SamplerConfig::fast()
        })
        .expect("sampler");
        let worm = Sample::generate(SampleId(905), hbmd_malware::AppClass::Worm, 41);
        let benign = Sample::generate(SampleId(906), hbmd_malware::AppClass::Benign, 43);
        let worm_windows = sampler.collect_sample(&worm);
        let benign_windows = sampler.collect_sample(&benign);

        // raise_after 2: a single over-threshold decision is suppressed.
        let mut online = OnlineDetector::builder(detector.clone())
            .window(2)
            .threshold(1)
            .hysteresis(2, 3)
            .build()
            .expect("valid monitor");
        let mut first_alarm_at = None;
        let mut raw_alarms = 0;
        for (i, window) in worm_windows.iter().enumerate() {
            let decision = online.observe(window);
            if matches!(decision, OnlineVerdict::Alarm { .. }) {
                first_alarm_at.get_or_insert(i);
                raw_alarms += 1;
            }
        }
        assert!(raw_alarms > 0, "sustained worm activity must still alarm");
        // The first alarm needs window fill (2) plus the raise streak
        // (2), so it cannot fire before the 3rd window (index 2).
        assert!(first_alarm_at.expect("alarmed") >= 2);

        // clear_after 3: once latched, two clean decisions don't clear.
        let mut cleared_at = None;
        for (i, window) in benign_windows.iter().enumerate() {
            if matches!(online.observe(window), OnlineVerdict::Clean) {
                cleared_at.get_or_insert(i);
                break;
            }
        }
        if let Some(i) = cleared_at {
            assert!(i >= 2, "latched alarm cleared after only {} windows", i + 1);
        }

        online.reset();
        assert_eq!(online.decision(), OnlineVerdict::Warmup);
        assert_eq!(online.abstentions(), 0);
    }

    #[test]
    fn suspicion_threshold_trips_only_for_committees() {
        use hbmd_ml::snap::Snap;
        let catalog = SampleCatalog::scaled(0.03, 17);
        let dataset = Collector::new(CollectorConfig::fast())
            .expect("config")
            .collect(&catalog)
            .expect("collect")
            .dataset;

        // A single-tree detector never produces the signal.
        let mut tree = OnlineDetector::builder(trained())
            .suspicion_threshold(0.1)
            .build()
            .expect("valid monitor");
        for row in dataset.rows().iter().take(20) {
            tree.observe(&row.features);
            assert!(!tree.last_window_suspicious(), "trees have no committee");
        }

        // A forest with an absurdly low threshold trips on real data.
        let forest = DetectorBuilder::new()
            .classifier(ClassifierKind::RandomForest)
            .train_binary(&dataset)
            .expect("train");
        let mut online = OnlineDetector::builder(forest)
            .suspicion_threshold(0.01)
            .build()
            .expect("valid monitor");
        let mut trips = 0;
        for row in dataset.rows().iter().take(60) {
            online.observe(&row.features);
            trips += usize::from(online.last_window_suspicious());
        }
        assert!(trips > 0, "no window reached dispersion 0.01 in 60");

        // The armed threshold survives a snapshot roundtrip.
        let mut w = hbmd_ml::snap::SnapWriter::new();
        online.state().snap(&mut w);
        let bytes = w.into_bytes();
        let restored =
            StreamState::unsnap(&mut hbmd_ml::snap::SnapReader::new(&bytes)).expect("roundtrip");
        assert_eq!(restored.suspicion_threshold(), Some(0.01));

        // Out-of-range thresholds are rejected.
        assert!(OnlineDetector::builder(trained())
            .suspicion_threshold(0.0)
            .build()
            .is_err());
        assert!(OnlineDetector::builder(trained())
            .suspicion_threshold(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn family_ties_resolve_to_lowest_class_index() {
        // Exercised indirectly through decision(): build a history with
        // a deliberate 2-2 family tie via the multiclass detector is
        // nondeterministic, so test the invariant over many streams —
        // repeated runs must agree exactly.
        let detector = trained();
        let sampler = Sampler::new(SamplerConfig::fast()).expect("sampler");
        let sample = Sample::generate(SampleId(907), hbmd_malware::AppClass::Rootkit, 47);
        let windows = sampler.collect_sample(&sample);
        let run = || {
            let mut online = OnlineDetector::builder(detector.clone())
                .window(3)
                .threshold(1)
                .build()
                .expect("valid monitor");
            windows
                .iter()
                .map(|w| online.observe(w))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "decision stream must be deterministic");
    }
}
