//! Observability substrate for the hbmd suite: hierarchical spans,
//! deterministic metrics, pluggable sinks, and run manifests.
//!
//! The DAC'17 detector is meant to run *continuously* on live HPC
//! streams; attributing a result to an exact configuration — which
//! events, windows, classifiers, and how long each phase took —
//! requires more than ad-hoc `eprintln!`. `hbmd-obs` provides that
//! visibility without disturbing the suite's determinism contract:
//!
//! * [`span!`] — hierarchical spans with monotonic timings
//!   (`span!("collect", samples = 42)`), nested through a thread-local
//!   stack and emitted to sinks on drop,
//! * [`metrics::Registry`] — typed [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s that aggregate with atomic integer arithmetic, so
//!   totals are **exact and thread-count-independent** no matter how
//!   `par_map` shards the work,
//! * [`sink::SpanSink`] — pluggable span consumers: none installed (the
//!   default, near-zero overhead), [`MemorySink`] for tests,
//!   [`JsonlSink`] for machine-readable event logs,
//! * [`manifest::RunManifest`] — a run's identity card: config digests,
//!   seeds, thread counts and crate versions, with wall-clock fields
//!   segregated so byte-identical-output tests can mask them,
//! * [`prom`] — Prometheus text-format (0.0.4) exposition over a
//!   metrics snapshot, and [`serve`] — a std-only HTTP server putting
//!   `/metrics`, `/healthz` and `/manifest` on a TCP port for
//!   long-running monitors,
//! * [`trace`] — post-hoc analysis of `JsonlSink` logs: span-tree
//!   reconstruction, per-span self time, aggregate-by-name tables,
//!   critical paths, and flamegraph collapsed-stack export,
//! * [`recorder`] — an always-on per-shard flight recorder
//!   ([`recorder::FlightRecorder`]): a lock-free fixed-capacity ring
//!   of compact window/health/fault events, drained into atomic
//!   FNV-checksummed diagnostic bundles by a [`recorder::RecorderHub`]
//!   when an anomaly (breaker trip, restart-budget exhaustion,
//!   snapshot refusal, `/debug/bundle`) triggers.
//!
//! # Determinism contract
//!
//! Counters and exact histograms record integer quantities derived only
//! from the workload (windows collected, faults injected, verdicts), so
//! their totals are identical at any thread count. Wall-clock data —
//! span durations and histograms registered via
//! [`timing`](metrics::Registry::timing) — is segregated:
//! [`MetricsSnapshot::deterministic`](metrics::MetricsSnapshot::deterministic)
//! strips it, leaving a fingerprint that byte-compares across runs and
//! thread counts.
//!
//! # Installing a context
//!
//! Instrumented code reports into the calling thread's [`Obs`]
//! context. A thread with nothing installed falls back to the process
//! default, which has a live [`Registry`] and no sinks. Harnesses swap
//! in their own with [`install`], which scopes the context to the
//! installing thread and returns a guard restoring the previous one on
//! drop. Code that fans work out to threads hands its context on with
//! [`inherit`], so a pipeline's counters land in the registry its
//! caller installed, and concurrent pipelines (parallel tests) cannot
//! contaminate each other.
//!
//! # Examples
//!
//! ```
//! use hbmd_obs::{install, sink::MemorySink, span, Obs};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let obs = Obs::new().with_sink(sink.clone());
//! let guard = install(obs);
//!
//! {
//!     let _outer = span!("collect", samples = 3);
//!     let _inner = span!("collect.sample", sample = 0);
//!     hbmd_obs::add("windows_collected", 3);
//! }
//!
//! let spans = sink.records();
//! assert_eq!(spans.len(), 2);
//! // Inner spans close first and carry their parent's id.
//! assert_eq!(spans[0].name, "collect.sample");
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! assert_eq!(guard.registry().snapshot().counter("windows_collected"), 3);
//! # drop(guard);
//! ```

pub mod health;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod prom;
pub mod recorder;
pub mod serve;
pub mod sink;
pub mod span;
pub mod trace;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use sink::{JsonlSink, MemorySink, SpanSink};
pub use span::{SpanGuard, SpanRecord};

/// An observability context: one metrics [`Registry`] plus the span
/// sinks events are dispatched to.
#[derive(Clone)]
pub struct Obs {
    registry: Arc<Registry>,
    sinks: Vec<Arc<dyn SpanSink>>,
}

impl Obs {
    /// A fresh context: empty registry, no sinks.
    pub fn new() -> Obs {
        Obs {
            registry: Arc::new(Registry::new()),
            sinks: Vec::new(),
        }
    }

    /// Attach a span sink (builder-style; a context can fan out to
    /// several).
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn SpanSink>) -> Obs {
        self.sinks.push(sink);
        self
    }

    /// The context's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// `true` when at least one span sink is attached.
    pub fn has_sinks(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Flush every attached sink (buffered sinks write through).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error any sink reports.
    pub fn flush(&self) -> std::io::Result<()> {
        for sink in &self.sinks {
            sink.flush()?;
        }
        Ok(())
    }

    fn dispatch(&self, record: &SpanRecord) {
        for sink in &self.sinks {
            sink.record(record);
        }
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

thread_local! {
    static SCOPED: RefCell<Option<Arc<Obs>>> = const { RefCell::new(None) };
}

fn process_default() -> &'static Arc<Obs> {
    static DEFAULT: OnceLock<Arc<Obs>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(Obs::new()))
}

/// The context instrumented code on this thread reports into: the one
/// [`install`]ed (or [inherited](Inherited::enter)) here, else the
/// process default.
pub fn current() -> Arc<Obs> {
    SCOPED
        .with(|scoped| scoped.borrow().clone())
        .unwrap_or_else(|| Arc::clone(process_default()))
}

/// Guard returned by [`install`]; dropping it restores the context
/// the installing thread had before. It is bound to that thread.
#[must_use = "dropping the guard immediately would uninstall the context"]
pub struct ObsGuard {
    installed: Arc<Obs>,
    previous: Option<Arc<Obs>>,
    _thread_bound: PhantomData<*const ()>,
}

impl ObsGuard {
    /// The context this guard installed.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.installed
    }

    /// The installed context's registry — shorthand for test
    /// assertions.
    pub fn registry(&self) -> &Arc<Registry> {
        self.installed.registry()
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        // `try_with`: a guard dropped while its thread exits finds the
        // slot already torn down, and a drop must not panic.
        let _ = SCOPED.try_with(|scoped| *scoped.borrow_mut() = previous);
    }
}

impl std::fmt::Debug for ObsGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsGuard").finish_non_exhaustive()
    }
}

/// Install `obs` as the calling thread's context, returning a guard
/// that restores the previous context on drop. Other threads are
/// unaffected unless they [`inherit`] it; installs nest.
pub fn install(obs: Obs) -> ObsGuard {
    let installed = Arc::new(obs);
    let previous = SCOPED.with(|scoped| scoped.replace(Some(Arc::clone(&installed))));
    ObsGuard {
        installed,
        previous,
        _thread_bound: PhantomData,
    }
}

/// The calling thread's context, captured for a thread it spawns.
#[derive(Clone, Debug)]
pub struct Inherited(Option<Arc<Obs>>);

/// Capture the calling thread's context; call
/// [`enter`](Inherited::enter) first thing in a spawned thread so the
/// work it does reports where its spawner's would.
pub fn inherit() -> Inherited {
    Inherited(SCOPED.with(|scoped| scoped.borrow().clone()))
}

impl Inherited {
    /// Make the captured context this thread's for the rest of its
    /// life (meant for freshly spawned threads).
    pub fn enter(self) {
        SCOPED.with(|scoped| *scoped.borrow_mut() = self.0);
    }
}

/// `true` when the current context has at least one span sink.
pub fn has_sinks() -> bool {
    current().has_sinks()
}

pub(crate) fn dispatch(record: &SpanRecord) {
    let obs = current();
    obs.dispatch(record);
}

/// Handle to the named counter in the current context's registry.
pub fn counter(name: &str) -> Arc<Counter> {
    current().registry.counter(name)
}

/// Handle to the named, labelled counter in the current context.
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    current().registry.counter_with(name, labels)
}

/// Add `n` to the named counter in the current context.
pub fn add(name: &str, n: u64) {
    counter(name).add(n);
}

/// Add one to the named counter in the current context.
pub fn incr(name: &str) {
    counter(name).add(1);
}

/// Set the named gauge in the current context.
pub fn gauge_set(name: &str, value: i64) {
    current().registry.gauge(name).set(value);
}

/// Record one exact (deterministic-domain) observation into the named
/// histogram of the current context.
pub fn observe(name: &str, value: u64) {
    current().registry.histogram(name).record(value);
}

/// Start a wall-clock timer that records its elapsed nanoseconds into
/// the named timing histogram when dropped (or [stopped](Timer::stop)).
pub fn timer(name: &str) -> Timer {
    Timer {
        histogram: current().registry.timing(name),
        started: std::time::Instant::now(),
        armed: true,
    }
}

/// [`timer`] with metric labels (e.g. `("scheme", "J48")`).
pub fn timer_with(name: &str, labels: &[(&str, &str)]) -> Timer {
    Timer {
        histogram: current().registry.timing_with(name, labels),
        started: std::time::Instant::now(),
        armed: true,
    }
}

/// Handle to the named, labelled timing histogram in the current
/// context — resolve once on a hot path, then start timers against it
/// with [`Timer::against`] so each measurement skips the label
/// allocation and registry lookup [`timer_with`] pays per call.
pub fn timing_with(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    current().registry.timing_with(name, labels)
}

/// A live wall-clock measurement; see [`timer`].
#[derive(Debug)]
pub struct Timer {
    histogram: Arc<Histogram>,
    started: std::time::Instant,
    armed: bool,
}

impl Timer {
    /// Start a timer against a pre-resolved histogram handle (see
    /// [`timing_with`]); records into it on drop or
    /// [`stop`](Timer::stop) exactly like [`timer`].
    pub fn against(histogram: Arc<Histogram>) -> Timer {
        Timer {
            histogram,
            started: std::time::Instant::now(),
            armed: true,
        }
    }

    /// Record the elapsed time now instead of at drop.
    pub fn stop(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.armed {
            self.armed = false;
            let nanos = self.started.elapsed().as_nanos();
            self.histogram.record(nanos.min(u64::MAX as u128) as u64);
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.record();
    }
}

/// Open a hierarchical span: `span!("name")` or
/// `span!("name", key = value, other = value)`.
///
/// Expands to a [`SpanGuard`] that must be bound
/// (`let _span = span!(...);`) — the span closes, and is emitted to the
/// installed sinks, when the guard drops. Field values may be integers,
/// floats, booleans, or anything `Into<String>`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span::enter(
            $name,
            ::std::vec![$((stringify!($key), $crate::span::FieldValue::from($value))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_counts_without_sinks() {
        let guard = install(Obs::new());
        assert!(!has_sinks());
        incr("lib.test.counter");
        add("lib.test.counter", 4);
        assert_eq!(guard.registry().snapshot().counter("lib.test.counter"), 5);
        drop(guard);
    }

    #[test]
    fn install_restores_previous_context() {
        let outer = install(Obs::new());
        incr("lib.outer");
        let inner = install(Obs::new());
        incr("lib.inner");
        assert_eq!(inner.registry().snapshot().counter("lib.outer"), 0);
        drop(inner);
        incr("lib.outer");
        let snapshot = outer.registry().snapshot();
        assert_eq!(snapshot.counter("lib.outer"), 2);
        assert_eq!(snapshot.counter("lib.inner"), 0);
        drop(outer);
    }

    #[test]
    fn installs_are_scoped_to_their_thread_unless_inherited() {
        let guard = install(Obs::new());
        let inherited = inherit();
        std::thread::scope(|scope| {
            scope.spawn(|| incr("lib.scoped.stranger"));
            scope.spawn(move || {
                inherited.enter();
                incr("lib.scoped.heir");
            });
        });
        let snapshot = guard.registry().snapshot();
        assert_eq!(snapshot.counter("lib.scoped.heir"), 1);
        assert_eq!(snapshot.counter("lib.scoped.stranger"), 0);
        drop(guard);
    }

    #[test]
    fn timer_records_into_wall_clock_histogram() {
        let guard = install(Obs::new());
        {
            let _t = timer("lib.test.latency_ns");
        }
        let snapshot = guard.registry().snapshot();
        let histogram = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "lib.test.latency_ns")
            .expect("timer histogram");
        assert!(histogram.wall_clock);
        assert_eq!(histogram.count, 1);
        // Wall-clock data is stripped from the deterministic view.
        assert!(snapshot
            .deterministic()
            .histograms
            .iter()
            .all(|h| h.name != "lib.test.latency_ns"));
        drop(guard);
    }
}
