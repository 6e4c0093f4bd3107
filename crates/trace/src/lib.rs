//! Structured protocol event tracing for the G-TSC simulator.
//!
//! Aggregate counters ([`gtsc_types::SimStats`]) say what a run did;
//! this crate records *how*: the lease grants, renewals, expiries,
//! future-scheduled writes, and rollovers of the logical-time machinery.
//! [`EventKind`] is the one fact vocabulary: every component reports each
//! transition once, through its [`Probe`], and the probe feeds three
//! sinks —
//!
//! * its [`Tracer`]: a bounded flight-recorder ring (dumped into stall
//!   diagnoses and checker violation reports) plus, in full mode, the
//!   in-order log the exporters ([`to_chrome_trace`], [`to_lines`]) and
//!   the `trace_report` binary read;
//! * the shared [`RuleMachine`] of the [`Sanitizer`], which judges the
//!   invariant catalog ([`rules`]) on the live stream — the same machine
//!   `gtsc_check::lint_events` runs over a recorded one;
//! * the [`SpanTracker`] of sampled request spans.
//!
//! An [`IntervalSampler`] turns cumulative stats into a time-series
//! beside them. Everything is configured through
//! [`gtsc_types::TraceConfig`] and `GpuConfig::sanitize`, and is off by
//! default: a disabled probe is one null word, and [`Probe::emit`]
//! compiles to a single predicted-not-taken branch — the event payload is
//! never even built.
//!
//! # Examples
//!
//! ```
//! use gtsc_trace::{EventKind, LeaseOp, Probe, Sanitizer, Scope, SpanTracker};
//! use gtsc_types::{BlockAddr, Cycle, TraceConfig};
//!
//! let rules = Sanitizer::enabled(Scope::Sm(0));
//! let spans = SpanTracker::disabled();
//! let mut p = Probe::new(Scope::L2Bank(0), &TraceConfig::flight(), &rules, &spans);
//! let (op, block) = (LeaseOp::Grant, BlockAddr(1));
//! p.emit(Cycle(5), || EventKind::Lease { op, block, wts: 0, rts: 10, epoch: 0 });
//! assert_eq!(p.flight_tail().len(), 1); // recorded
//! assert_eq!(rules.checked(), 1); // and judged
//! ```

pub mod event;
pub mod export;
pub mod recorder;
pub mod rules;
pub mod sampler;
pub mod sanitize;
pub mod span;

pub use event::{EventClass, EventKind, LeaseOp, Scope, TraceEvent};
pub use export::{json_escape, to_chrome_trace, to_lines};
pub use recorder::FlightRecorder;
pub use rules::{Fed, Finding, Report, Rule, RuleMachine, Severity, MAX_FINDINGS, RULES};
pub use sampler::{IntervalSample, IntervalSampler};
pub use sanitize::{Sanitizer, Transition};
pub use span::{CloseReason, Hop, HopKind, ServeClass, SpanRecord, SpanTracker};

use gtsc_types::{Cycle, TraceConfig, TraceMode};

/// One component's observation handle: where it reports every event
/// ([`Probe::emit`]) and span hop ([`Probe::spans`]). The probe fans an
/// event out to its recorder and its rule sink; span calls go to the
/// shared [`SpanTracker`].
///
/// The default probe is disabled: one null word in the component, and
/// each call one predicted-not-taken branch that never runs its payload
/// closure. The simulator builds an enabled one per component
/// ([`Probe::new`]) when tracing, sanitizing or span sampling is on.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    sinks: Option<Box<Sinks>>,
}

#[derive(Debug, Clone)]
struct Sinks {
    recorder: Tracer,
    rules: Sanitizer,
    spans: SpanTracker,
    /// Whether an event has anywhere to go (recorder or rules enabled):
    /// a probe kept only for its spans builds no events.
    emits: bool,
}

impl Sinks {
    /// The fan-out, kept out of line so [`Probe::emit`] stays a bare
    /// branch at every call site.
    #[cold]
    #[inline(never)]
    fn emit(&mut self, cycle: Cycle, kind: EventKind) {
        self.recorder.record(cycle, kind);
        self.rules.check_with(cycle, || kind);
    }
}

impl Probe {
    /// A probe with no sink (the hot-path default).
    #[must_use]
    pub fn disabled() -> Self {
        Probe { sinks: None }
    }

    /// The probe of the component `scope`: a recorder configured by
    /// `trace`, a handle on the shared rule machine behind `rules`, and a
    /// clone of `spans` — disabled when all three are.
    #[must_use]
    pub fn new(scope: Scope, trace: &TraceConfig, rules: &Sanitizer, spans: &SpanTracker) -> Self {
        let recorder = Tracer::new(scope, trace);
        let emits = recorder.is_enabled() || rules.is_enabled();
        if !emits && !spans.is_enabled() {
            return Probe::disabled();
        }
        Probe {
            sinks: Some(Box::new(Sinks {
                recorder,
                rules: rules.for_scope(scope),
                spans: spans.clone(),
                emits,
            })),
        }
    }

    /// A probe whose one sink is a recorder configured by `trace`
    /// (components that feed no rule and no span).
    #[must_use]
    pub fn recording(scope: Scope, trace: &TraceConfig) -> Self {
        Probe::new(
            scope,
            trace,
            &Sanitizer::disabled(),
            &SpanTracker::disabled(),
        )
    }

    /// Whether events are being recorded (an SM that records its
    /// per-warp stalls must scan every cycle). Asked on every SM cycle.
    #[must_use]
    #[inline]
    pub fn is_recording(&self) -> bool {
        (self.sinks.as_deref()).is_some_and(|s| s.recorder.is_enabled())
    }

    /// Reports the event built by `kind` to the recorder and the rule
    /// sink; `kind` runs only when one of them is enabled. This is the
    /// per-access hot-path hook: a disabled probe pays one null check.
    #[inline]
    pub fn emit(&mut self, cycle: Cycle, kind: impl FnOnce() -> EventKind) {
        if let Some(sinks) = self.sinks.as_deref_mut() {
            if sinks.emits {
                sinks.emit(cycle, kind());
            }
        }
    }

    /// Runs `f` against the span tracker; `f` never runs on a disabled
    /// probe.
    #[inline]
    pub fn spans(&self, f: impl FnOnce(&SpanTracker)) {
        if let Some(sinks) = self.sinks.as_deref() {
            f(&sinks.spans);
        }
    }

    /// The recorder's flight-recorder tail (oldest first).
    #[must_use]
    pub fn flight_tail(&self) -> Vec<TraceEvent> {
        (self.sinks.as_deref()).map_or_else(Vec::new, |s| s.recorder.flight_tail())
    }

    /// The recorder's full in-order log (empty unless
    /// [`TraceMode::Full`]).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        (self.sinks.as_deref()).map_or(&[], |s| s.recorder.events())
    }
}

/// A probe's recorder: a mode, conjunctive filters, a flight-recorder
/// ring, and (in [`TraceMode::Full`]) an unbounded in-order log.
///
/// The default tracer is disabled and records nothing. Everything beyond
/// the mode tag lives behind a `Box` that disabled tracers never
/// allocate.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Box<TracerInner>>,
}

#[derive(Debug, Clone)]
struct TracerInner {
    mode: TraceMode,
    scope: Scope,
    class_mask: u16,
    sm_filter: Option<u16>,
    block_range: Option<(u64, u64)>,
    ring: FlightRecorder,
    full: Vec<TraceEvent>,
}

impl Tracer {
    /// A tracer that records nothing (the hot-path default).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer for the component `scope` configured by `cfg`. A
    /// [`TraceMode::Off`] config yields a disabled tracer.
    #[must_use]
    pub fn new(scope: Scope, cfg: &TraceConfig) -> Self {
        if cfg.mode == TraceMode::Off {
            return Tracer::disabled();
        }
        Tracer {
            inner: Some(Box::new(TracerInner {
                mode: cfg.mode,
                scope,
                class_mask: cfg.class_mask,
                sm_filter: cfg.sm_filter,
                block_range: cfg.block_range,
                ring: FlightRecorder::new(cfg.flight_capacity),
                full: Vec::new(),
            })),
        }
    }

    /// Whether any recording is enabled.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. When tracing is off this is a single
    /// null-pointer check.
    #[inline]
    pub fn record(&mut self, cycle: Cycle, kind: EventKind) {
        if self.inner.is_none() {
            return;
        }
        self.record_slow(cycle, kind);
    }

    /// Records the event built by `kind`, which only runs when tracing
    /// is enabled (the lazy form [`Probe::emit`] uses across all sinks;
    /// the benchmark's `trace.record_disabled_ns` rung times this one).
    #[inline]
    pub fn record_with(&mut self, cycle: Cycle, kind: impl FnOnce() -> EventKind) {
        if self.inner.is_none() {
            return;
        }
        self.record_slow(cycle, kind());
    }

    /// The filtered recording path, deliberately kept out of line (and
    /// marked cold) so the disabled fast path stays a bare
    /// predicted-not-taken branch.
    #[cold]
    #[inline(never)]
    fn record_slow(&mut self, cycle: Cycle, kind: EventKind) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        if inner.class_mask & kind.class().bit() == 0 {
            return;
        }
        if let (Some(want), Some(sm)) = (inner.sm_filter, inner.scope.sm()) {
            if sm != want {
                return;
            }
        }
        if let (Some((lo, hi)), Some(block)) = (inner.block_range, kind.block()) {
            if block.0 < lo || block.0 > hi {
                return;
            }
        }
        let event = TraceEvent {
            cycle,
            scope: inner.scope,
            kind,
        };
        inner.ring.push(event);
        if inner.mode == TraceMode::Full {
            inner.full.push(event);
        }
    }

    /// The flight-recorder tail (most recent retained events, oldest
    /// first).
    #[must_use]
    pub fn flight_tail(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.ring.tail())
    }

    /// The full in-order event log (empty unless [`TraceMode::Full`]).
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        self.inner.as_ref().map_or(&[], |inner| &inner.full)
    }
}

/// Merges several flight-recorder tails into one cycle-ordered sequence
/// (the post-mortem view across SMs, banks, networks, and DRAM).
///
/// Events are totally ordered by `(cycle, scope, within-tail sequence)`,
/// so the merged tail is byte-stable regardless of the order the caller
/// assembled `tails` in — same-cycle events from different components
/// sort by component identity, and same-cycle events from one recorder
/// keep their recording order.
#[must_use]
pub fn merge_tails(tails: &[Vec<TraceEvent>]) -> Vec<TraceEvent> {
    let mut all: Vec<(Cycle, Scope, usize, TraceEvent)> = tails
        .iter()
        .flat_map(|tail| {
            tail.iter()
                .enumerate()
                .map(|(i, e)| (e.cycle, e.scope, i, *e))
        })
        .collect();
    all.sort_by_key(|&(cycle, scope, seq, _)| (cycle, scope, seq));
    all.into_iter().map(|(_, _, _, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_types::{BlockAddr, StallKind};

    fn grant(block: u64) -> EventKind {
        EventKind::Lease {
            op: LeaseOp::Grant,
            block: BlockAddr(block),
            wts: 0,
            rts: 10,
            epoch: 0,
        }
    }

    /// The hot-path contract: a disabled probe is one word, and neither
    /// `emit` nor a span call on it builds its payload.
    #[test]
    fn disabled_probe_is_one_word_and_never_builds_a_payload() {
        assert_eq!(std::mem::size_of::<Probe>(), std::mem::size_of::<usize>());
        let off = SpanTracker::disabled();
        let mut p = Probe::new(
            Scope::Sm(0),
            &TraceConfig::default(),
            &Sanitizer::disabled(),
            &off,
        );
        p.emit(Cycle(1), || unreachable!("event built on a disabled probe"));
        p.spans(|_| unreachable!("span call on a disabled probe"));
        let mut p = Probe::disabled();
        p.emit(Cycle(1), || unreachable!("event built on a disabled probe"));
        // Spans alone: the tracker is handed out, but no event is built.
        let spans = SpanTracker::new(4);
        let mut p = Probe::new(
            Scope::Sm(0),
            &TraceConfig::default(),
            &Sanitizer::disabled(),
            &spans,
        );
        assert!(!p.is_recording());
        p.emit(Cycle(1), || unreachable!("event built with no event sink"));
        let mut reached = false;
        p.spans(|s| reached = s.is_enabled());
        assert!(reached);
    }

    /// One emit reaches the recorder and the rule sink; a kind no rule
    /// reads is recorded but never counted by the machine.
    #[test]
    fn emit_feeds_recorder_and_rules() {
        let rules = Sanitizer::enabled(Scope::Sm(0));
        let mut p = Probe::new(
            Scope::Sm(2),
            &TraceConfig::full(),
            &rules,
            &SpanTracker::disabled(),
        );
        assert!(p.is_recording());
        p.emit(Cycle(1), || EventKind::WarpIssue { warp: 0 });
        p.emit(Cycle(2), || EventKind::Hit {
            block: BlockAddr(1),
            warp: 0,
            warp_ts: 9,
            rts: 5,
        });
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.events()[1].scope, Scope::Sm(2));
        assert_eq!(rules.checked(), 1, "WarpIssue is no fact");
        let f = rules.report().findings;
        assert_eq!((f[0].rule, f[0].scope), ("load-past-rts", Scope::Sm(2)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record(Cycle(1), grant(0));
        assert!(t.flight_tail().is_empty());
        assert!(t.events().is_empty());
    }

    #[test]
    fn flight_mode_fills_ring_but_not_log() {
        let cfg = TraceConfig::flight().with_flight_capacity(2);
        let mut t = Tracer::new(Scope::L2Bank(0), &cfg);
        for c in 0..5 {
            t.record(Cycle(c), grant(c));
        }
        assert_eq!(t.flight_tail().len(), 2);
        assert_eq!(t.flight_tail()[0].cycle, Cycle(3));
        assert!(t.events().is_empty(), "Flight mode keeps no full log");
    }

    #[test]
    fn full_mode_keeps_everything_in_order() {
        let mut t = Tracer::new(Scope::Sm(1), &gtsc_types::TraceConfig::full());
        for c in 0..100 {
            t.record(Cycle(c), grant(c));
        }
        assert_eq!(t.events().len(), 100);
        assert!(t.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    fn class_filter_drops_other_classes() {
        let cfg = TraceConfig::full().with_class_mask(EventClass::Lease.bit());
        let mut t = Tracer::new(Scope::Sm(0), &cfg);
        t.record(Cycle(1), grant(0));
        t.record(
            Cycle(2),
            EventKind::WarpStall {
                warp: 0,
                kind: StallKind::Memory,
            },
        );
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].kind.class(), EventClass::Lease);
    }

    #[test]
    fn sm_filter_passes_matching_sm_and_non_sm_scopes() {
        let cfg = TraceConfig::full().with_sm(1);
        let mut hit = Tracer::new(Scope::Sm(1), &cfg);
        let mut miss = Tracer::new(Scope::Sm(0), &cfg);
        let mut bank = Tracer::new(Scope::L2Bank(0), &cfg);
        for t in [&mut hit, &mut miss, &mut bank] {
            t.record(Cycle(1), grant(0));
        }
        assert_eq!(hit.events().len(), 1);
        assert_eq!(miss.events().len(), 0);
        assert_eq!(bank.events().len(), 1, "non-SM scopes always pass");
    }

    #[test]
    fn block_filter_is_inclusive_and_ignores_blockless_events() {
        let cfg = TraceConfig::full().with_blocks(10, 20);
        let mut t = Tracer::new(Scope::Sm(0), &cfg);
        t.record(Cycle(1), grant(9));
        t.record(Cycle(2), grant(10));
        t.record(Cycle(3), grant(20));
        t.record(Cycle(4), grant(21));
        t.record(Cycle(5), EventKind::WarpIssue { warp: 0 });
        let blocks: Vec<_> = t.events().iter().map(|e| e.kind.block()).collect();
        assert_eq!(blocks, vec![Some(BlockAddr(10)), Some(BlockAddr(20)), None]);
    }

    #[test]
    fn merge_tails_orders_by_cycle() {
        let mut a = Tracer::new(Scope::Sm(0), &TraceConfig::flight());
        let mut b = Tracer::new(Scope::L2Bank(0), &TraceConfig::flight());
        a.record(Cycle(5), grant(0));
        b.record(Cycle(2), grant(1));
        a.record(Cycle(9), grant(2));
        let merged = merge_tails(&[a.flight_tail(), b.flight_tail()]);
        let cycles: Vec<u64> = merged.iter().map(|e| e.cycle.0).collect();
        assert_eq!(cycles, vec![2, 5, 9]);
    }

    #[test]
    fn merge_tails_is_stable_on_cycle_ties() {
        // Three components all record at the same cycles; the merged
        // tail must come out identical however the caller orders the
        // input tails — ties break on (scope, within-tail sequence).
        let mut sm = Tracer::new(Scope::Sm(1), &TraceConfig::flight());
        let mut bank = Tracer::new(Scope::L2Bank(0), &TraceConfig::flight());
        let mut dram = Tracer::new(Scope::Dram(0), &TraceConfig::flight());
        for c in [3u64, 3, 7] {
            sm.record(Cycle(c), grant(c));
            bank.record(Cycle(c), grant(c + 10));
            dram.record(Cycle(c), grant(c + 20));
        }
        let fwd = merge_tails(&[sm.flight_tail(), bank.flight_tail(), dram.flight_tail()]);
        let rev = merge_tails(&[dram.flight_tail(), bank.flight_tail(), sm.flight_tail()]);
        assert_eq!(fwd, rev);
        // Within a cycle tie, Sm < L2Bank < Dram, and a component's own
        // events keep recording order.
        assert_eq!(fwd[0].scope, Scope::Sm(1));
        assert_eq!(fwd[1].scope, Scope::Sm(1));
        assert_eq!(fwd[2].scope, Scope::L2Bank(0));
        assert_eq!(fwd[4].scope, Scope::Dram(0));
        assert!(fwd.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }
}
