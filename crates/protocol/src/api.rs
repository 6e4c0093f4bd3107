//! Controller traits implemented by every coherence protocol.
//!
//! The GPU core model drives a per-SM [`L1Controller`]; the simulator
//! routes the requests it emits over the NoC to per-bank
//! [`L2Controller`]s, and DRAM responses back. Implementations:
//!
//! * `gtsc_core::{GtscL1, GtscL2}` — the paper's protocol;
//! * `gtsc_baselines::{TcL1, TcL2}` — Temporal Coherence (strong and weak);
//! * `gtsc_baselines::{BypassL1, PlainL2}` — the no-L1 baseline ("BL");
//! * `gtsc_baselines::NonCoherentL1` — "Baseline W/L1".

use gtsc_trace::{Sanitizer, SpanTracker, Tracer};
use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, CacheStats, Cycle, SpanId, Timestamp, Version, WarpId};

use crate::msg::{Epoch, L1ToL2, L2ToL1};

/// Unique token identifying one in-flight memory access, assigned by the
/// SM and echoed back in the matching [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AccessId(pub u64);

/// Load, store, or read-modify-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A global-memory load.
    Load,
    /// A global-memory store.
    Store,
    /// A global-memory atomic (read-modify-write performed at the L2, as
    /// on real GPUs). The issuing warp blocks until the old value
    /// returns. Under G-TSC the RMW is timestamped like a store — it
    /// never stalls; under TC-Strong it must wait for every outstanding
    /// lease like any other write.
    Atomic,
}

/// One block-granular memory access issued by an SM's LDST unit (already
/// coalesced: one `MemAccess` per distinct block touched by the warp
/// instruction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Completion-matching token.
    pub id: AccessId,
    /// Issuing warp (within the SM).
    pub warp: WarpId,
    /// Load or store.
    pub kind: AccessKind,
    /// Block touched.
    pub block: BlockAddr,
    /// Causal-span identity when this access was sampled by the latency
    /// observatory; [`SpanId::NONE`] (the overwhelmingly common case)
    /// otherwise. Controllers copy it into the requests they emit.
    pub span: SpanId,
}

/// A finished memory access, reported by the L1 controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Token from the originating [`MemAccess`].
    pub id: AccessId,
    /// Issuing warp.
    pub warp: WarpId,
    /// Load or store.
    pub kind: AccessKind,
    /// Block touched.
    pub block: BlockAddr,
    /// Data version observed (loads) or published (stores).
    pub version: Version,
    /// Logical time of the operation, for timestamp-ordering protocols:
    /// the load's effective timestamp, or the store's assigned `wts`.
    /// `None` for physical-time and plain protocols.
    pub ts: Option<Timestamp>,
    /// Timestamp-reset epoch the operation executed in.
    pub epoch: Epoch,
    /// For atomics only: the version the read-modify-write *observed*
    /// (its read half). `None` for plain loads and stores.
    pub prev: Option<Version>,
}

/// Occupancy snapshot of a cache controller, reported by
/// [`L1Controller::pressure`] / [`L2Controller::pressure`] and assembled
/// into a stall diagnosis when the simulator's forward-progress watchdog
/// fires. Purely observational — reading it never perturbs timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerPressure {
    /// Outstanding misses (occupied MSHR entries).
    pub mshr: usize,
    /// Requests queued toward the next level (L1→NoC or L2→DRAM).
    pub out_queue: usize,
    /// Responses or acknowledgements waiting to drain.
    pub waiting: usize,
}

impl ControllerPressure {
    /// Whether anything at all is held inside the controller.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.mshr == 0 && self.out_queue == 0 && self.waiting == 0
    }
}

impl std::fmt::Display for ControllerPressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mshr={} out_queue={} waiting={}",
            self.mshr, self.out_queue, self.waiting
        )
    }
}

/// Immediate result of presenting an access to the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Outcome {
    /// Hit: completes after the L1 hit latency.
    Hit(Completion),
    /// Miss or write-through: a [`Completion`] will be produced later by
    /// [`L1Controller::on_response`] or [`L1Controller::tick`].
    Queued,
    /// Structural hazard (MSHR full, line locked and policy forbids
    /// queueing): the SM must retry the access on a later cycle.
    ///
    /// **Stability contract.** A rejection must be *stable* and *silent*:
    /// the same access stays rejected until the controller next returns
    /// from [`L1Controller::on_response`] or [`L1Controller::flush`], or
    /// [`L1Controller::tick`] returns a completion; and rejecting leaves
    /// no trace in the controller (counters, events, queues) beyond
    /// refreshing replacement order. The SM relies on both: while nothing
    /// of the kind has happened it does not re-present the access, it
    /// books the retry (DESIGN.md §15.2) — and, in debug builds, asserts
    /// that the access is still refused when it next does. The passing of
    /// time alone may turn an accepted access into a rejected one (a
    /// physical lease expiring), never the reverse.
    ///
    /// **Fence horizon.** [`L1Controller::fence_ready_at`] is held to the
    /// same rule: its answer for a warp changes only across those calls,
    /// so the SM asks once and waits for that cycle instead of polling.
    ///
    /// **Event horizon.** [`L1Controller::next_event_at`] and
    /// [`L2Controller::next_event_at`] are the same idea for time itself:
    /// the earliest cycle at which the controller's `tick` could return
    /// anything or change any state, counter or trace output, *provided
    /// none of its input methods is called first* — for an L1 that is
    /// `access`, `on_response`, `flush`, `enable_retry`, `load_state`; for
    /// an L2 `on_request`, `on_dram_response`, `dram_ready`, `apply_reset`,
    /// `crash`, `load_state`. Anything waiting to be taken
    /// (`take_request`, `take_response`, and — unless `dram_ready(false)`
    /// was the last word — `take_dram_request`) counts as due now. The
    /// answer may be early, never late;
    /// `Cycle(u64::MAX)` means "only an input wakes me". The engine folds
    /// these over the whole machine and does not step the cycles before
    /// the minimum (DESIGN.md §15.2), so a late answer silently drops
    /// work, while the default — `Cycle(0)`, always due — merely keeps the
    /// engine stepping every cycle while the controller is installed.
    ///
    /// **Returned completions.** [`L1Controller::on_response`] and
    /// [`L1Controller::tick`] lend out a buffer the controller keeps
    /// (DESIGN.md §15.4): the slice holds exactly what *that* call
    /// completed — the controller empties the buffer on entry to either
    /// method, also when it returns early on its horizon — and is valid
    /// until the controller is next borrowed. A caller that drops it
    /// unread loses those completions; none is ever reported twice.
    Reject,
}

/// Why an L1 controller is currently holding up its SM, as reported by
/// [`L1Controller::wait_hint`] for top-down cycle accounting
/// (DESIGN.md §15). Purely observational, like
/// [`ControllerPressure`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WaitHint {
    /// Nothing identifiable is blocking inside the controller.
    #[default]
    None,
    /// Outstanding work is dominated by a lease-expired refetch
    /// (a G-TSC coherence miss in flight).
    LeaseExpired,
    /// The MSHR file is full: new misses are being rejected.
    MshrFull,
    /// Requests are queued toward the NoC awaiting injection.
    NocBackpressure,
    /// Waiting on the memory system below the NoC (L2/DRAM round trip).
    Downstream,
}

/// A private (per-SM) cache controller.
///
/// The contract with the SM pipeline:
///
/// 1. The SM calls [`access`](L1Controller::access) once per coalesced
///    block access. `Hit` completes immediately (the SM applies the L1 hit
///    latency); `Queued` completes later; `Reject` is retried once the
///    controller has heard from the L2 or completed something.
/// 2. Each cycle, the simulator drains
///    [`take_request`](L1Controller::take_request) into the request NoC,
///    feeds arriving responses to
///    [`on_response`](L1Controller::on_response), and calls
///    [`tick`](L1Controller::tick); both of the latter may yield
///    completions.
/// 3. Fences additionally wait for the cycle
///    [`fence_ready_at`](L1Controller::fence_ready_at) names (TC-Weak's
///    GWCT rule).
/// 4. [`flush`](L1Controller::flush) is invoked at kernel boundaries
///    (GPU caches are flushed between kernels; Section V-D).
pub trait L1Controller {
    /// Presents a coalesced access; may complete, queue, or reject it
    /// (see the stability contract on [`L1Outcome::Reject`]).
    fn access(&mut self, acc: MemAccess, now: Cycle) -> L1Outcome;

    /// Delivers a response that arrived over the response NoC. Returns the
    /// accesses it completed (see the validity rule on
    /// [`L1Outcome::Reject`]).
    fn on_response(&mut self, msg: L2ToL1, now: Cycle) -> &[Completion];

    /// Removes the next request destined for the L2, if any. The simulator
    /// routes it by [`L1ToL2::block`].
    fn take_request(&mut self) -> Option<L1ToL2>;

    /// Per-cycle housekeeping (expiry scans, retry of deferred renewals).
    /// May complete accesses (e.g. waiters whose lease arrived earlier);
    /// the slice follows the same validity rule as
    /// [`on_response`](L1Controller::on_response)'s.
    fn tick(&mut self, now: Cycle) -> &[Completion];

    /// The first cycle at which `warp` may complete a fence *from the
    /// protocol's point of view* (the SM separately requires all of the
    /// warp's accesses to have completed). The default never holds a
    /// fence back; TC-Weak overrides this with the warp's GWCT. The answer
    /// may change only where a rejection may lapse (see
    /// [`L1Outcome::Reject`]), so the SM treats it as a known horizon.
    fn fence_ready_at(&self, warp: WarpId) -> Cycle {
        let _ = warp;
        Cycle(0)
    }

    /// The earliest cycle at which [`tick`](L1Controller::tick) could
    /// complete anything or change any state, counter or trace output if
    /// no input method is called first; a queued request counts as due
    /// now (see the event-horizon contract on [`L1Outcome::Reject`]). The
    /// default is always due: correct for any controller, at the price of
    /// an engine that steps every cycle.
    fn next_event_at(&self) -> Cycle {
        Cycle(0)
    }

    /// Arms end-to-end retry: requests unanswered for `timeout` cycles
    /// are re-sent from [`tick`](L1Controller::tick). The simulator calls
    /// this only under loss-fault injection (a crashed bank consumes a
    /// request and then forgets it — only the requester can recover it).
    /// The default ignores the knob; controllers whose protocol tolerates
    /// duplicate requests override.
    fn enable_retry(&mut self, timeout: u64) {
        let _ = timeout;
    }

    /// Invalidates the entire cache and resets per-warp protocol state
    /// (kernel boundary).
    fn flush(&mut self);

    /// Whether no access is waiting inside the controller.
    fn is_idle(&self) -> bool;

    /// Counters accumulated so far.
    fn stats(&self) -> CacheStats;

    /// Occupancy snapshot for stall diagnosis. The default reports an
    /// empty controller; protocols with internal queues should override.
    fn pressure(&self) -> ControllerPressure {
        ControllerPressure::default()
    }

    /// Why the controller is holding up its SM right now, for top-down
    /// cycle accounting. The default derives a coarse answer from
    /// [`pressure`](L1Controller::pressure): queued requests read as
    /// NoC backpressure, outstanding misses as a downstream wait.
    /// Protocols with richer internal state override.
    fn wait_hint(&self) -> WaitHint {
        let p = self.pressure();
        if p.out_queue > 0 {
            WaitHint::NocBackpressure
        } else if p.mshr > 0 || p.waiting > 0 {
            WaitHint::Downstream
        } else {
            WaitHint::None
        }
    }

    /// Installs a protocol event tracer. Controllers that emit trace
    /// events override this; the default discards the tracer so plain
    /// implementations need no tracing plumbing.
    fn set_tracer(&mut self, tracer: Tracer) {
        let _ = tracer;
    }

    /// The installed tracer, for flight-recorder dumps. `None` when the
    /// controller does not trace.
    fn tracer(&self) -> Option<&Tracer> {
        None
    }

    /// Installs an online transition sanitizer (see
    /// `gtsc_trace::Sanitizer`). Controllers that report transitions
    /// override this; the default discards the handle so plain
    /// implementations need no checking plumbing.
    fn set_sanitizer(&mut self, sanitizer: Sanitizer) {
        let _ = sanitizer;
    }

    /// Installs a causal-span tracker (see `gtsc_trace::SpanTracker`).
    /// Controllers that annotate spans (MSHR merges, expiry refetches)
    /// override this; the default discards the handle — span chains
    /// self-heal around layers that do not report.
    fn set_span_tracker(&mut self, spans: SpanTracker) {
        let _ = spans;
    }

    /// Serializes the controller's dynamic state for a whole-simulator
    /// checkpoint (DESIGN.md §14). The default declines: only
    /// controllers that also implement
    /// [`load_state`](L1Controller::load_state) support checkpointing.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] from the default implementation.
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        let _ = w;
        Err(SnapshotError::Unsupported {
            what: "this L1 controller does not checkpoint",
        })
    }

    /// Restores state saved by [`save_state`](L1Controller::save_state)
    /// into a controller freshly built from the same config.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] from the default implementation;
    /// decoding or mismatch errors from implementations.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Err(SnapshotError::Unsupported {
            what: "this L1 controller does not checkpoint",
        })
    }
}

/// A shared-cache bank controller.
///
/// Each cycle the simulator: delivers NoC request arrivals via
/// [`on_request`](L2Controller::on_request); calls
/// [`tick`](L2Controller::tick); moves
/// [`take_dram_request`](L2Controller::take_dram_request) into the DRAM
/// model (respecting back-pressure via
/// [`dram_ready`](L2Controller::dram_ready)); feeds DRAM completions to
/// [`on_dram_response`](L2Controller::on_dram_response); and drains
/// [`take_response`](L2Controller::take_response) into the response NoC.
pub trait L2Controller {
    /// Handles a request from SM `src`.
    fn on_request(&mut self, src: usize, msg: L1ToL2, now: Cycle);

    /// Next response to inject into the response network: `(dst SM, msg)`.
    fn take_response(&mut self) -> Option<(usize, L2ToL1)>;

    /// Next DRAM request: `(block, is_write)`. Only called when the DRAM
    /// queue can accept (the simulator checks first).
    fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)>;

    /// Informs the controller whether DRAM can currently accept requests
    /// (so `tick` can decide to retry stalled evictions, and so a bank
    /// holding DRAM requests back knows they are not due until it hears
    /// `true`). Called each cycle once the partition has been ticked —
    /// the one point where room opens — so it still holds at the next
    /// `tick`; a bank that has not been told yet assumes room.
    fn dram_ready(&mut self, ready: bool) {
        let _ = ready;
    }

    /// Handles a DRAM completion for `block` (`is_write` distinguishes
    /// write-back completions, which usually need no action).
    fn on_dram_response(&mut self, block: BlockAddr, is_write: bool, now: Cycle);

    /// Per-cycle housekeeping (TC write-stall expiry, deferred work).
    fn tick(&mut self, now: Cycle);

    /// The earliest cycle at which [`tick`](L2Controller::tick) could do
    /// anything if no input method is called first; a queued response, or
    /// a DRAM request while DRAM is ready, counts as due now (see the
    /// event-horizon contract on
    /// [`crate::L1Outcome::Reject`]). The default is always due: correct
    /// for any bank, at the price of an engine that steps every cycle.
    fn next_event_at(&self) -> Cycle {
        Cycle(0)
    }

    /// Whether this bank wants a global timestamp reset (G-TSC rollover,
    /// Section V-D). The simulator polls this and, if any bank requests a
    /// reset, calls [`apply_reset`](L2Controller::apply_reset) on *all*
    /// banks with the same new epoch.
    fn needs_reset(&self) -> bool {
        false
    }

    /// Performs the Section V-D timestamp reset, entering `epoch` at
    /// cycle `now`.
    fn apply_reset(&mut self, epoch: Epoch, now: Cycle) {
        let _ = (epoch, now);
    }

    /// Crashes the bank: models a transient fault that wipes the tag
    /// array and all in-flight transaction state (data survives via
    /// DRAM / the functional backing image). Returns `true` if the
    /// controller supports crash/recovery — it must then report
    /// [`needs_reset`](L2Controller::needs_reset) so the simulator runs
    /// the global epoch bump that makes recovery safe. The default
    /// (timing baselines, plain protocols) ignores the fault and
    /// returns `false`.
    fn crash(&mut self, now: Cycle) -> bool {
        let _ = now;
        false
    }

    /// Whether no transaction is pending inside the bank.
    fn is_idle(&self) -> bool;

    /// Counters accumulated so far.
    fn stats(&self) -> CacheStats;

    /// The bank's current functional memory contents (resident lines plus
    /// written-back blocks), as `(block, version)` pairs. Used by the
    /// cross-protocol equivalence checker; timing models need not override.
    fn memory_image(&self) -> Vec<(BlockAddr, Version)> {
        Vec::new()
    }

    /// Occupancy snapshot for stall diagnosis. The default reports an
    /// empty controller; protocols with internal queues should override.
    fn pressure(&self) -> ControllerPressure {
        ControllerPressure::default()
    }

    /// Installs a protocol event tracer. Controllers that emit trace
    /// events override this; the default discards the tracer so plain
    /// implementations need no tracing plumbing.
    fn set_tracer(&mut self, tracer: Tracer) {
        let _ = tracer;
    }

    /// The installed tracer, for flight-recorder dumps. `None` when the
    /// controller does not trace.
    fn tracer(&self) -> Option<&Tracer> {
        None
    }

    /// Installs an online transition sanitizer (see
    /// `gtsc_trace::Sanitizer`). Controllers that report transitions
    /// override this; the default discards the handle so plain
    /// implementations need no checking plumbing.
    fn set_sanitizer(&mut self, sanitizer: Sanitizer) {
        let _ = sanitizer;
    }

    /// Installs a causal-span tracker (see `gtsc_trace::SpanTracker`).
    /// Banks that annotate spans (serve class, DRAM waits, crash
    /// closes) override this; the default discards the handle.
    fn set_span_tracker(&mut self, spans: SpanTracker) {
        let _ = spans;
    }

    /// Serializes the bank's dynamic state for a whole-simulator
    /// checkpoint (DESIGN.md §14). The default declines: only banks that
    /// also implement [`load_state`](L2Controller::load_state) support
    /// checkpointing.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] from the default implementation.
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        let _ = w;
        Err(SnapshotError::Unsupported {
            what: "this L2 controller does not checkpoint",
        })
    }

    /// Restores state saved by [`save_state`](L2Controller::save_state)
    /// into a bank freshly built from the same config.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] from the default implementation;
    /// decoding or mismatch errors from implementations.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Err(SnapshotError::Unsupported {
            what: "this L2 controller does not checkpoint",
        })
    }
}

impl Snap for AccessId {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(AccessId(r.u64()?))
    }
}

impl Snap for AccessKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            AccessKind::Load => 0,
            AccessKind::Store => 1,
            AccessKind::Atomic => 2,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(AccessKind::Load),
            1 => Ok(AccessKind::Store),
            2 => Ok(AccessKind::Atomic),
            other => Err(SnapshotError::Malformed {
                context: format!("AccessKind tag {other}"),
            }),
        }
    }
}

gtsc_types::snap_fields!(MemAccess {
    id,
    warp,
    kind,
    block,
    span
});
gtsc_types::snap_fields!(Completion {
    id,
    warp,
    kind,
    block,
    version,
    ts,
    epoch,
    prev,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_id_is_ordered() {
        assert!(AccessId(1) < AccessId(2));
        assert_eq!(AccessId::default(), AccessId(0));
    }

    /// The default `fence_ready_at` lets fences through (only the SM's
    /// outstanding-access rule applies), and default reset hooks are inert.
    #[test]
    fn trait_defaults() {
        struct Dummy;
        impl L1Controller for Dummy {
            fn access(&mut self, _: MemAccess, _: Cycle) -> L1Outcome {
                L1Outcome::Reject
            }
            fn on_response(&mut self, _: L2ToL1, _: Cycle) -> &[Completion] {
                &[]
            }
            fn take_request(&mut self) -> Option<L1ToL2> {
                None
            }
            fn tick(&mut self, _: Cycle) -> &[Completion] {
                &[]
            }
            fn flush(&mut self) {}
            fn is_idle(&self) -> bool {
                true
            }
            fn stats(&self) -> CacheStats {
                CacheStats::default()
            }
        }
        let d = Dummy;
        assert_eq!(d.fence_ready_at(WarpId(0)), Cycle(0));
        assert_eq!(d.next_event_at(), Cycle(0), "always due by default");

        struct DummyL2;
        impl L2Controller for DummyL2 {
            fn on_request(&mut self, _: usize, _: L1ToL2, _: Cycle) {}
            fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
                None
            }
            fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)> {
                None
            }
            fn on_dram_response(&mut self, _: BlockAddr, _: bool, _: Cycle) {}
            fn tick(&mut self, _: Cycle) {}
            fn is_idle(&self) -> bool {
                true
            }
            fn stats(&self) -> CacheStats {
                CacheStats::default()
            }
        }
        let mut d2 = DummyL2;
        assert_eq!(d2.next_event_at(), Cycle(0), "always due by default");
        assert!(!d2.needs_reset());
        d2.apply_reset(1, Cycle(0));
        d2.dram_ready(true);
        // Default crash hook: fault is ignored, no recovery advertised.
        assert!(!d2.crash(Cycle(3)));
        assert!(d.pressure().is_empty());
        assert!(d2.pressure().is_empty());
        assert_eq!(d2.pressure().to_string(), "mshr=0 out_queue=0 waiting=0");
        // Default tracer hooks: discard on install, report nothing.
        let mut d = d;
        d.set_tracer(Tracer::default());
        d2.set_tracer(Tracer::default());
        assert!(d.tracer().is_none());
        assert!(d2.tracer().is_none());
        // Default sanitizer hooks likewise discard the handle.
        d.set_sanitizer(Sanitizer::default());
        d2.set_sanitizer(Sanitizer::default());
        // Default span hooks discard too, and the default wait hint is
        // derived from the (empty) pressure report.
        d.set_span_tracker(SpanTracker::default());
        d2.set_span_tracker(SpanTracker::default());
        assert_eq!(d.wait_hint(), WaitHint::None);
    }
}
