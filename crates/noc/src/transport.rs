//! Reliable transport over a lossy NoC.
//!
//! The raw [`Network`] is only live when every packet eventually
//! arrives. The loss faults in `gtsc-faults` (drop, payload corruption,
//! L2-bank crash) break that assumption on purpose; [`ReliableNet`]
//! restores it with the classic machinery — per-flow sequence numbers,
//! a receiver-side dedup/reorder window, cumulative ACKs on a reverse
//! control network, explicit NACKs for observed gaps and corrupted
//! arrivals, and sender retransmit queues driven by cycle-based
//! timeouts with exponential backoff plus seeded jitter. The coherence
//! protocols above see **exactly-once, per-flow-FIFO** delivery no
//! matter what the wire does.
//!
//! Two properties matter beyond correctness:
//!
//! * **Passthrough is free.** Until [`ReliableNet::enable`] is called
//!   (the simulator calls it only when a loss fault is configured), the
//!   wrapper forwards straight to the data network: no sequence
//!   numbers, no control traffic, no per-flow state — the fault-free
//!   hot path is byte-identical to the raw network's.
//! * **Determinism.** All jitter comes from a [`SplitMix64`] stream
//!   seeded by the caller, and all timeouts are cycle-based, so a
//!   `(config, kernel, seed)` triple replays byte-for-byte.
//!
//! Crash/recovery: when an endpoint loses its transport state (an L2
//! bank reset), [`ReliableNet::reset_flows_to_dst`] /
//! [`ReliableNet::reset_flows_from_src`] reset *both* ends of every
//! affected flow and bump the flow generation; segments and control
//! messages of older generations still in flight are discarded on
//! arrival, so a reset can never wedge a flow on mismatched sequence
//! numbers. Messages unacked at reset time are dropped — re-issuing
//! them is the job of the end-to-end retry in the L1 (see DESIGN.md
//! §13).

use std::collections::{BTreeMap, VecDeque};

use gtsc_faults::{FaultStats, LinkFaults, NocFaults, SplitMix64};
use gtsc_trace::{merge_tails, CloseReason, EventKind, SpanTracker, TraceEvent, Tracer};
use gtsc_types::{Cycle, NocConfig, NocStats, SpanId, TransportConfig, TransportStats};

use crate::Network;

/// A payload plus the transport header riding the data network.
///
/// `src` repeats the source port (the raw network hands receivers only
/// the destination), `gen` is the flow generation (bumped on flow
/// reset), `seq` the per-flow sequence number. The header fields fit
/// the existing per-packet header byte budget (`NocConfig::
/// control_bytes`), so wire sizes are unchanged — see DESIGN.md §13.
#[derive(Debug, Clone)]
struct DataSeg<T> {
    src: usize,
    gen: u32,
    seq: u64,
    payload: T,
}

/// What a control message says about its flow.
#[derive(Debug, Clone, Copy)]
enum CtlKind {
    /// Cumulative: every `seq <= cum` was delivered.
    Ack { cum: u64 },
    /// The receiver is missing `expected` (gap or corrupted payload).
    Nack { expected: u64 },
}

/// A control message on the reverse network, addressed by *data-flow*
/// `(src, dst)` so the sender can find the right retransmit queue.
#[derive(Debug, Clone, Copy)]
struct CtlMsg {
    flow_src: usize,
    flow_dst: usize,
    gen: u32,
    kind: CtlKind,
}

/// One unacked segment in a sender's retransmit queue.
#[derive(Debug, Clone)]
struct Sent<T> {
    seq: u64,
    bytes: usize,
    payload: T,
    /// First transmission cycle (for oldest-unacked diagnostics).
    first_sent: Cycle,
    /// When the retransmit timer fires next (backoff + jitter applied).
    deadline: Cycle,
    retries: u32,
}

/// Sender-side state of one `(src, dst)` flow.
#[derive(Debug, Clone)]
struct TxFlow<T> {
    gen: u32,
    next_seq: u64,
    unacked: VecDeque<Sent<T>>,
}

impl<T> TxFlow<T> {
    fn new() -> Self {
        TxFlow {
            gen: 0,
            next_seq: 0,
            unacked: VecDeque::new(),
        }
    }
}

/// Receiver-side state of one `(src, dst)` flow.
#[derive(Debug, Clone)]
struct RxFlow<T> {
    gen: u32,
    next_expected: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    buffer: BTreeMap<u64, T>,
    /// Last cycle a NACK went out (rate limiting).
    last_nack: Option<Cycle>,
}

impl<T> RxFlow<T> {
    fn new() -> Self {
        RxFlow {
            gen: 0,
            next_expected: 0,
            buffer: BTreeMap::new(),
            last_nack: None,
        }
    }
}

/// Per-flow sender diagnostics for watchdog stall reports: lets a
/// retransmit storm be told apart from a genuine protocol deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDiag {
    /// Source port of the flow.
    pub src: usize,
    /// Destination port of the flow.
    pub dst: usize,
    /// Segments awaiting an ACK.
    pub unacked: usize,
    /// Cycles since the oldest unacked segment was first sent.
    pub oldest_age: u64,
    /// Largest retry count among the unacked segments.
    pub max_retries: u32,
}

impl std::fmt::Display for FlowDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flow {} -> {}: {} unacked, oldest {} cycles, {} retries",
            self.src, self.dst, self.unacked, self.oldest_age, self.max_retries
        )
    }
}

/// One direction of the interconnect with exactly-once, per-flow-FIFO
/// delivery over a lossy wire: a data [`Network`] carrying sequenced
/// segments plus a reverse control [`Network`] carrying ACKs/NACKs.
///
/// # Examples
///
/// ```
/// use gtsc_noc::ReliableNet;
/// use gtsc_types::{Cycle, NocConfig, TransportConfig};
///
/// let mut net: ReliableNet<&str> =
///     ReliableNet::new(2, 2, NocConfig::default(), TransportConfig::default());
/// // Passthrough until enabled: behaves exactly like a raw Network.
/// net.send(0, 1, 8, "hello", Cycle(0));
/// let mut got = Vec::new();
/// for c in 0..=30 {
///     got.extend(net.tick(Cycle(c)));
/// }
/// assert_eq!(got, vec![(1, "hello")]);
/// assert_eq!(net.transport_stats(), Default::default());
/// ```
#[derive(Debug)]
pub struct ReliableNet<T> {
    data: Network<DataSeg<T>>,
    ctl: Network<CtlMsg>,
    n_dsts: usize,
    enabled: bool,
    tcfg: TransportConfig,
    ctl_bytes: usize,
    tx: Vec<TxFlow<T>>,
    rx: Vec<RxFlow<T>>,
    rng: SplitMix64,
    stats: TransportStats,
    tracer: Tracer,
    /// Latency-observatory handle plus a probe extracting the payload's
    /// causal [`SpanId`] (a plain fn pointer keeps `ReliableNet` generic
    /// over payloads that know nothing about spans).
    spans: SpanTracker,
    span_probe: Option<fn(&T) -> SpanId>,
    /// No retransmit timer fires before this cycle: a lower bound on
    /// every unacked segment's `deadline`, lowered wherever one is set
    /// and made exact by the timer scan that gets past it. Derived state,
    /// never snapshotted ([`ReliableNet::load_state`] clears it).
    next_deadline: Cycle,
    /// What the latest [`ReliableNet::tick`] released, lent out as a
    /// `Drain` like [`Network::tick`]'s. Volatile, never snapshotted.
    out: Vec<(usize, T)>,
}

impl<T: Clone> ReliableNet<T> {
    /// Creates the wrapper in passthrough mode: data traffic flows
    /// `n_srcs` source ports to `n_dsts` destination ports, control
    /// traffic the other way.
    #[must_use]
    pub fn new(n_srcs: usize, n_dsts: usize, cfg: NocConfig, tcfg: TransportConfig) -> Self {
        ReliableNet {
            data: Network::new(n_srcs, n_dsts, cfg),
            ctl: Network::new(n_dsts, n_srcs, cfg),
            n_dsts,
            enabled: false,
            tcfg,
            ctl_bytes: cfg.control_bytes,
            tx: (0..n_srcs * n_dsts).map(|_| TxFlow::new()).collect(),
            rx: (0..n_srcs * n_dsts).map(|_| RxFlow::new()).collect(),
            rng: SplitMix64::new(0),
            stats: TransportStats::default(),
            tracer: Tracer::disabled(),
            spans: SpanTracker::disabled(),
            span_probe: None,
            next_deadline: Cycle(u64::MAX),
            out: Vec::new(),
        }
    }

    /// Installs the span tracker and the payload-to-span probe: sampled
    /// payloads get retransmit overlays noted, and payloads discarded by
    /// a flow reset get their spans closed with
    /// [`CloseReason::Dropped`].
    pub fn set_span_probe(&mut self, spans: SpanTracker, probe: fn(&T) -> SpanId) {
        self.spans = spans;
        self.span_probe = Some(probe);
    }

    /// Switches from passthrough to reliable delivery, seeding the
    /// backoff-jitter stream. Call before any traffic is injected (the
    /// simulator enables at build time when a loss fault is active).
    pub fn enable(&mut self, seed: u64) {
        self.enabled = true;
        self.rng = SplitMix64::new(seed);
    }

    /// Whether reliable delivery (vs passthrough) is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Installs fault injectors: `data` perturbs the forward segments,
    /// `ctl` the reverse ACK/NACK channel (they must be distinct
    /// streams or the two networks would fault in lockstep).
    pub fn set_faults(&mut self, data: Option<NocFaults>, ctl: Option<NocFaults>) {
        self.data.set_faults(data);
        self.ctl.set_faults(ctl);
    }

    /// Installs a scheduled link-down window (a fabric partition) on the
    /// `(src, dst)` data flow *and* its reverse control flow: while the
    /// link is down, segments in one direction and ACK/NACKs in the
    /// other both vanish at injection. The retransmit machinery rides
    /// out the window; traffic resumes when it closes.
    pub fn set_link_faults(&mut self, src: usize, dst: usize, faults: Option<LinkFaults>) {
        self.data.set_link_faults(src, dst, faults.clone());
        self.ctl.set_link_faults(dst, src, faults);
    }

    /// Whether the `(src, dst)` data link is inside a scheduled down
    /// window at `now`.
    #[must_use]
    pub fn link_down(&self, src: usize, dst: usize, now: Cycle) -> bool {
        self.data.link_down(src, dst, now)
    }

    /// Installs a tracer: a clone goes to the data network (packet
    /// send/deliver/drop/corrupt events) and one stays here for the
    /// transport events (retransmits, NACKs).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.data.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Combined flight-recorder tail of the data network and the
    /// transport layer, cycle-ordered.
    #[must_use]
    pub fn flight_tail(&self) -> Vec<TraceEvent> {
        merge_tails(&[self.data.tracer().flight_tail(), self.tracer.flight_tail()])
    }

    /// The full in-order transport event log (empty unless tracing in
    /// `Full` mode).
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.data.tracer().events().to_vec();
        all.extend_from_slice(self.tracer.events());
        all.sort_by_key(|e| e.cycle);
        all
    }

    /// Merged NoC counters (data + control traffic).
    #[must_use]
    pub fn stats(&self) -> NocStats {
        let mut s = self.data.stats();
        s.merge(&self.ctl.stats());
        s
    }

    /// Transport counters (all zero in passthrough mode).
    #[must_use]
    pub fn transport_stats(&self) -> TransportStats {
        self.stats
    }

    /// Merged fault counters of both underlying networks, when any
    /// injector is installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        match (self.data.fault_stats(), self.ctl.fault_stats()) {
            (None, None) => None,
            (a, b) => {
                let mut s = a.unwrap_or_default();
                s.merge(&b.unwrap_or_default());
                Some(s)
            }
        }
    }

    /// Packets on a wire in either direction (stall diagnostics).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.data.in_flight() + self.ctl.in_flight()
    }

    /// Packets queued for injection in either direction.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.data.queued() + self.ctl.queued()
    }

    /// Segments awaiting an ACK across all flows.
    #[must_use]
    pub fn unacked(&self) -> usize {
        self.tx.iter().map(|f| f.unacked.len()).sum()
    }

    /// A monotone progress mark for the forward-progress watchdog:
    /// advances on exactly-once deliveries, retired ACKs, and flow
    /// resets — deliberately *not* on retransmits, so an unproductive
    /// retransmit storm still counts as a stall.
    #[must_use]
    pub fn progress_mark(&self) -> u64 {
        self.stats.delivered + self.stats.acks + self.stats.flows_reset
    }

    /// Per-flow retransmit-queue diagnostics, busiest flows first
    /// (flows with nothing unacked are omitted).
    #[must_use]
    pub fn flow_diagnostics(&self, now: Cycle) -> Vec<FlowDiag> {
        let mut out: Vec<FlowDiag> = self
            .tx
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.unacked.is_empty())
            .map(|(i, f)| FlowDiag {
                src: i / self.n_dsts,
                dst: i % self.n_dsts,
                unacked: f.unacked.len(),
                oldest_age: f
                    .unacked
                    .iter()
                    .map(|s| now.0.saturating_sub(s.first_sent.0))
                    .max()
                    .unwrap_or(0),
                max_retries: f.unacked.iter().map(|s| s.retries).max().unwrap_or(0),
            })
            .collect();
        out.sort_by_key(|d| (std::cmp::Reverse(d.oldest_age), d.src, d.dst));
        out
    }

    /// Whether every queue, wire, retransmit queue, and reorder buffer
    /// is drained. Only then has every sent payload been delivered and
    /// acknowledged.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.data.is_idle()
            && self.ctl.is_idle()
            && (!self.enabled
                || (self.tx.iter().all(|f| f.unacked.is_empty())
                    && self.rx.iter().all(|f| f.buffer.is_empty())))
    }

    /// Resets both ends of every flow *into* destination port `dst`
    /// (e.g. the request net's flows into a crashed L2 bank). Returns
    /// the number of flows that carried state.
    pub fn reset_flows_to_dst(&mut self, dst: usize, now: Cycle) -> usize {
        let n_dsts = self.n_dsts;
        let flows: Vec<usize> = (0..self.tx.len()).filter(|f| f % n_dsts == dst).collect();
        self.reset_flows(&flows, now)
    }

    /// Resets both ends of every flow *out of* source port `src` (e.g.
    /// the response net's flows from a crashed L2 bank).
    pub fn reset_flows_from_src(&mut self, src: usize, now: Cycle) -> usize {
        let n_dsts = self.n_dsts;
        let flows: Vec<usize> = (0..self.tx.len()).filter(|f| f / n_dsts == src).collect();
        self.reset_flows(&flows, now)
    }

    fn reset_flows(&mut self, flows: &[usize], now: Cycle) -> usize {
        let mut touched = 0;
        for &f in flows {
            let tx = &mut self.tx[f];
            let rx = &mut self.rx[f];
            let had_state = tx.next_seq > 0 || rx.next_expected > 0 || !rx.buffer.is_empty();
            // A flow reset is the one place the transport abandons
            // payloads for good (everywhere else a lost segment is
            // retransmitted), so it is the one terminal `Dropped` site.
            if let Some(probe) = self.span_probe {
                for sent in &tx.unacked {
                    self.spans
                        .close(probe(&sent.payload), CloseReason::Dropped, now);
                }
                for payload in rx.buffer.values() {
                    self.spans.close(probe(payload), CloseReason::Dropped, now);
                }
            }
            // Generation bump: segments and control messages of the old
            // generation still in flight are discarded on arrival, so
            // the restarted sequence space can never collide with them.
            tx.gen += 1;
            tx.next_seq = 0;
            tx.unacked.clear();
            rx.gen += 1;
            rx.next_expected = 0;
            rx.buffer.clear();
            rx.last_nack = None;
            if had_state {
                touched += 1;
                self.stats.flows_reset += 1;
            }
        }
        touched
    }

    /// Sends `payload` from `src` to `dst`. In passthrough mode this is
    /// a plain [`Network::send`]; when enabled, the payload is
    /// sequenced and tracked until acknowledged.
    pub fn send(&mut self, src: usize, dst: usize, bytes: usize, payload: T, now: Cycle) {
        if !self.enabled {
            let seg = DataSeg {
                src,
                gen: 0,
                seq: 0,
                payload,
            };
            self.data.send(src, dst, bytes, seg, now);
            return;
        }
        let flow = src * self.n_dsts + dst;
        let f = &mut self.tx[flow];
        let seq = f.next_seq;
        f.next_seq += 1;
        let seg = DataSeg {
            src,
            gen: f.gen,
            seq,
            payload: payload.clone(),
        };
        let deadline = now + self.tcfg.retransmit_timeout + self.jitter();
        self.next_deadline = self.next_deadline.min(deadline);
        self.tx[flow].unacked.push_back(Sent {
            seq,
            bytes,
            payload,
            first_sent: now,
            deadline,
            retries: 0,
        });
        self.data.send(src, dst, bytes, seg, now);
    }

    /// Seeded retransmit-timer jitter (decorrelates flows that would
    /// otherwise back off in lockstep).
    fn jitter(&mut self) -> u64 {
        self.rng.below(self.tcfg.retransmit_timeout / 8 + 1)
    }

    fn send_ack(&mut self, flow_src: usize, flow_dst: usize, gen: u32, cum: u64, now: Cycle) {
        let msg = CtlMsg {
            flow_src,
            flow_dst,
            gen,
            kind: CtlKind::Ack { cum },
        };
        self.ctl.send(flow_dst, flow_src, self.ctl_bytes, msg, now);
    }

    /// Sends a rate-limited NACK for the flow's next expected sequence
    /// number.
    fn send_nack(&mut self, flow_src: usize, flow_dst: usize, now: Cycle) {
        let flow = flow_src * self.n_dsts + flow_dst;
        let gap = self.tcfg.nack_min_gap;
        let rxf = &mut self.rx[flow];
        if rxf.last_nack.is_some_and(|t| now.0 - t.0 < gap) {
            return;
        }
        rxf.last_nack = Some(now);
        let expected = rxf.next_expected;
        let gen = rxf.gen;
        self.stats.nacks += 1;
        self.tracer.record_with(now, || EventKind::Nack {
            src: flow_src as u16,
            dst: flow_dst as u16,
            expected,
        });
        let msg = CtlMsg {
            flow_src,
            flow_dst,
            gen,
            kind: CtlKind::Nack { expected },
        };
        self.ctl.send(flow_dst, flow_src, self.ctl_bytes, msg, now);
    }

    /// Re-sends one unacked segment of `flow` (found by `seq`), either
    /// NACK-driven (`timeout == 0`) or after its timer expired.
    fn retransmit(&mut self, flow: usize, seq: u64, now: Cycle, via_nack: bool) {
        let (src, dst) = (flow / self.n_dsts, flow % self.n_dsts);
        let jitter = self.jitter();
        let gen = self.tx[flow].gen;
        let max_exp = self.tcfg.max_backoff_exp;
        let base = self.tcfg.retransmit_timeout;
        let Some(entry) = self.tx[flow].unacked.iter_mut().find(|s| s.seq == seq) else {
            return; // already acked or flow was reset
        };
        let expired_timeout = base << entry.retries.min(max_exp);
        entry.retries += 1;
        if entry.retries >= max_exp {
            self.stats.max_backoff_hits += 1;
        }
        entry.deadline = now + (base << entry.retries.min(max_exp)) + jitter;
        self.next_deadline = self.next_deadline.min(entry.deadline);
        let age = now.0.saturating_sub(entry.first_sent.0);
        let (bytes, payload) = (entry.bytes, entry.payload.clone());
        if let Some(probe) = self.span_probe {
            self.spans.note_retransmit(probe(&payload), now);
        }
        self.stats.retransmits += 1;
        if !via_nack {
            self.stats.timeouts += 1;
        }
        self.tracer.record_with(now, || EventKind::Retransmit {
            src: src as u16,
            dst: dst as u16,
            seq,
            age,
            timeout: if via_nack { 0 } else { expired_timeout },
            nack: via_nack,
        });
        let seg = DataSeg {
            src,
            gen,
            seq,
            payload,
        };
        self.data.send(src, dst, bytes, seg, now);
    }

    /// The earliest cycle at which [`ReliableNet::tick`] could release,
    /// inject or re-send anything, or change any counter or trace output,
    /// provided nothing is sent and no flow is reset first: the earlier
    /// of the two planes' own horizons and, when reliable delivery is on,
    /// the earliest retransmit deadline. May be early, never late.
    #[must_use]
    pub fn next_event_at(&self) -> Cycle {
        let data = self.data.next_event_at();
        if !self.enabled {
            return data;
        }
        data.min(self.ctl.next_event_at()).min(self.next_deadline)
    }

    /// Advances both networks to `now` and returns the payloads the
    /// transport releases this cycle: exactly once each, in per-flow
    /// FIFO order, as `(dst, payload)` — out of a buffer the transport
    /// keeps, so what the caller leaves unread is dropped, not released
    /// by a later tick.
    pub fn tick(&mut self, now: Cycle) -> std::vec::Drain<'_, (usize, T)> {
        if !self.enabled {
            let arrivals = self.data.tick(now);
            self.out
                .extend(arrivals.map(|(dst, seg)| (dst, seg.payload)));
            return self.out.drain(..);
        }
        if now < self.next_event_at() {
            debug_assert!(
                now < self.data.earliest_event()
                    && now < self.ctl.earliest_event()
                    && (self.tx.iter().flat_map(|f| &f.unacked)).all(|s| now < s.deadline),
                "transport horizon {} is late: a full pass at {now} finds work",
                self.next_event_at()
            );
            return self.out.drain(..);
        }
        // 1. Control plane first: ACKs retire retransmit state before
        //    the timer scan below, NACKs trigger immediate resends. Each
        //    plane's delivery buffer is borrowed for the loop that sends
        //    on that very plane, and handed back empty.
        self.ctl.advance(now);
        let mut ctl_msgs = std::mem::take(&mut self.ctl.out);
        for (_, msg) in ctl_msgs.drain(..) {
            let flow = msg.flow_src * self.n_dsts + msg.flow_dst;
            if msg.gen != self.tx[flow].gen {
                continue; // stale generation: flow was reset since
            }
            match msg.kind {
                CtlKind::Ack { cum } => {
                    let f = &mut self.tx[flow];
                    while f.unacked.front().is_some_and(|s| s.seq <= cum) {
                        f.unacked.pop_front();
                        self.stats.acks += 1;
                    }
                }
                CtlKind::Nack { expected } => {
                    self.retransmit(flow, expected, now, true);
                }
            }
        }
        self.ctl.out = ctl_msgs;
        // Corrupted control messages carry nothing actionable; the
        // retransmit timers cover the lost ACK/NACK.
        let _ = self.ctl.take_corrupted();

        // 2. Data plane: sequence-check every arrival.
        self.data.advance(now);
        let mut arrivals = std::mem::take(&mut self.data.out);
        for (dst, seg) in arrivals.drain(..) {
            let flow = seg.src * self.n_dsts + dst;
            if seg.gen != self.rx[flow].gen {
                self.stats.dup_dropped += 1; // stale generation
                continue;
            }
            let next = self.rx[flow].next_expected;
            if seg.seq < next {
                // Duplicate of something already released: the ACK may
                // have been lost, so re-ACK cumulatively.
                self.stats.dup_dropped += 1;
                let gen = seg.gen;
                self.send_ack(seg.src, dst, gen, next - 1, now);
            } else if seg.seq == next {
                // In-order: release it and everything it unblocks.
                let src = seg.src;
                let gen = seg.gen;
                self.out.push((dst, seg.payload));
                self.stats.delivered += 1;
                let rxf = &mut self.rx[flow];
                rxf.next_expected += 1;
                while let Some(payload) = rxf.buffer.remove(&rxf.next_expected) {
                    self.out.push((dst, payload));
                    rxf.next_expected += 1;
                    self.stats.delivered += 1;
                }
                let cum = self.rx[flow].next_expected - 1;
                self.send_ack(src, dst, gen, cum, now);
            } else {
                // Gap: hold out-of-order arrival, ask for the missing
                // segment (rate-limited).
                let src = seg.src;
                let rxf = &mut self.rx[flow];
                if rxf.buffer.insert(seg.seq, seg.payload).is_some() {
                    self.stats.dup_dropped += 1;
                }
                self.send_nack(src, dst, now);
            }
        }
        self.data.out = arrivals;
        // 3. Corrupted data arrivals: header survives, payload did not
        //    — NACK so the sender re-sends without waiting a timeout.
        for (src, dst) in self.data.take_corrupted() {
            self.send_nack(src, dst, now);
        }
        // 4. Retransmit timers (after ACK processing so nothing just
        //    acked re-fires). The scan runs only once a deadline may have
        //    come, and leaves the exact earliest one behind.
        if now >= self.next_deadline {
            let mut due: Vec<(usize, u64)> = Vec::new();
            self.next_deadline = Cycle(u64::MAX);
            for (flow, f) in self.tx.iter().enumerate() {
                for s in &f.unacked {
                    if now >= s.deadline {
                        due.push((flow, s.seq));
                    } else {
                        self.next_deadline = self.next_deadline.min(s.deadline);
                    }
                }
            }
            for (flow, seq) in due {
                self.retransmit(flow, seq, now, false);
            }
        }
        self.out.drain(..)
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

impl<T: Snap> Snap for DataSeg<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.src.save(w);
        self.gen.save(w);
        self.seq.save(w);
        self.payload.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DataSeg {
            src: Snap::load(r)?,
            gen: Snap::load(r)?,
            seq: Snap::load(r)?,
            payload: Snap::load(r)?,
        })
    }
}

impl Snap for CtlKind {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            CtlKind::Ack { cum } => {
                w.u8(0);
                cum.save(w);
            }
            CtlKind::Nack { expected } => {
                w.u8(1);
                expected.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(CtlKind::Ack {
                cum: Snap::load(r)?,
            }),
            1 => Ok(CtlKind::Nack {
                expected: Snap::load(r)?,
            }),
            t => Err(SnapshotError::Malformed {
                context: format!("CtlKind tag {t}"),
            }),
        }
    }
}

gtsc_types::snap_fields!(CtlMsg {
    flow_src,
    flow_dst,
    gen,
    kind,
});

impl<T: Snap> Snap for Sent<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.seq.save(w);
        self.bytes.save(w);
        self.payload.save(w);
        self.first_sent.save(w);
        self.deadline.save(w);
        self.retries.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Sent {
            seq: Snap::load(r)?,
            bytes: Snap::load(r)?,
            payload: Snap::load(r)?,
            first_sent: Snap::load(r)?,
            deadline: Snap::load(r)?,
            retries: Snap::load(r)?,
        })
    }
}

impl<T: Snap> Snap for TxFlow<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.gen.save(w);
        self.next_seq.save(w);
        self.unacked.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TxFlow {
            gen: Snap::load(r)?,
            next_seq: Snap::load(r)?,
            unacked: Snap::load(r)?,
        })
    }
}

impl<T: Snap> Snap for RxFlow<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.gen.save(w);
        self.next_expected.save(w);
        self.buffer.save(w);
        self.last_nack.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RxFlow {
            gen: Snap::load(r)?,
            next_expected: Snap::load(r)?,
            buffer: Snap::load(r)?,
            last_nack: Snap::load(r)?,
        })
    }
}

impl<T: Snap> ReliableNet<T> {
    /// Serializes the dynamic transport state: both underlying networks,
    /// the enabled flag, every sender/receiver flow (retransmit queues,
    /// reorder buffers, generations), the backoff-jitter RNG stream, and
    /// the counters. `tcfg`, `ctl_bytes`, the port geometry, and the
    /// tracers are config-derived and come from the wrapper being
    /// restored into.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.data.save_state(w);
        self.ctl.save_state(w);
        self.enabled.save(w);
        self.tx.save(w);
        self.rx.save(w);
        self.rng.save(w);
        self.stats.save(w);
    }

    /// Restores state saved by [`ReliableNet::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] if the flow geometry differs; any
    /// decoding error on corrupt input.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.data.load_state(r)?;
        self.ctl.load_state(r)?;
        let enabled: bool = Snap::load(r)?;
        let tx: Vec<TxFlow<T>> = Snap::load(r)?;
        let rx: Vec<RxFlow<T>> = Snap::load(r)?;
        let rng: SplitMix64 = Snap::load(r)?;
        let stats: TransportStats = Snap::load(r)?;
        if tx.len() != self.tx.len() || rx.len() != self.rx.len() {
            return Err(SnapshotError::Mismatch {
                what: "transport flow geometry".into(),
            });
        }
        self.enabled = enabled;
        self.tx = tx;
        self.rx = rx;
        self.rng = rng;
        self.stats = stats;
        self.next_deadline = Cycle(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_faults::FaultPlan;
    use gtsc_types::FaultConfig;
    use proptest::prelude::*;

    /// Small timeouts so drained test runs stay fast.
    fn test_tcfg() -> TransportConfig {
        TransportConfig {
            retransmit_timeout: 64,
            max_backoff_exp: 4,
            nack_min_gap: 32,
            retry_timeout: 2048,
        }
    }

    fn lossy_net(seed: u64, drop_permille: u16) -> ReliableNet<usize> {
        let mut net = ReliableNet::new(3, 3, NocConfig::default(), test_tcfg());
        let plan = FaultPlan::new(FaultConfig::lossy(seed, drop_permille));
        net.set_faults(plan.noc(0), plan.noc(2));
        net.enable(seed ^ 0x7261_6E64);
        net
    }

    /// Drives `net` until idle (or the horizon trips), collecting
    /// deliveries as `(cycle, dst, payload)`.
    fn drain(net: &mut ReliableNet<usize>, from: u64, horizon: u64) -> Vec<(u64, usize, usize)> {
        let mut out = Vec::new();
        for c in from..from + horizon {
            for (d, p) in net.tick(Cycle(c)) {
                out.push((c, d, p));
            }
            if net.is_idle() {
                break;
            }
        }
        out
    }

    /// The satellite contract: across many seeds, heavy drop/corrupt
    /// storms still deliver every payload exactly once, in per-flow
    /// FIFO order, and the transport drains to idle.
    fn exactly_once_one_seed(seed: u64, drop_permille: u16) {
        let mut net = lossy_net(seed, drop_permille);
        let mut flows = Vec::new();
        for i in 0..40usize {
            let (src, dst) = (i % 3, (i / 3) % 3);
            net.send(src, dst, 8 + (i % 160), i, Cycle(i as u64));
            flows.push((src, dst));
        }
        let got = drain(&mut net, 40, 2_000_000);
        assert!(net.is_idle(), "seed {seed}: transport failed to drain");
        let mut seen = vec![0u32; flows.len()];
        for &(_, dst, p) in &got {
            assert_eq!(dst, flows[p].1, "seed {seed}: misrouted payload {p}");
            seen[p] += 1;
        }
        for (p, &n) in seen.iter().enumerate() {
            assert_eq!(n, 1, "seed {seed}: payload {p} delivered {n} times");
        }
        // Per-flow FIFO: payload indices are send-ordered per flow.
        let order: Vec<usize> = got.iter().map(|&(_, _, p)| p).collect();
        for a in 0..order.len() {
            for b in a + 1..order.len() {
                if flows[order[a]] == flows[order[b]] {
                    assert!(
                        order[a] < order[b],
                        "seed {seed}: flow {:?} reordered — {} after {}",
                        flows[order[a]],
                        order[a],
                        order[b],
                    );
                }
            }
        }
        let ts = net.transport_stats();
        assert_eq!(ts.delivered, flows.len() as u64);
    }

    #[test]
    fn exactly_once_across_100_plus_seeds_at_5_percent_drop() {
        for seed in 0..104u64 {
            exactly_once_one_seed(seed, 50);
        }
    }

    #[test]
    fn exactly_once_survives_30_percent_drop() {
        for seed in 0..8u64 {
            exactly_once_one_seed(seed, 300);
        }
    }

    #[test]
    fn passthrough_mode_is_transparent_and_silent() {
        let mut net: ReliableNet<usize> =
            ReliableNet::new(2, 2, NocConfig::default(), TransportConfig::default());
        assert!(!net.is_enabled());
        for i in 0..10 {
            net.send(i % 2, (i / 2) % 2, 64, i, Cycle(0));
        }
        let got = drain(&mut net, 0, 10_000);
        assert_eq!(got.len(), 10);
        assert!(net.is_idle());
        assert_eq!(net.transport_stats(), TransportStats::default());
        assert_eq!(net.unacked(), 0);
        // No control traffic was ever generated.
        assert_eq!(net.stats().packets, 10);
        assert!(net.flow_diagnostics(Cycle(10_000)).is_empty());
    }

    #[test]
    fn enabled_fault_free_path_stays_exact_with_acks() {
        let mut net: ReliableNet<usize> = ReliableNet::new(2, 2, NocConfig::default(), test_tcfg());
        net.enable(7);
        for i in 0..12 {
            net.send(i % 2, (i / 2) % 2, 64, i, Cycle(0));
        }
        let got = drain(&mut net, 0, 100_000);
        assert_eq!(got.len(), 12, "each payload exactly once");
        assert!(net.is_idle(), "all segments acked");
        let ts = net.transport_stats();
        assert_eq!(ts.delivered, 12);
        assert_eq!(ts.acks, 12);
        assert_eq!(ts.dup_dropped, 0);
        // Data + ACK packets both count as NoC traffic.
        assert!(net.stats().packets >= 24);
    }

    #[test]
    fn corruption_triggers_nack_driven_retransmit() {
        // Corrupt-only faults (no drops): every corrupted arrival must
        // be recovered via NACK + retransmit.
        let cfg = FaultConfig {
            seed: 5,
            noc_corrupt_permille: 400,
            ..FaultConfig::default()
        };
        let mut net: ReliableNet<usize> = ReliableNet::new(2, 2, NocConfig::default(), test_tcfg());
        let plan = FaultPlan::new(cfg);
        net.set_faults(plan.noc(0), None);
        net.enable(5);
        for i in 0..30 {
            net.send(i % 2, (i / 2) % 2, 64, i, Cycle(i as u64));
        }
        let got = drain(&mut net, 30, 1_000_000);
        assert_eq!(got.len(), 30);
        assert!(net.is_idle());
        let ts = net.transport_stats();
        assert!(ts.retransmits > 0, "corruption must force retransmits");
        assert!(ts.nacks > 0, "corrupted arrivals must be NACKed");
        let fs = net.fault_stats().unwrap();
        assert!(fs.corrupted > 0, "the injector must actually corrupt");
    }

    #[test]
    fn flow_reset_discards_stale_traffic_and_recovers() {
        let mut net = lossy_net(3, 100);
        for i in 0..12usize {
            net.send(i % 3, 1, 64, i, Cycle(0)); // everything to dst 1
        }
        // Let some (but not necessarily all) traffic land, then crash
        // destination port 1 mid-flight.
        let mut pre = Vec::new();
        for c in 0..200u64 {
            pre.extend(net.tick(Cycle(c)));
        }
        let touched = net.reset_flows_to_dst(1, Cycle(0));
        assert!(touched > 0, "flows into dst 1 carried state");
        assert!(net.transport_stats().flows_reset > 0);
        // Post-reset traffic restarts at seq 0 on a new generation and
        // must still deliver exactly once despite stale in-flight
        // segments and ACKs of the old generation.
        for i in 100..112usize {
            net.send(i % 3, 1, 64, i, Cycle(200));
        }
        let post = drain(&mut net, 200, 2_000_000);
        assert!(net.is_idle(), "reset must not wedge the transport");
        let fresh: Vec<usize> = post
            .iter()
            .map(|&(_, _, p)| p)
            .filter(|&p| p >= 100)
            .collect();
        let mut uniq = fresh.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 12, "every post-reset payload arrives");
        assert_eq!(fresh.len(), 12, "exactly once each");
    }

    #[test]
    fn reset_from_src_clears_response_flows() {
        let mut net = lossy_net(11, 80);
        for i in 0..9usize {
            net.send(1, i % 3, 64, i, Cycle(0)); // everything from src 1
        }
        for c in 0..150u64 {
            net.tick(Cycle(c));
        }
        net.reset_flows_from_src(1, Cycle(0));
        for i in 50..59usize {
            net.send(1, i % 3, 64, i, Cycle(150));
        }
        let post = drain(&mut net, 150, 2_000_000);
        assert!(net.is_idle());
        let fresh: Vec<usize> = post
            .iter()
            .map(|&(_, _, p)| p)
            .filter(|&p| p >= 50)
            .collect();
        assert_eq!(fresh.len(), 9, "exactly once each after src reset");
    }

    #[test]
    fn partition_window_is_ridden_out_by_retransmits() {
        use gtsc_faults::LinkFaults;
        // Fault-free wire, but the (0 -> 1) link goes down for cycles
        // [100, 2000): everything injected inside the window vanishes,
        // yet the transport delivers all of it once the window closes.
        let mut net: ReliableNet<usize> = ReliableNet::new(2, 2, NocConfig::default(), test_tcfg());
        net.enable(9);
        let lf = LinkFaults::from_windows(&[(100, 2000)]);
        net.set_link_faults(0, 1, Some(lf));
        assert!(!net.link_down(0, 1, Cycle(99)));
        assert!(net.link_down(0, 1, Cycle(100)));
        assert!(net.link_down(0, 1, Cycle(1999)));
        assert!(!net.link_down(0, 1, Cycle(2000)));
        // Send straight into the down window, on both the partitioned
        // flow and a healthy one.
        for i in 0..10usize {
            net.send(0, 1, 64, i, Cycle(150 + i as u64));
        }
        net.send(1, 0, 64, 99, Cycle(150));
        let got = drain(&mut net, 150, 1_000_000);
        assert!(net.is_idle(), "partition must not wedge the transport");
        let to_1: Vec<usize> = got
            .iter()
            .filter(|&&(_, d, _)| d == 1)
            .map(|&(_, _, p)| p)
            .collect();
        assert_eq!(to_1, (0..10).collect::<Vec<_>>(), "FIFO across the window");
        // Nothing can cross before the window closes.
        let first_arrival = got
            .iter()
            .filter(|&&(_, d, _)| d == 1)
            .map(|&(c, _, _)| c)
            .min()
            .unwrap();
        assert!(
            first_arrival >= 2000,
            "payload crossed a down link at cycle {first_arrival}"
        );
        // The healthy reverse flow was never disturbed.
        let to_0: Vec<(u64, usize)> = got
            .iter()
            .filter(|&&(_, d, _)| d == 0)
            .map(|&(c, _, p)| (c, p))
            .collect();
        assert_eq!(to_0.len(), 1);
        assert_eq!(to_0[0].1, 99);
        assert!(to_0[0].0 < 2000, "healthy flow delayed by the partition");
        let ts = net.transport_stats();
        assert!(ts.retransmits > 0, "the window must force retransmits");
    }

    #[test]
    fn partition_drops_reverse_acks_too() {
        use gtsc_faults::LinkFaults;
        // A delivered payload whose ACK falls inside the (reverse) down
        // window: the sender times out and re-sends, the receiver dedups
        // and re-ACKs after the window — still exactly once.
        let mut net: ReliableNet<usize> = ReliableNet::new(2, 2, NocConfig::default(), test_tcfg());
        net.enable(31);
        // Window opens right after the data packet lands (~latency 12),
        // so the segment crosses but its ACK is partitioned away.
        let lf = LinkFaults::from_windows(&[(10, 1500)]);
        net.set_link_faults(0, 1, Some(lf));
        net.send(0, 1, 64, 7, Cycle(0));
        let got = drain(&mut net, 0, 1_000_000);
        assert!(net.is_idle());
        let payloads: Vec<usize> = got.iter().map(|&(_, _, p)| p).collect();
        assert_eq!(payloads, vec![7], "exactly once despite lost ACKs");
        let ts = net.transport_stats();
        assert!(
            ts.dup_dropped > 0 || ts.retransmits > 0,
            "the lost ACK must surface in the stats: {ts:?}"
        );
    }

    #[test]
    fn backoff_escalates_and_is_capped() {
        // 100% drop on data: nothing ever arrives, every timeout fires,
        // retries climb into the backoff cap.
        let cfg = FaultConfig {
            seed: 2,
            noc_drop_permille: 1000,
            ..FaultConfig::default()
        };
        let mut net: ReliableNet<usize> = ReliableNet::new(2, 2, NocConfig::default(), test_tcfg());
        let plan = FaultPlan::new(cfg);
        net.set_faults(plan.noc(0), None);
        net.enable(2);
        net.send(0, 1, 64, 9, Cycle(0));
        for c in 0..30_000u64 {
            let out = net.tick(Cycle(c));
            assert_eq!(out.len(), 0, "nothing can arrive at 100% drop");
        }
        let ts = net.transport_stats();
        assert!(ts.timeouts >= 3, "timer must keep firing");
        assert!(ts.max_backoff_hits > 0, "cap must be reached");
        // Backoff bounds the storm: with base 64 and cap 2^4, 30k
        // cycles admit at most ~35 sends of this one segment.
        assert!(ts.retransmits < 40, "backoff failed: {ts:?}");
        let diags = net.flow_diagnostics(Cycle(30_000));
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].src, diags[0].dst), (0, 1));
        assert_eq!(diags[0].unacked, 1);
        assert!(diags[0].oldest_age >= 29_000);
        assert!(diags[0].max_retries > 3);
        assert!(!net.is_idle(), "unacked segment holds idle off");
    }

    proptest! {
        /// Proptest form of the exactly-once contract: random traffic
        /// patterns, random seeds, random loss rates.
        #[test]
        fn exactly_once_delivery_proptest(
            sends in proptest::collection::vec((0usize..3, 0usize..3, 1usize..200, 0u64..20), 1..50),
            seed in 0u64..10_000,
            drop in 1u16..200,
        ) {
            let mut net = lossy_net(seed, drop);
            let mut cycle = 0u64;
            let mut flows = Vec::new();
            let mut got = Vec::new();
            for (p, (src, dst, bytes, gap)) in sends.iter().enumerate() {
                for c in cycle..cycle + gap {
                    got.extend(net.tick(Cycle(c)).map(|(d, x)| (c, d, x)));
                }
                cycle += gap;
                net.send(*src, *dst, *bytes, p, Cycle(cycle));
                flows.push((*src, *dst));
            }
            got.extend(drain(&mut net, cycle, 3_000_000));
            prop_assert!(net.is_idle(), "transport failed to drain");
            let mut seen = vec![0u32; flows.len()];
            for &(_, dst, p) in &got {
                prop_assert_eq!(dst, flows[p].1);
                seen[p] += 1;
            }
            for (p, &n) in seen.iter().enumerate() {
                prop_assert_eq!(n, 1, "payload {} delivered {} times", p, n);
            }
            // Per-flow FIFO over the released order.
            let order: Vec<usize> = got.iter().map(|&(_, _, p)| p).collect();
            for a in 0..order.len() {
                for b in a + 1..order.len() {
                    if flows[order[a]] == flows[order[b]] {
                        prop_assert!(order[a] < order[b]);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The horizon is invisible: a transport — armed and lossy, or in
        /// passthrough — ticked only from `next_event_at()` on releases
        /// what one ticked every cycle does, in the same cycles — so every
        /// ACK, NACK and retransmit timer fired when it should — and is
        /// byte for byte the same transport at every cycle, through flow
        /// resets, a restore into a twin that has already idled, and when
        /// a caller ticks ahead of time and then comes back (the
        /// benchmark's rungs do). So are the reused buffers: a third twin
        /// drops every other result unread or half-read, and what it does
        /// read is still exactly that cycle's releases.
        #[test]
        fn horizon_ticks_match_a_tick_every_cycle(
            script in proptest::collection::vec((0u64..80, 0usize..3, 0usize..3, 1usize..200, 0u8..14), 1..50),
            seed in 0u64..10_000,
            drop in 1u16..300,
            armed in 0u8..4,
        ) {
            use gtsc_types::snap::{SnapReader, SnapWriter};
            let image = |net: &ReliableNet<usize>| {
                let mut w = SnapWriter::new();
                net.save_state(&mut w);
                w.into_bytes()
            };
            let build = || match armed {
                0 => ReliableNet::new(3, 3, NocConfig::default(), test_tcfg()),
                _ => lossy_net(seed, drop),
            };
            let (mut eager, mut lazy, mut sloppy) = (build(), build(), build());
            let mut now = 0u64;
            let idle_tail = [(60_000, 0, 0, 1, u8::MAX)];
            for (i, &(gap, src, dst, bytes, what)) in script.iter().chain(&idle_tail).enumerate() {
                for c in now..=now + gap {
                    if c == now + gap {
                        match what {
                            0 => {
                                // Crash here: a twin that sat idle takes the image over.
                                for twin in [&mut lazy, &mut sloppy] {
                                    let bytes = image(twin);
                                    *twin = build();
                                    twin.tick(Cycle(0));
                                    twin.load_state(&mut SnapReader::new(&bytes)).expect("same geometry");
                                }
                            }
                            1 => {
                                let want: Vec<_> = eager.tick(Cycle(c + 15)).collect();
                                prop_assert_eq!(lazy.tick(Cycle(c + 15)).collect::<Vec<_>>(), want);
                                sloppy.tick(Cycle(c + 15));
                            }
                            2 => {
                                let reset = lazy.reset_flows_to_dst(dst, Cycle(c));
                                prop_assert_eq!(reset, eager.reset_flows_to_dst(dst, Cycle(c)));
                                sloppy.reset_flows_to_dst(dst, Cycle(c));
                            }
                            u8::MAX => {}
                            _ => {
                                for net in [&mut eager, &mut lazy, &mut sloppy] {
                                    net.send(src, dst, bytes, i, Cycle(c));
                                }
                            }
                        }
                    }
                    let want: Vec<_> = eager.tick(Cycle(c)).collect();
                    if Cycle(c) < lazy.next_event_at() {
                        prop_assert!(want.is_empty(), "cycle {}: slept through {:?}", c, want);
                    } else {
                        prop_assert_eq!(lazy.tick(Cycle(c)).collect::<Vec<_>>(), &want[..], "cycle {}", c);
                    }
                    prop_assert!(image(&lazy) == image(&eager), "cycle {}", c);
                    let read = [0, want.len() / 2, want.len()][(c % 3) as usize];
                    let got: Vec<_> = sloppy.tick(Cycle(c)).take(read).collect();
                    prop_assert_eq!(got, &want[..read], "cycle {}: a dropped release resurfaced", c);
                    prop_assert!(image(&sloppy) == image(&eager), "cycle {}", c);
                    if what == u8::MAX && eager.is_idle() {
                        break;
                    }
                }
                now += gap + 1;
            }
            prop_assert!(eager.is_idle() && lazy.is_idle() && sloppy.is_idle());
            prop_assert_eq!(lazy.fault_stats(), eager.fault_stats());
        }
    }

    #[test]
    fn snapshot_mid_storm_resumes_byte_identically() {
        use gtsc_types::snap::{SnapReader, SnapWriter};
        // Drive a lossy transport into the middle of a retransmit storm,
        // snapshot, restore into a freshly-built wrapper, and check that
        // both copies replay the identical future.
        let build = || lossy_net(23, 200);
        let mut orig = build();
        for i in 0..30usize {
            orig.send(i % 3, (i / 3) % 3, 8 + i, i, Cycle(i as u64));
        }
        for c in 30..400u64 {
            orig.tick(Cycle(c)); // leave unacked segments + reorder state
        }
        let mut w = SnapWriter::new();
        orig.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut copy = build();
        let mut r = SnapReader::new(&bytes);
        copy.load_state(&mut r).expect("restore");
        r.expect_end("transport snapshot").expect("fully consumed");

        // A second save must be byte-identical (the S3 contract).
        let mut w2 = SnapWriter::new();
        copy.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "save -> load -> save is stable");

        let mut log_a = Vec::new();
        let mut log_b = Vec::new();
        for c in 400..2_000_400u64 {
            log_a.extend(orig.tick(Cycle(c)).map(|(d, p)| (c, d, p)));
            log_b.extend(copy.tick(Cycle(c)).map(|(d, p)| (c, d, p)));
            if orig.is_idle() && copy.is_idle() {
                break;
            }
        }
        assert!(orig.is_idle() && copy.is_idle());
        assert_eq!(log_a, log_b, "restored transport replays the future");
        assert_eq!(orig.transport_stats(), copy.transport_stats());
        assert_eq!(orig.fault_stats(), copy.fault_stats());
        // Everything sent pre-snapshot is delivered exactly once across
        // the pre-snapshot and post-restore halves combined.
        let ts = copy.transport_stats();
        assert_eq!(ts.delivered, 30);
    }

    #[test]
    fn snapshot_geometry_mismatch_is_rejected() {
        use gtsc_types::snap::{SnapReader, SnapWriter, SnapshotError};
        let orig = lossy_net(1, 100); // 3x3
        let mut w = SnapWriter::new();
        orig.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other: ReliableNet<usize> =
            ReliableNet::new(2, 2, NocConfig::default(), test_tcfg());
        let mut r = SnapReader::new(&bytes);
        let err = other.load_state(&mut r);
        assert!(
            matches!(
                err,
                Err(SnapshotError::Mismatch { .. } | SnapshotError::Malformed { .. })
            ),
            "wrong geometry must be rejected: {err:?}"
        );
    }

    #[test]
    fn transport_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut net = lossy_net(seed, 120);
            for i in 0..30usize {
                net.send(i % 3, (i / 3) % 3, 8 + i, i, Cycle(i as u64));
            }
            let log = drain(&mut net, 30, 2_000_000);
            (log, net.transport_stats(), net.fault_stats().unwrap())
        };
        let (la, ta, fa) = run(17);
        let (lb, tb, fb) = run(17);
        assert_eq!(la, lb, "same seed replays byte-for-byte");
        assert_eq!(ta, tb);
        assert_eq!(fa, fb);
        let (lc, _, _) = run(18);
        assert_ne!(la, lc, "different seeds should differ");
    }
}
