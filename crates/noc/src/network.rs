//! The raw lossy [`Network`]: per-source injection queues, port
//! serialization, and the wires. A module of its own so that its
//! injection queues stay private to it — [`crate::transport`] reaches
//! them only through [`Network::send`], which is what keeps every
//! packet on the reliable transport's sequencing.

use std::collections::VecDeque;

use gtsc_faults::{FaultStats, LinkFaults, NocFaults};
use gtsc_trace::{EventKind, Probe};
use gtsc_types::{Cycle, NocConfig, NocStats, NocTopology};

/// A queued or in-flight packet.
#[derive(Debug, Clone)]
struct Packet<T> {
    dst: usize,
    bytes: usize,
    payload: T,
    enqueued: Cycle,
}

#[derive(Debug, Clone)]
struct InFlight<T> {
    arrives: Cycle,
    src: usize,
    dst: usize,
    payload: T,
    enqueued: Cycle,
    /// Fault-injected duplicate: delivered like any packet but excluded
    /// from the latency counters (it is not a real packet).
    is_dup: bool,
    /// Fault-injected corruption: the payload is unusable on arrival;
    /// only the `(src, dst)` header is surfaced, via
    /// [`Network::take_corrupted`].
    is_corrupt: bool,
}

/// One direction of the SM ⇄ L2 interconnect.
///
/// `T` is the message type carried. Packets injected by the same source
/// port share that port's injection bandwidth
/// ([`NocConfig::flits_per_cycle`]); once injected they arrive after
/// [`NocConfig::latency`] cycles.
#[derive(Debug)]
pub struct Network<T> {
    cfg: NocConfig,
    n_srcs: usize,
    n_dsts: usize,
    /// Per-source waiting packets.
    queues: Vec<VecDeque<Packet<T>>>,
    /// Cycle at which each source port finishes its current injection.
    port_free: Vec<Cycle>,
    inflight: Vec<InFlight<T>>,
    /// `inflight[i].arrives`, kept in lockstep (pushed and `swap_remove`d
    /// together): the delivery scan reads one word per packet on a wire
    /// instead of walking payloads. Derived state, never snapshotted.
    arrivals: Vec<Cycle>,
    stats: NocStats,
    /// Optional fault injector (latency jitter, bounded reordering,
    /// duplicate delivery); `None` on the fault-free fast path.
    faults: Option<NocFaults>,
    /// Latest scheduled arrival per `(src, dst)` flow, indexed
    /// `src * n_dsts + dst`. Only consulted under fault injection: faults
    /// may delay or replay packets but never let one overtake earlier
    /// traffic of its own flow — deterministic-routing NoCs deliver each
    /// flow in FIFO order, and the coherence protocols soundly rely on
    /// that (e.g. two stores from one L1 to one block must reach the L2
    /// in program order).
    flow_last: Vec<u64>,
    /// Headers of corrupted packets that arrived since the last
    /// [`Network::take_corrupted`] call.
    corrupted: Vec<(usize, usize)>,
    /// Scheduled link-down windows per `(src, dst)` flow (fabric
    /// partitions), indexed `src * n_dsts + dst`. Empty when no
    /// partition is scheduled (the common case — the inner `Vec` stays
    /// unallocated). Pure schedules: reconstructed from the fault plan
    /// at build time, not snapshotted.
    link_faults: Vec<Option<LinkFaults>>,
    /// Packets that vanished inside a link-down window.
    link_dropped: u64,
    probe: Probe,
    /// No tick before `inject_at` can inject anything unless a packet is
    /// sent first, none before `arrive_at` can deliver anything (see
    /// [`Network::next_event_at`]): a tick runs only the pass whose cycle
    /// has come, so one that only injects does not scan the wires. Derived
    /// state, never snapshotted: [`Network::send`] clears `inject_at`,
    /// [`Network::load_state`] both, an injection lowers `arrive_at`, and
    /// the pass that gets past either recomputes it — cached minima
    /// *beside* `queues` and `inflight`, whose order is a simulated result
    /// and stays as it is.
    inject_at: Cycle,
    arrive_at: Cycle,
    /// What the latest [`Network::tick`] delivered, lent out as a `Drain`
    /// — which leaves it empty however it is dropped (DESIGN.md §15.4).
    /// Volatile, never snapshotted.
    pub(crate) out: Vec<(usize, T)>,
}

impl<T> Network<T> {
    /// Creates a network with `n_srcs` source ports and `n_dsts`
    /// destination ports.
    ///
    /// # Panics
    ///
    /// Panics if a port count is zero or `cfg.flit_bytes`/
    /// `cfg.flits_per_cycle` is zero.
    #[must_use]
    pub fn new(n_srcs: usize, n_dsts: usize, cfg: NocConfig) -> Self {
        assert!(n_srcs > 0 && n_dsts > 0, "port counts must be nonzero");
        assert!(
            cfg.flit_bytes > 0 && cfg.flits_per_cycle > 0,
            "NoC bandwidth must be nonzero"
        );
        Network {
            cfg,
            n_srcs,
            n_dsts,
            queues: (0..n_srcs).map(|_| VecDeque::new()).collect(),
            port_free: vec![Cycle(0); n_srcs],
            inflight: Vec::new(),
            arrivals: Vec::new(),
            stats: NocStats::default(),
            faults: None,
            flow_last: vec![0; n_srcs * n_dsts],
            corrupted: Vec::new(),
            link_faults: Vec::new(),
            link_dropped: 0,
            probe: Probe::disabled(),
            inject_at: Cycle(0),
            arrive_at: Cycle(0),
            out: Vec::new(),
        }
    }

    /// Installs the network's probe (packet send/deliver events).
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// This network's probe (disabled unless the simulator installed
    /// one).
    #[must_use]
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Installs (or clears) a fault injector. The classic faults only
    /// ever *add* latency or duplicate deliveries — a packet still
    /// arrives no earlier than its fault-free schedule. Loss faults
    /// (drop/corrupt permille in the config) may additionally make a
    /// packet vanish at injection or arrive with an unusable payload
    /// (surfaced via [`Network::take_corrupted`]); a raw `Network`
    /// under loss faults is *not* live — wrap it in
    /// [`ReliableNet`](crate::ReliableNet) for that.
    pub fn set_faults(&mut self, faults: Option<NocFaults>) {
        self.faults = faults;
    }

    /// Installs (or clears) a scheduled link-down window set for the
    /// `(src, dst)` flow: every packet injected on the flow while a
    /// window is open vanishes at the wire, modelling a fabric
    /// partition. Like packet drops, partitions starve a raw `Network`
    /// of traffic permanently — wrap it in
    /// [`ReliableNet`](crate::ReliableNet), whose retransmit/backoff
    /// machinery redelivers once the window closes.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn set_link_faults(&mut self, src: usize, dst: usize, faults: Option<LinkFaults>) {
        assert!(
            src < self.n_srcs && dst < self.n_dsts,
            "link ({src}, {dst}) out of range"
        );
        if self.link_faults.is_empty() {
            if faults.is_none() {
                return;
            }
            self.link_faults = vec![None; self.n_srcs * self.n_dsts];
        }
        self.link_faults[src * self.n_dsts + dst] = faults;
    }

    /// Whether the `(src, dst)` link is inside a scheduled down window
    /// at `now`.
    #[must_use]
    pub fn link_down(&self, src: usize, dst: usize, now: Cycle) -> bool {
        self.link_faults
            .get(src * self.n_dsts + dst)
            .and_then(Option::as_ref)
            .is_some_and(|lf| lf.down(now.0))
    }

    /// Packets that vanished inside a link-down window so far.
    #[must_use]
    pub fn link_dropped(&self) -> u64 {
        self.link_dropped
    }

    /// Drains the headers `(src, dst)` of corrupted packets that
    /// arrived since the last call. The payloads are gone — the
    /// reliable-transport layer uses the headers to NACK the flows.
    pub fn take_corrupted(&mut self) -> Vec<(usize, usize)> {
        std::mem::take(&mut self.corrupted)
    }

    /// Fault-injection counters, when an injector is installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(NocFaults::stats)
    }

    /// Packets injected and currently on a wire (stall diagnostics).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Packets still waiting in source-port queues (stall diagnostics).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Wire latency from source port `src` to destination port `dst`:
    /// the pipeline latency, plus per-hop distance on a ring.
    #[must_use]
    pub fn wire_latency(&self, src: usize, dst: usize) -> u64 {
        match self.cfg.topology {
            NocTopology::Crossbar => self.cfg.latency,
            NocTopology::Ring { hop_latency } => {
                let ring = (self.n_srcs + self.n_dsts) as u64;
                let from = src as u64;
                let to = (self.n_srcs + dst) as u64;
                let hops = (to + ring - from) % ring;
                self.cfg.latency + hops * hop_latency
            }
        }
    }

    /// Number of flits a `bytes`-sized packet occupies.
    #[must_use]
    pub fn flits_for(&self, bytes: usize) -> u64 {
        (bytes.max(1)).div_ceil(self.cfg.flit_bytes) as u64
    }

    /// Enqueues a packet of `bytes` from source port `src` to destination
    /// port `dst` at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send(&mut self, src: usize, dst: usize, bytes: usize, payload: T, now: Cycle) {
        assert!(dst < self.n_dsts, "destination {dst} out of range");
        let flits = self.flits_for(bytes);
        self.stats.packets += 1;
        self.stats.flits += flits;
        if bytes > self.cfg.control_bytes {
            self.stats.data_packets += 1;
        } else {
            self.stats.control_packets += 1;
        }
        self.probe.emit(now, || EventKind::PacketSend {
            src: src as u16,
            dst: dst as u16,
            bytes: bytes as u32,
        });
        // The one push onto an injection queue: the queues are private to
        // this module, so every packet enters here (the simulator's by way
        // of `ReliableNet`).
        self.queues[src].push_back(Packet {
            dst,
            bytes,
            payload,
            enqueued: now,
        });
        self.inject_at = Cycle(0);
    }

    /// The earliest cycle at which [`Network::tick`] could deliver or
    /// inject anything, or change any counter or trace output, provided
    /// nothing is sent first: the earliest arrival on a wire, or the cycle
    /// the head of a non-empty source queue gets its port. May be early,
    /// never late; `Cycle(u64::MAX)` when only a send can wake the network.
    #[must_use]
    pub fn next_event_at(&self) -> Cycle {
        self.inject_at.min(self.arrive_at)
    }

    /// [`Network::next_event_at`], computed from scratch.
    pub(crate) fn earliest_event(&self) -> Cycle {
        let inject = self
            .queues
            .iter()
            .zip(&self.port_free)
            .filter_map(|(q, &free)| q.front().map(|head| free.max(head.enqueued)));
        let arrive = self.inflight.iter().map(|p| p.arrives);
        inject.chain(arrive).min().unwrap_or(Cycle(u64::MAX))
    }

    /// Whether all queues and wires are drained.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty() && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> NocStats {
        self.stats
    }
}

impl<T: Clone> Network<T> {
    /// Advances to cycle `now`: injects queued packets as port bandwidth
    /// frees up and returns `(dst, payload)` for every packet arriving at
    /// or before `now`.
    ///
    /// `T: Clone` because an installed fault injector may deliver a
    /// packet twice (duplicate-delivery fault); the fault-free path
    /// never clones. The deliveries live in a buffer the network keeps:
    /// whatever the caller leaves unread is dropped, never delivered by
    /// a later tick.
    pub fn tick(&mut self, now: Cycle) -> std::vec::Drain<'_, (usize, T)> {
        self.advance(now);
        self.out.drain(..)
    }

    /// [`Network::tick`] up to the hand-over: this cycle's deliveries are
    /// left in `out`, which the caller found empty and empties again (the
    /// armed transport takes the buffer while it answers the arrivals).
    pub(crate) fn advance(&mut self, now: Cycle) {
        debug_assert!(self.out.is_empty(), "the last tick's deliveries linger");
        if now < self.next_event_at() {
            debug_assert!(
                now < self.earliest_event(),
                "NoC horizon {} is late: a full pass at {now} finds work",
                self.next_event_at()
            );
            return;
        }
        if now >= self.inject_at {
            self.inject(now);
        }
        if now >= self.arrive_at {
            self.deliver(now);
        }
    }

    /// The injection pass: each source port serializes its queue
    /// head-of-line. Visits every queue, so the next `inject_at` is
    /// folded as it goes.
    fn inject(&mut self, now: Cycle) {
        let (cfg, n_srcs, n_dsts) = (self.cfg, self.n_srcs, self.n_dsts);
        let wire = |src: usize, dst: usize| match cfg.topology {
            NocTopology::Crossbar => cfg.latency,
            NocTopology::Ring { hop_latency } => {
                let ring = (n_srcs + n_dsts) as u64;
                let hops = ((n_srcs + dst) as u64 + ring - src as u64) % ring;
                cfg.latency + hops * hop_latency
            }
        };
        let mut inject_at = Cycle(u64::MAX);
        for (src, q) in self.queues.iter_mut().enumerate() {
            while let Some(head) = q.front() {
                let ready = self.port_free[src].max(head.enqueued);
                if ready > now {
                    inject_at = inject_at.min(ready);
                    break;
                }
                let start = now;
                let flits = (head.bytes.max(1)).div_ceil(self.cfg.flit_bytes) as u64;
                let inject_cycles = flits.div_ceil(self.cfg.flits_per_cycle as u64);
                let pkt = q.pop_front().expect("front checked above");
                self.stats.queue_cycles += start - pkt.enqueued;
                let done = start + inject_cycles;
                self.port_free[src] = done;
                // Scheduled partition: the link is down, the packet (and
                // any duplicate a fault would have spawned) vanishes at
                // the wire. Bandwidth was still consumed.
                if self
                    .link_faults
                    .get(src * n_dsts + pkt.dst)
                    .and_then(Option::as_ref)
                    .is_some_and(|lf| lf.down(start.0))
                {
                    self.link_dropped += 1;
                    self.probe.emit(now, || EventKind::PacketDrop {
                        src: src as u16,
                        dst: pkt.dst as u16,
                    });
                    continue;
                }
                let mut arrives = done + wire(src, pkt.dst);
                let mut corrupt = false;
                if let Some(f) = &mut self.faults {
                    let fate = f.perturb();
                    if fate.dropped {
                        // Loss fault: the packet (and any duplicate it
                        // would have spawned) vanishes on the wire. The
                        // injection bandwidth was still consumed.
                        self.probe.emit(now, || EventKind::PacketDrop {
                            src: src as u16,
                            dst: pkt.dst as u16,
                        });
                        continue;
                    }
                    corrupt = fate.corrupted;
                    arrives += fate.extra_delay;
                    // Per-flow FIFO clamp: delayed or replayed, a packet
                    // never overtakes earlier traffic of its own flow
                    // (see the `flow_last` field).
                    let flow = src * n_dsts + pkt.dst;
                    arrives = arrives.max(Cycle(self.flow_last[flow] + 1));
                    self.flow_last[flow] = arrives.0;
                    if let Some(lag) = fate.duplicate {
                        let dup_at = arrives + lag.max(1);
                        self.flow_last[flow] = dup_at.0;
                        self.arrivals.push(dup_at);
                        self.inflight.push(InFlight {
                            arrives: dup_at,
                            src,
                            dst: pkt.dst,
                            payload: pkt.payload.clone(),
                            enqueued: pkt.enqueued,
                            is_dup: true,
                            // Corruption hits the original copy only.
                            is_corrupt: false,
                        });
                    }
                }
                // The earlier of the two: a duplicate trails its original.
                self.arrive_at = self.arrive_at.min(arrives);
                self.arrivals.push(arrives);
                self.inflight.push(InFlight {
                    arrives,
                    src,
                    dst: pkt.dst,
                    payload: pkt.payload,
                    enqueued: pkt.enqueued,
                    is_dup: false,
                    is_corrupt: corrupt,
                });
            }
        }
        self.inject_at = inject_at;
    }

    /// The delivery pass, over `arrivals` — `inflight`'s order and its
    /// `swap_remove`s are exactly what a scan of the packets themselves
    /// would make them. Visits every wire, so the next `arrive_at` is
    /// folded as it goes.
    fn deliver(&mut self, now: Cycle) {
        let mut arrive_at = Cycle(u64::MAX);
        let mut i = 0;
        while i < self.arrivals.len() {
            if self.arrivals[i] <= now {
                self.arrivals.swap_remove(i);
                let p = self.inflight.swap_remove(i);
                if p.is_corrupt {
                    // The header survives; the payload does not.
                    self.probe.emit(now, || EventKind::PacketCorrupt {
                        src: p.src as u16,
                        dst: p.dst as u16,
                    });
                    self.corrupted.push((p.src, p.dst));
                    continue;
                }
                if !p.is_dup {
                    self.stats.total_packet_latency += now - p.enqueued;
                    self.probe.emit(now, || EventKind::PacketDeliver {
                        src: p.src as u16,
                        dst: p.dst as u16,
                    });
                }
                self.out.push((p.dst, p.payload));
            } else {
                arrive_at = arrive_at.min(self.arrivals[i]);
                i += 1;
            }
        }
        self.arrive_at = arrive_at;
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

impl<T: Snap> Snap for Packet<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.dst.save(w);
        self.bytes.save(w);
        self.payload.save(w);
        self.enqueued.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Packet {
            dst: Snap::load(r)?,
            bytes: Snap::load(r)?,
            payload: Snap::load(r)?,
            enqueued: Snap::load(r)?,
        })
    }
}

impl<T: Snap> Snap for InFlight<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.arrives.save(w);
        self.src.save(w);
        self.dst.save(w);
        self.payload.save(w);
        self.enqueued.save(w);
        self.is_dup.save(w);
        self.is_corrupt.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(InFlight {
            arrives: Snap::load(r)?,
            src: Snap::load(r)?,
            dst: Snap::load(r)?,
            payload: Snap::load(r)?,
            enqueued: Snap::load(r)?,
            is_dup: Snap::load(r)?,
            is_corrupt: Snap::load(r)?,
        })
    }
}

impl<T: Snap> Network<T> {
    /// Serializes the dynamic state: queues, port schedules, wire
    /// traffic, counters, fault-injector streams, flow clamps, and
    /// pending corruption headers. The geometry (`cfg`, port counts)
    /// and probe are config-derived and come from the network being
    /// restored into. `inflight` is written in its exact `Vec` order —
    /// delivery uses `swap_remove`, so the order is observable and must
    /// survive a round trip byte-for-byte.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.queues.save(w);
        self.port_free.save(w);
        self.inflight.save(w);
        self.stats.save(w);
        self.faults.save(w);
        self.flow_last.save(w);
        self.corrupted.save(w);
        // Link-down *schedules* are pure config (rebuilt from the fault
        // plan on restore); only the drop counter is dynamic.
        self.link_dropped.save(w);
    }

    /// Restores dynamic state saved by [`Network::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] if the snapshot's port geometry does
    /// not match this network's; any decoding error on corrupt input.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let queues: Vec<VecDeque<Packet<T>>> = Snap::load(r)?;
        let port_free: Vec<Cycle> = Snap::load(r)?;
        let inflight: Vec<InFlight<T>> = Snap::load(r)?;
        let stats: NocStats = Snap::load(r)?;
        let faults: Option<NocFaults> = Snap::load(r)?;
        let flow_last: Vec<u64> = Snap::load(r)?;
        let corrupted: Vec<(usize, usize)> = Snap::load(r)?;
        let link_dropped: u64 = Snap::load(r)?;
        if queues.len() != self.n_srcs
            || port_free.len() != self.n_srcs
            || flow_last.len() != self.n_srcs * self.n_dsts
        {
            return Err(SnapshotError::Mismatch {
                what: "network port geometry".into(),
            });
        }
        self.queues = queues;
        self.port_free = port_free;
        self.arrivals = inflight.iter().map(|p| p.arrives).collect();
        self.inflight = inflight;
        self.stats = stats;
        self.faults = faults;
        self.flow_last = flow_last;
        self.corrupted = corrupted;
        self.link_dropped = link_dropped;
        self.inject_at = Cycle(0);
        self.arrive_at = Cycle(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run<T: Clone>(net: &mut Network<T>, horizon: u64) -> Vec<(u64, usize, T)> {
        let mut out = Vec::new();
        for c in 0..horizon {
            for (dst, p) in net.tick(Cycle(c)) {
                out.push((c, dst, p));
            }
        }
        out
    }

    #[test]
    fn control_packet_latency_is_inject_plus_pipeline() {
        let cfg = NocConfig::default(); // 20 cyc, 32B flits, 1 flit/cyc
        let mut net: Network<u32> = Network::new(1, 1, cfg);
        net.send(0, 0, 8, 42, Cycle(0));
        let got = run(&mut net, 100);
        // 8B = 1 flit = 1 cycle injection + 20 latency = arrives at 21.
        assert_eq!(got, vec![(21, 0, 42)]);
    }

    fn one_flit_cfg() -> NocConfig {
        NocConfig {
            flits_per_cycle: 1,
            ..NocConfig::default()
        }
    }

    #[test]
    fn data_packets_take_more_flits() {
        let cfg = one_flit_cfg();
        let mut net: Network<u32> = Network::new(1, 1, cfg);
        net.send(0, 0, 136, 1, Cycle(0)); // 136B -> 5 flits
        assert_eq!(net.stats().flits, 5);
        assert_eq!(net.stats().data_packets, 1);
        let got = run(&mut net, 100);
        assert_eq!(got[0].0, 25); // 5 cycles inject + 20 latency
    }

    #[test]
    fn same_port_serializes_different_ports_overlap() {
        let cfg = one_flit_cfg();
        let mut a: Network<u32> = Network::new(2, 1, cfg);
        a.send(0, 0, 136, 1, Cycle(0));
        a.send(0, 0, 136, 2, Cycle(0));
        let got_serial = run(&mut a, 200);
        assert_eq!(got_serial[0].0, 25);
        assert_eq!(got_serial[1].0, 30); // +5 cycles behind

        let mut b: Network<u32> = Network::new(2, 1, cfg);
        b.send(0, 0, 136, 1, Cycle(0));
        b.send(1, 0, 136, 2, Cycle(0));
        let got_par = run(&mut b, 200);
        assert_eq!(got_par[0].0, 25);
        assert_eq!(got_par[1].0, 25); // independent ports
    }

    #[test]
    fn queue_cycles_accumulate_under_load() {
        let cfg = one_flit_cfg();
        let mut net: Network<u32> = Network::new(1, 1, cfg);
        for i in 0..4 {
            net.send(0, 0, 136, i, Cycle(0));
        }
        run(&mut net, 300);
        assert!(net.stats().queue_cycles > 0);
        assert!(net.stats().avg_latency() > 25.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_destination_panics() {
        let mut net: Network<u32> = Network::new(1, 1, NocConfig::default());
        net.send(0, 5, 8, 0, Cycle(0));
    }

    #[test]
    fn ring_latency_grows_with_distance() {
        let cfg = NocConfig {
            topology: gtsc_types::NocTopology::Ring { hop_latency: 3 },
            ..NocConfig::default()
        };
        let net: Network<u32> = Network::new(4, 4, cfg);
        // src 0 -> dst 0 is 4 hops (past srcs 1..3); src 3 -> dst 0 is 1.
        assert_eq!(net.wire_latency(3, 0), cfg.latency + 3);
        assert_eq!(net.wire_latency(0, 0), cfg.latency + 4 * 3);
        assert_eq!(net.wire_latency(0, 3), cfg.latency + 7 * 3);
        // Crossbar is distance-independent.
        let xbar: Network<u32> = Network::new(4, 4, NocConfig::default());
        assert_eq!(xbar.wire_latency(0, 0), xbar.wire_latency(3, 3));
    }

    #[test]
    fn ring_packets_arrive_after_hop_delay() {
        let cfg = NocConfig {
            topology: gtsc_types::NocTopology::Ring { hop_latency: 10 },
            flits_per_cycle: 1,
            ..NocConfig::default()
        };
        let mut net: Network<u32> = Network::new(2, 2, cfg);
        net.send(1, 0, 8, 42, Cycle(0)); // 1 hop
        let got = run(&mut net, 200);
        // 1 cycle inject + 20 base + 1*10 hops = 31.
        assert_eq!(got, vec![(31, 0, 42)]);
    }

    proptest! {
        /// Conservation: every packet sent arrives exactly once, at the
        /// right destination, and never before `latency` has elapsed.
        #[test]
        fn conservation(
            sends in proptest::collection::vec((0usize..4, 0usize..4, 1usize..200, 0u64..50), 1..80)
        ) {
            let cfg = NocConfig::default();
            let mut net: Network<usize> = Network::new(4, 4, cfg);
            let mut expected = Vec::new();
            let mut got = Vec::new();
            let mut cycle = 0u64;
            for (i, (src, dst, bytes, delay)) in sends.iter().enumerate() {
                cycle += delay;
                for c in cycle - delay..cycle {
                    for (d, p) in net.tick(Cycle(c)) { got.push((d, p)); }
                }
                net.send(*src, *dst, *bytes, i, Cycle(cycle));
                expected.push((*dst, i));
            }
            for c in cycle..cycle + 100_000 {
                for (d, p) in net.tick(Cycle(c)) { got.push((d, p)); }
                if net.is_idle() { break; }
            }
            got.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(expected, got);
        }

        /// FIFO ordering: without faults, two packets with the same
        /// (src, dst) are never reordered — per-port injection is
        /// serialized and the wire latency per pair is constant.
        #[test]
        fn fault_free_fifo_per_src_dst_pair(
            sends in proptest::collection::vec((0usize..3, 0usize..3, 1usize..200, 0u64..20), 1..60)
        ) {
            let mut net: Network<usize> = Network::new(3, 3, NocConfig::default());
            let mut cycle = 0u64;
            let mut sent: Vec<(usize, usize, usize)> = Vec::new(); // (src, dst, seq)
            let mut delivered: Vec<usize> = Vec::new();
            for (seq, (src, dst, bytes, delay)) in sends.iter().enumerate() {
                for c in cycle..cycle + delay {
                    delivered.extend(net.tick(Cycle(c)).map(|(_, p)| p));
                }
                cycle += delay;
                net.send(*src, *dst, *bytes, seq, Cycle(cycle));
                sent.push((*src, *dst, seq));
            }
            for c in cycle..cycle + 200_000 {
                delivered.extend(net.tick(Cycle(c)).map(|(_, p)| p));
                if net.is_idle() { break; }
            }
            prop_assert!(net.is_idle());
            // Per (src, dst) pair, sequence numbers arrive in send order.
            for a in 0..delivered.len() {
                for b in a + 1..delivered.len() {
                    let (sa, da, qa) = sent[delivered[a]];
                    let (sb, db, qb) = sent[delivered[b]];
                    if sa == sb && da == db {
                        prop_assert!(qa < qb, "pair ({}, {}) reordered: {} after {}", sa, da, qa, qb);
                    }
                }
            }
        }

        /// With reordering faults enabled, delivery may be shuffled but a
        /// packet's latency never drops below the configured pipeline
        /// latency — faults only ever delay.
        #[test]
        fn faulted_latency_never_below_wire_latency(
            sends in proptest::collection::vec((0usize..3, 0usize..3, 1usize..200), 1..60),
            seed in 0u64..1000,
        ) {
            use gtsc_faults::FaultPlan;
            use gtsc_types::FaultConfig;
            let cfg = NocConfig::default();
            let mut net: Network<usize> = Network::new(3, 3, cfg);
            net.set_faults(FaultPlan::new(FaultConfig::chaos(seed)).noc(0));
            for (seq, (src, dst, bytes)) in sends.iter().enumerate() {
                net.send(*src, *dst, *bytes, seq, Cycle(0));
            }
            let mut seen = vec![0u32; sends.len()];
            for c in 0..500_000u64 {
                for (_, p) in net.tick(Cycle(c)) {
                    // Sent at cycle 0, so the delivery cycle IS the latency;
                    // injection takes >= 1 cycle on top of the pipeline.
                    prop_assert!(c > cfg.latency, "packet {} arrived at {} <= latency {}", p, c, cfg.latency);
                    seen[p] += 1;
                }
                if net.is_idle() { break; }
            }
            prop_assert!(net.is_idle(), "faults must preserve liveness");
            // Every packet delivered at least once; duplicates at most double.
            for (p, n) in seen.iter().enumerate() {
                prop_assert!((1..=2).contains(n), "packet {} delivered {} times", p, n);
            }
        }

        /// Even under fault storms, per-flow FIFO holds: within one
        /// (src, dst) pair, delivered sequence numbers never decrease
        /// (duplicates repeat a number; nothing ever overtakes). Faults
        /// may shuffle traffic *across* flows only — the ordering
        /// contract a deterministic-routing NoC gives the protocols.
        #[test]
        fn faulted_flow_order_is_preserved(
            sends in proptest::collection::vec((0usize..3, 0usize..3, 1usize..200, 0u64..10), 1..60),
            seed in 0u64..1000,
        ) {
            use gtsc_types::FaultConfig;
            // Classic perturbations (jitter/reorder/duplicate) preserve
            // eventual delivery; loss faults drop packets outright. The
            // per-flow FIFO clamp must hold in both regimes: whatever
            // *does* arrive on a flow arrives in send order.
            for cfg in [FaultConfig::chaos(seed), FaultConfig::lossy(seed, 100)] {
                let lossless = !cfg.lossy_active();
                let delivered = run_faulted(&sends, cfg);
                if lossless {
                    // Without drops, every payload arrives at least once.
                    let mut uniq: Vec<usize> = delivered.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    prop_assert_eq!(uniq.len(), sends.len(), "lossless faults must deliver all");
                }
                for a in 0..delivered.len() {
                    for b in a + 1..delivered.len() {
                        let (qa, qb) = (delivered[a], delivered[b]);
                        if flows_of(&sends)[qa] == flows_of(&sends)[qb] {
                            prop_assert!(
                                qa <= qb,
                                "flow {:?} order broken under seed {}: {} after {}",
                                flows_of(&sends)[qa], seed, qa, qb
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        /// The horizon is invisible: a network ticked only from
        /// `next_event_at()` on delivers what one ticked every cycle does,
        /// in the same cycles, and is byte for byte the same network at
        /// every cycle — under injected jitter, duplicates and loss (and
        /// under a storm of duplicates, corruption and long extra delays,
        /// where `inflight` is long and `swap_remove` reorders it most),
        /// through a restore into a twin that has already idled, and when
        /// a caller ticks ahead of time and then comes back (the
        /// benchmark's rungs do). So is the reused delivery buffer: a
        /// third twin drops every other result unread or half-read, and
        /// what it does read is still exactly that cycle's deliveries.
        #[test]
        fn horizon_ticks_match_a_tick_every_cycle(
            script in proptest::collection::vec((0u64..50, 0usize..3, 0usize..3, 1usize..200, 0u8..12), 1..60),
            fault_seed in 0u64..6,
        ) {
            use gtsc_faults::FaultPlan;
            use gtsc_types::FaultConfig;
            let build = || {
                let mut net: Network<usize> = Network::new(3, 3, NocConfig::default());
                let faults = match fault_seed % 3 {
                    0 => FaultConfig::chaos(fault_seed),
                    1 => FaultConfig::lossy(fault_seed, 100),
                    _ => FaultConfig {
                        seed: fault_seed,
                        noc_duplicate_permille: 500,
                        noc_duplicate_lag: 7,
                        noc_corrupt_permille: 300,
                        noc_jitter_permille: 700,
                        noc_jitter_max: 120,
                        ..FaultConfig::default()
                    },
                };
                net.set_faults(FaultPlan::new(faults).noc(0).filter(|_| fault_seed > 0));
                net
            };
            let image = |net: &Network<usize>| {
                let mut w = SnapWriter::new();
                net.save_state(&mut w);
                w.into_bytes()
            };
            let (mut eager, mut lazy, mut sloppy) = (build(), build(), build());
            let mut now = 0u64;
            let idle_tail = [(2000, 0, 0, 1, u8::MAX)];
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
                    prop_assert_eq!(got, &want[..read], "cycle {}: a dropped delivery resurfaced", c);
                    prop_assert!(image(&sloppy) == image(&eager), "cycle {}", c);
                }
                now += gap + 1;
            }
            prop_assert!(eager.is_idle() && lazy.is_idle() && sloppy.is_idle());
        }
    }

    fn flows_of(sends: &[(usize, usize, usize, u64)]) -> Vec<(usize, usize)> {
        sends.iter().map(|&(src, dst, _, _)| (src, dst)).collect()
    }

    /// Pushes `sends` through a faulted 3x3 network and returns the
    /// payloads that survive, in delivery order. Panics if the network
    /// fails to drain (dropped packets must vanish, not linger).
    fn run_faulted(
        sends: &[(usize, usize, usize, u64)],
        cfg: gtsc_types::FaultConfig,
    ) -> Vec<usize> {
        use gtsc_faults::FaultPlan;
        let mut net: Network<usize> = Network::new(3, 3, NocConfig::default());
        net.set_faults(FaultPlan::new(cfg).noc(0));
        let mut cycle = 0u64;
        let mut delivered: Vec<usize> = Vec::new();
        for (seq, (src, dst, bytes, delay)) in sends.iter().enumerate() {
            for c in cycle..cycle + delay {
                delivered.extend(net.tick(Cycle(c)).map(|(_, p)| p));
            }
            cycle += delay;
            net.send(*src, *dst, *bytes, seq, Cycle(cycle));
        }
        for c in cycle..cycle + 500_000 {
            delivered.extend(net.tick(Cycle(c)).map(|(_, p)| p));
            if net.is_idle() {
                break;
            }
        }
        assert!(net.is_idle(), "faults must preserve network drain");
        delivered
    }

    #[test]
    fn faulted_tick_is_deterministic_per_seed() {
        use gtsc_faults::FaultPlan;
        use gtsc_types::FaultConfig;
        let run = |seed: u64| {
            let mut net: Network<u32> = Network::new(2, 2, NocConfig::default());
            net.set_faults(FaultPlan::new(FaultConfig::chaos(seed)).noc(0));
            for i in 0..40 {
                net.send(
                    (i % 2) as usize,
                    ((i / 2) % 2) as usize,
                    8 + (i as usize % 160),
                    i,
                    Cycle(u64::from(i)),
                );
            }
            let mut log = Vec::new();
            for c in 0..100_000 {
                for (d, p) in net.tick(Cycle(c)) {
                    log.push((c, d, p));
                }
                if net.is_idle() {
                    break;
                }
            }
            (log, net.fault_stats().unwrap())
        };
        let (log_a, stats_a) = run(11);
        let (log_b, stats_b) = run(11);
        assert_eq!(log_a, log_b, "same seed replays byte-for-byte");
        assert_eq!(stats_a, stats_b);
        let (log_c, _) = run(12);
        assert_ne!(log_a, log_c, "different seeds should differ");
    }

    #[test]
    fn duplicates_are_delivered_and_counted() {
        use gtsc_faults::FaultPlan;
        use gtsc_types::FaultConfig;
        // Duplication only, at 100%: every packet arrives exactly twice.
        let cfg = FaultConfig {
            seed: 3,
            noc_duplicate_permille: 1000,
            noc_duplicate_lag: 10,
            ..FaultConfig::default()
        };
        let mut net: Network<u32> = Network::new(1, 1, NocConfig::default());
        net.set_faults(FaultPlan::new(cfg).noc(0));
        net.send(0, 0, 8, 7, Cycle(0));
        let got = run(&mut net, 200);
        assert_eq!(got.len(), 2, "original + duplicate");
        assert_eq!(got[0].2, 7);
        assert_eq!(got[1].2, 7);
        assert_eq!(
            got[1].0 - got[0].0,
            10,
            "duplicate lags by the configured gap"
        );
        assert_eq!(net.fault_stats().unwrap().duplicated, 1);
        // The real-packet latency counters are unaffected by the duplicate.
        assert_eq!(net.stats().packets, 1);
        assert_eq!(net.stats().total_packet_latency, 21);
    }

    #[test]
    fn occupancy_accessors_track_queue_and_wire() {
        let cfg = one_flit_cfg();
        let mut net: Network<u32> = Network::new(1, 1, cfg);
        for i in 0..3 {
            net.send(0, 0, 136, i, Cycle(0)); // 5 flits each: serialized
        }
        assert_eq!(net.queued(), 3);
        assert_eq!(net.in_flight(), 0);
        net.tick(Cycle(0));
        assert!(net.in_flight() >= 1, "head of line injected");
        assert!(net.queued() <= 2);
        for c in 1..100 {
            net.tick(Cycle(c));
        }
        assert_eq!(net.queued() + net.in_flight(), 0);
    }
}
