//! A banked GDDR DRAM timing model (one instance per memory partition).
//!
//! Models the aspects of DRAM that matter for coherence-protocol studies:
//! bank-level parallelism, row-buffer locality (hit vs. activate latency),
//! a bounded request queue providing back-pressure, and a shared data bus
//! that spaces bursts apart (bandwidth). Scheduling is FR-FCFS-like: the
//! oldest row-buffer hit is preferred, falling back to the oldest request.

use std::collections::VecDeque;

use gtsc_faults::{DramFaults, FaultStats};
use gtsc_trace::{EventKind, Tracer};
use gtsc_types::{BlockAddr, Cycle, DramConfig, DramStats, PagePolicy};

/// A request handed to the DRAM by an L2 bank.
///
/// `P` is an opaque payload returned unchanged in the matching
/// [`DramResponse`] (the L2 uses it to resume the stalled transaction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramRequest<P> {
    /// Block to read or write.
    pub block: BlockAddr,
    /// Write bursts occupy the bus but produce no fill data.
    pub is_write: bool,
    /// Caller context, returned in the response.
    pub payload: P,
}

/// Completion notification for an earlier [`DramRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramResponse<P> {
    /// The serviced block.
    pub block: BlockAddr,
    /// Whether this was a write burst.
    pub is_write: bool,
    /// The caller context from the request.
    pub payload: P,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    busy_until: Cycle,
}

#[derive(Debug)]
struct InFlight<P> {
    ready_at: Cycle,
    resp: DramResponse<P>,
}

/// One memory partition's DRAM: banks + queue + data bus.
///
/// # Examples
///
/// ```
/// use gtsc_mem::{Dram, DramRequest};
/// use gtsc_types::{BlockAddr, Cycle, DramConfig};
///
/// let mut d: Dram<u32> = Dram::new(DramConfig::default());
/// assert!(d.enqueue(DramRequest { block: BlockAddr(0), is_write: false, payload: 7 }));
/// let mut done = Vec::new();
/// for c in 0..1000 {
///     done.extend(d.tick(Cycle(c)));
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].payload, 7);
/// ```
#[derive(Debug)]
pub struct Dram<P> {
    cfg: DramConfig,
    banks: Vec<Bank>,
    queue: VecDeque<DramRequest<P>>,
    inflight: Vec<InFlight<P>>,
    last_burst: Cycle,
    stats: DramStats,
    /// Optional fault injector (variable service latency); `None` on the
    /// fault-free fast path.
    faults: Option<DramFaults>,
    tracer: Tracer,
    /// How many requests at the tail of `queue` arrived since the last
    /// [`Dram::tick`], which records their arrival at its `now`. Volatile,
    /// never snapshotted: a partition is ticked in every cycle it is
    /// handed a request, so this is 0 between cycles.
    arrived: usize,
    /// No tick before this cycle can issue or complete anything unless a
    /// request is enqueued first (see [`Dram::next_event_at`]). Derived
    /// state, never snapshotted: [`Dram::enqueue`] and
    /// [`Dram::load_state`] clear it, the tick that gets past it
    /// recomputes it.
    idle_until: Cycle,
    /// What the latest [`Dram::tick`] completed, lent out as a `Drain`
    /// — which leaves it empty however it is dropped (DESIGN.md §15.4).
    /// Volatile, never snapshotted.
    done: Vec<DramResponse<P>>,
}

impl<P> Dram<P> {
    /// Creates an idle DRAM partition.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.banks` or `cfg.queue_depth` is zero.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.banks > 0 && cfg.queue_depth > 0,
            "DRAM config must be nonzero"
        );
        Dram {
            banks: vec![
                Bank {
                    open_row: None,
                    busy_until: Cycle(0)
                };
                cfg.banks
            ],
            queue: VecDeque::new(),
            inflight: Vec::new(),
            last_burst: Cycle(0),
            stats: DramStats::default(),
            faults: None,
            tracer: Tracer::disabled(),
            arrived: 0,
            idle_until: Cycle(0),
            done: Vec::new(),
            cfg,
        }
    }

    /// Installs a configured tracer (enqueue/service events).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// This partition's tracer (disabled unless the simulator installed
    /// one).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Installs (or clears) a fault injector. Faults only ever *extend*
    /// a request's service latency — requests are never lost, so
    /// [`Dram::is_idle`] remains a liveness guarantee.
    pub fn set_faults(&mut self, faults: Option<DramFaults>) {
        self.faults = faults;
    }

    /// Fault-injection counters, when an injector is installed.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(DramFaults::stats)
    }

    /// Requests waiting in the partition queue (stall diagnostics).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Requests issued to a bank and awaiting their burst (stall
    /// diagnostics).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    fn row_of(&self, b: BlockAddr) -> u64 {
        b.0 / self.cfg.blocks_per_row
    }

    fn bank_of(&self, b: BlockAddr) -> usize {
        (self.row_of(b) % self.cfg.banks as u64) as usize
    }

    /// Offers a request; returns `false` (back-pressure) if the queue is
    /// full — the caller must retry later. The next [`Dram::tick`] dates
    /// its arrival.
    pub fn enqueue(&mut self, req: DramRequest<P>) -> bool {
        if self.queue.len() >= self.cfg.queue_depth {
            self.stats.queue_full_events += 1;
            return false;
        }
        self.queue.push_back(req);
        self.arrived += 1;
        self.idle_until = Cycle(0);
        true
    }

    /// Whether the request queue has room.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_depth
    }

    /// Advances the model to `now`: records the requests enqueued since
    /// the last tick as arrived at `now`, issues eligible queued requests
    /// to free banks (FR-FCFS) and returns every response whose data burst
    /// has completed by `now`. The responses live in a buffer the
    /// partition keeps: whatever the caller leaves unread is dropped,
    /// never returned by a later tick.
    pub fn tick(&mut self, now: Cycle) -> std::vec::Drain<'_, DramResponse<P>> {
        let fresh = self.queue.len() - self.arrived;
        for req in self.queue.range(fresh..) {
            self.tracer.record_with(now, || EventKind::DramEnqueue {
                block: req.block,
                write: req.is_write,
            });
        }
        self.arrived = 0;
        if now < self.idle_until {
            debug_assert!(
                now < self.earliest_event(),
                "DRAM horizon {} is late: a full pass at {now} finds work",
                self.idle_until
            );
            return self.done.drain(..);
        }
        self.issue(now);
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].ready_at <= now {
                self.done.push(self.inflight.swap_remove(i).resp);
            } else {
                i += 1;
            }
        }
        self.idle_until = self.earliest_event();
        self.done.drain(..)
    }

    /// The earliest cycle at which [`Dram::tick`] could return a response
    /// or change any state, counter or trace output, provided nothing is
    /// enqueued first: the earliest `busy_until` among banks that have a
    /// queued request, or the earliest burst completion in flight. May be
    /// early, never late; `Cycle(u64::MAX)` when only an enqueue can wake
    /// the partition.
    #[must_use]
    pub fn next_event_at(&self) -> Cycle {
        self.idle_until
    }

    /// [`Dram::next_event_at`], computed from scratch.
    fn earliest_event(&self) -> Cycle {
        let issue = self
            .queue
            .iter()
            .map(|r| self.banks[self.bank_of(r.block)].busy_until);
        let complete = self.inflight.iter().map(|f| f.ready_at);
        issue.chain(complete).min().unwrap_or(Cycle(u64::MAX))
    }

    fn issue(&mut self, now: Cycle) {
        // One issue attempt per bank per tick.
        for _ in 0..self.banks.len() {
            let Some(idx) = self.pick(now) else { return };
            let req = self.queue.remove(idx).expect("picked index is in range");
            let bank_i = self.bank_of(req.block);
            let row = self.row_of(req.block);
            let bank = &mut self.banks[bank_i];
            let latency = match self.cfg.page_policy {
                PagePolicy::Open => {
                    if bank.open_row == Some(row) {
                        self.stats.row_hits += 1;
                        self.cfg.row_hit
                    } else {
                        self.stats.row_misses += 1;
                        self.cfg.row_miss
                    }
                }
                // Closed page: the row is precharged after each access;
                // every access pays activate + access (between the open
                // policy's hit and miss costs), and nothing depends on
                // the previous row.
                PagePolicy::Closed => {
                    self.stats.row_misses += 1;
                    (self.cfg.row_hit + self.cfg.row_miss) / 2
                }
            };
            if req.is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            self.tracer.record_with(now, || EventKind::DramService {
                block: req.block,
                write: req.is_write,
            });
            bank.open_row = match self.cfg.page_policy {
                PagePolicy::Open => Some(row),
                PagePolicy::Closed => None,
            };
            let latency = latency + self.faults.as_mut().map_or(0, DramFaults::extra_latency);
            let burst_start = (now + latency).max(self.last_burst + self.cfg.burst_gap);
            bank.busy_until = burst_start;
            self.last_burst = burst_start;
            self.inflight.push(InFlight {
                ready_at: burst_start,
                resp: DramResponse {
                    block: req.block,
                    is_write: req.is_write,
                    payload: req.payload,
                },
            });
        }
    }

    /// FR-FCFS pick: oldest request whose bank is free and open-row hits;
    /// else oldest request whose bank is free.
    fn pick(&self, now: Cycle) -> Option<usize> {
        let free = |req: &DramRequest<P>| self.banks[self.bank_of(req.block)].busy_until <= now;
        let hit = |req: &DramRequest<P>| {
            self.banks[self.bank_of(req.block)].open_row == Some(self.row_of(req.block))
        };
        self.queue
            .iter()
            .position(|r| free(r) && hit(r))
            .or_else(|| self.queue.iter().position(free))
    }

    /// Whether all queues and banks are drained.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};

impl<P: Snap> Snap for DramRequest<P> {
    fn save(&self, w: &mut SnapWriter) {
        self.block.save(w);
        w.bool(self.is_write);
        self.payload.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DramRequest {
            block: Snap::load(r)?,
            is_write: r.bool()?,
            payload: Snap::load(r)?,
        })
    }
}

impl<P: Snap> Snap for DramResponse<P> {
    fn save(&self, w: &mut SnapWriter) {
        self.block.save(w);
        w.bool(self.is_write);
        self.payload.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DramResponse {
            block: Snap::load(r)?,
            is_write: r.bool()?,
            payload: Snap::load(r)?,
        })
    }
}

gtsc_types::snap_fields!(Bank {
    open_row,
    busy_until
});

impl<P: Snap> Snap for InFlight<P> {
    fn save(&self, w: &mut SnapWriter) {
        self.ready_at.save(w);
        self.resp.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(InFlight {
            ready_at: Snap::load(r)?,
            resp: Snap::load(r)?,
        })
    }
}

impl<P: Snap> Dram<P> {
    /// Serializes all dynamic state: bank rows/timers, the request
    /// queue, in-flight bursts (in their exact `Vec` order — completion
    /// uses `swap_remove`, so order is observable), bus/burst timing,
    /// counters, and the armed fault injector. The config and tracer
    /// are rebuilt on restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.banks.save(w);
        self.queue.save(w);
        self.inflight.save(w);
        self.last_burst.save(w);
        self.stats.save(w);
        self.faults.save(w);
    }

    /// Restores dynamic state into a partition built from the same
    /// config.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] if the bank count differs; any
    /// decoding error on corrupt input.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let banks: Vec<Bank> = Snap::load(r)?;
        if banks.len() != self.banks.len() {
            return Err(SnapshotError::Mismatch {
                what: "DRAM bank count".to_owned(),
            });
        }
        self.banks = banks;
        self.queue = Snap::load(r)?;
        self.inflight = Snap::load(r)?;
        self.last_burst = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        self.faults = Snap::load(r)?;
        self.arrived = 0;
        self.idle_until = Cycle(0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(d: &mut Dram<u32>, horizon: u64) -> Vec<(u64, DramResponse<u32>)> {
        let mut out = Vec::new();
        for c in 0..horizon {
            for r in d.tick(Cycle(c)) {
                out.push((c, r));
            }
        }
        out
    }

    #[test]
    fn single_read_takes_row_miss_latency() {
        let cfg = DramConfig::default();
        let mut d: Dram<u32> = Dram::new(cfg);
        d.enqueue(DramRequest {
            block: BlockAddr(0),
            is_write: false,
            payload: 1,
        });
        let done = drain(&mut d, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, cfg.row_miss); // issued at cycle 0
        assert_eq!(d.stats().row_misses, 1);
        assert!(d.is_idle());
    }

    #[test]
    fn second_access_same_row_is_faster() {
        let cfg = DramConfig::default();
        let mut d: Dram<u32> = Dram::new(cfg);
        d.enqueue(DramRequest {
            block: BlockAddr(0),
            is_write: false,
            payload: 1,
        });
        d.enqueue(DramRequest {
            block: BlockAddr(1),
            is_write: false,
            payload: 2,
        });
        let done = drain(&mut d, 2000);
        assert_eq!(done.len(), 2);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn different_banks_overlap() {
        let cfg = DramConfig {
            burst_gap: 1,
            ..DramConfig::default()
        };
        let mut d: Dram<u32> = Dram::new(cfg);
        // Rows 0 and 1 map to banks 0 and 1.
        d.enqueue(DramRequest {
            block: BlockAddr(0),
            is_write: false,
            payload: 1,
        });
        d.enqueue(DramRequest {
            block: BlockAddr(cfg.blocks_per_row),
            is_write: false,
            payload: 2,
        });
        let done = drain(&mut d, 2000);
        // Both finish around row_miss (+burst gap), not serialized 2x.
        let last = done.iter().map(|(c, _)| *c).max().unwrap();
        assert!(
            last < 2 * cfg.row_miss,
            "bank parallelism expected, last={last}"
        );
    }

    #[test]
    fn backpressure_when_queue_full() {
        let cfg = DramConfig {
            queue_depth: 2,
            ..DramConfig::default()
        };
        let mut d: Dram<u32> = Dram::new(cfg);
        assert!(d.enqueue(DramRequest {
            block: BlockAddr(0),
            is_write: false,
            payload: 0
        }));
        assert!(d.enqueue(DramRequest {
            block: BlockAddr(1),
            is_write: false,
            payload: 1
        }));
        assert!(!d.can_accept());
        assert!(!d.enqueue(DramRequest {
            block: BlockAddr(2),
            is_write: false,
            payload: 2
        }));
        assert_eq!(d.stats().queue_full_events, 1);
    }

    #[test]
    fn writes_counted_separately() {
        let mut d: Dram<u32> = Dram::new(DramConfig::default());
        d.enqueue(DramRequest {
            block: BlockAddr(0),
            is_write: true,
            payload: 0,
        });
        let done = drain(&mut d, 1000);
        assert!(done[0].1.is_write);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn closed_page_latency_is_uniform() {
        let cfg = DramConfig {
            page_policy: PagePolicy::Closed,
            burst_gap: 1,
            ..DramConfig::default()
        };
        let mut d: Dram<u32> = Dram::new(cfg);
        d.enqueue(DramRequest {
            block: BlockAddr(0),
            is_write: false,
            payload: 1,
        });
        let done = drain(&mut d, 1000);
        let expected = (cfg.row_hit + cfg.row_miss) / 2;
        assert_eq!(done[0].0, expected);
        // A same-row follow-up pays exactly the same (no open row).
        d.enqueue(DramRequest {
            block: BlockAddr(1),
            is_write: false,
            payload: 2,
        });
        let done = drain(&mut d, 2000);
        assert_eq!(d.stats().row_hits, 0, "closed page never hits");

        let _ = done;
    }

    #[test]
    fn open_page_beats_closed_on_streaming() {
        let mk = |policy| {
            let cfg = DramConfig {
                page_policy: policy,
                burst_gap: 1,
                ..DramConfig::default()
            };
            let mut d: Dram<u32> = Dram::new(cfg);
            for i in 0..8 {
                d.enqueue(DramRequest {
                    block: BlockAddr(i),
                    is_write: false,
                    payload: i as u32,
                });
            }
            let done = drain(&mut d, 5000);
            done.iter().map(|(c, _)| *c).max().unwrap()
        };
        assert!(
            mk(PagePolicy::Open) < mk(PagePolicy::Closed),
            "sequential blocks in one row should favour the open policy"
        );
    }

    #[test]
    fn fault_jitter_only_extends_latency_and_replays() {
        use gtsc_faults::FaultPlan;
        use gtsc_types::FaultConfig;
        let cfg = DramConfig::default();
        let run = |seed: u64| {
            let mut d: Dram<u32> = Dram::new(cfg);
            d.set_faults(FaultPlan::new(FaultConfig::chaos(seed)).dram(0));
            for i in 0..16 {
                d.enqueue(DramRequest {
                    block: BlockAddr(i * 40),
                    is_write: false,
                    payload: i as u32,
                });
            }
            let done = drain(&mut d, 100_000);
            assert!(d.is_idle(), "faults must preserve liveness");
            (done, d.fault_stats().unwrap())
        };
        let (a, sa) = run(21);
        let (b, sb) = run(21);
        assert_eq!(a, b, "same seed replays byte-for-byte");
        assert_eq!(sa, sb);
        assert_eq!(a.len(), 16, "no request lost");
        // First request issues at cycle 0: never earlier than the
        // fault-free row-miss latency.
        assert!(a[0].0 >= cfg.row_miss);
        // And a fault-free run is at least as fast overall.
        let mut clean: Dram<u32> = Dram::new(cfg);
        for i in 0..16 {
            clean.enqueue(DramRequest {
                block: BlockAddr(i * 40),
                is_write: false,
                payload: i as u32,
            });
        }
        let clean_done = drain(&mut clean, 100_000);
        let last = |v: &[(u64, DramResponse<u32>)]| v.iter().map(|(c, _)| *c).max().unwrap();
        assert!(last(&a) >= last(&clean_done));
    }

    #[test]
    fn occupancy_accessors_track_queue_and_banks() {
        let mut d: Dram<u32> = Dram::new(DramConfig::default());
        for i in 0..4 {
            d.enqueue(DramRequest {
                block: BlockAddr(i),
                is_write: false,
                payload: i as u32,
            });
        }
        assert_eq!(d.queued(), 4);
        assert_eq!(d.in_flight(), 0);
        d.tick(Cycle(0));
        assert!(d.in_flight() > 0);
        assert!(d.queued() < 4);
        for c in 1..5000 {
            d.tick(Cycle(c));
        }
        assert_eq!(d.queued() + d.in_flight(), 0);
    }

    /// The engine ticks a partition in every cycle it hands it a request,
    /// so the tick dates the enqueue: a request handed over at `c + k` to
    /// a partition last ticked at `c` arrives at `c + k`, and issues there.
    #[test]
    fn an_enqueue_is_dated_by_the_tick_that_follows_it() {
        use gtsc_trace::Scope;
        use gtsc_types::TraceConfig;
        let mut d: Dram<u32> = Dram::new(DramConfig::default());
        d.set_tracer(Tracer::new(Scope::Dram(0), &TraceConfig::full()));
        let (c, k) = (64, 3);
        d.tick(Cycle(c));
        d.enqueue(DramRequest {
            block: BlockAddr(0),
            is_write: false,
            payload: 1,
        });
        d.tick(Cycle(c + k));
        let dated: Vec<_> = (d.tracer().events().iter())
            .map(|e| (e.cycle, e.kind.name()))
            .collect();
        assert_eq!(
            dated,
            [
                (Cycle(c + k), "dram_enqueue"),
                (Cycle(c + k), "dram_service")
            ]
        );
    }

    proptest! {
        /// Every enqueued request completes exactly once (conservation),
        /// regardless of the access pattern.
        #[test]
        fn conservation(blocks in proptest::collection::vec(0u64..256, 1..60)) {
            let mut d: Dram<u32> = Dram::new(DramConfig::default());
            let mut expected = Vec::new();
            let mut got = Vec::new();
            let mut cycle = 0u64;
            for (i, b) in blocks.iter().enumerate() {
                let req = DramRequest { block: BlockAddr(*b), is_write: i % 3 == 0, payload: i as u32 };
                // Retry until accepted.
                let mut r = req;
                loop {
                    if d.enqueue(r) { break; }
                    for resp in d.tick(Cycle(cycle)) { got.push(resp.payload); }
                    cycle += 1;
                    r = DramRequest { block: BlockAddr(*b), is_write: i % 3 == 0, payload: i as u32 };
                }
                expected.push(i as u32);
            }
            for _ in 0..500_000 {
                for resp in d.tick(Cycle(cycle)) { got.push(resp.payload); }
                cycle += 1;
                if d.is_idle() { break; }
            }
            got.sort_unstable();
            prop_assert_eq!(expected, got);
        }

        /// The horizon is invisible: a partition ticked only from
        /// `next_event_at()` on returns the responses of one ticked every
        /// cycle, in the same cycles, and is byte for byte the same
        /// partition whenever it is ticked — under latency faults,
        /// through a restore into a twin that has already idled, and when
        /// a caller ticks ahead of time and then comes back (the
        /// benchmark's rungs do). So is the reused response buffer: a
        /// third twin drops every other result unread or half-read, and
        /// what it does read is still exactly that cycle's responses.
        #[test]
        fn horizon_ticks_match_a_tick_every_cycle(
            script in proptest::collection::vec((0u64..60, 0u64..700, 0u8..12), 1..60),
            fault_seed in 0u64..3,
        ) {
            use gtsc_faults::FaultPlan;
            use gtsc_types::FaultConfig;
            let build = || {
                let mut d: Dram<u32> = Dram::new(DramConfig { queue_depth: 6, ..DramConfig::default() });
                d.set_faults(FaultPlan::new(FaultConfig::chaos(fault_seed)).dram(0).filter(|_| fault_seed > 0));
                d
            };
            let image = |d: &Dram<u32>| {
                let mut w = SnapWriter::new();
                d.save_state(&mut w);
                w.into_bytes()
            };
            let (mut eager, mut lazy, mut sloppy) = (build(), build(), build());
            let mut now = 0u64;
            let idle_tail = [(4000, 0, u8::MAX)];
            for (i, &(gap, block, what)) in script.iter().chain(&idle_tail).enumerate() {
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
                                let req = DramRequest { block: BlockAddr(block), is_write: what == 2, payload: i as u32 };
                                prop_assert_eq!(lazy.enqueue(req.clone()), eager.enqueue(req.clone()));
                                sloppy.enqueue(req);
                            }
                        }
                    }
                    let want: Vec<_> = eager.tick(Cycle(c)).collect();
                    if Cycle(c) < lazy.next_event_at() {
                        prop_assert!(want.is_empty(), "cycle {}: slept through {:?}", c, want);
                    } else {
                        prop_assert_eq!(lazy.tick(Cycle(c)).collect::<Vec<_>>(), &want[..], "cycle {}", c);
                        prop_assert!(image(&lazy) == image(&eager), "cycle {}", c);
                    }
                    let read = [0, want.len() / 2, want.len()][(c % 3) as usize];
                    let got: Vec<_> = sloppy.tick(Cycle(c)).take(read).collect();
                    prop_assert_eq!(got, &want[..read], "cycle {}: a dropped response resurfaced", c);
                    prop_assert!(image(&sloppy) == image(&eager), "cycle {}", c);
                }
                now += gap + 1;
            }
            prop_assert!(eager.is_idle() && lazy.is_idle() && sloppy.is_idle());
        }
    }
}
