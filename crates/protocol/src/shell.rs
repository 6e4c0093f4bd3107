//! The queueing shell every shared-cache bank is built around.
//!
//! The paper's L2 (Section II-A) is one banked pipeline under every
//! protocol of Figure 12: requests wait out an access latency, a few
//! ports serve them per cycle in arrival order, a miss takes one MSHR
//! entry per block (later misses to the block merge into it) and one
//! fetch from the DRAM partition behind the bank, and answers queue for
//! the response network. [`BankShell`] is that pipeline, stated once. A
//! protocol's bank owns a shell next to its tag array and supplies what
//! is its own: the per-line metadata, how a resident line is served, and
//! what a fill or an eviction does to it (DESIGN.md §4.4).
//!
//! The admission rule lives here and nowhere else: the request at the
//! head of the queue is served if its block is resident, or if the MSHR
//! can merge it or allocate for it; otherwise the queue stalls *behind*
//! it (a younger request to the same block must not overtake) until a
//! fill retires an entry.

use std::collections::{BTreeMap, VecDeque};

use gtsc_mem::{Mshr, MshrAlloc};
use gtsc_trace::{CloseReason, SpanTracker};
use gtsc_types::snap::{Snap, SnapReader, SnapWriter, SnapshotError};
use gtsc_types::{BlockAddr, Cycle, FxHashMap, Version};

use crate::api::ControllerPressure;
use crate::msg::{L1ToL2, L2ToL1};

/// The protocol-independent half of a shared-cache bank: input queue,
/// ports, MSHR, DRAM handshake, response queue and the functional image
/// of what was written back.
///
/// The per-cycle methods are `#[inline]`: a bank in another crate calls
/// them for every stepped cycle, and a non-generic method does not
/// otherwise inline across the crate boundary.
#[derive(Debug)]
pub struct BankShell {
    latency: u64,
    ports: usize,
    /// DRAM contents model: last written-back version per block.
    backing: FxHashMap<BlockAddr, Version>,
    /// Requests waiting on an outstanding DRAM fetch, with their sender.
    pending: Mshr<(usize, L1ToL2)>,
    /// Requests become serviceable `latency` cycles after arrival.
    in_queue: VecDeque<(Cycle, usize, L1ToL2)>,
    /// The head of `in_queue` is a miss the MSHR cannot take. Only an
    /// installed fill (or a crash) changes that, so until then there is
    /// nothing to ask again. Derived state, never snapshotted: the first
    /// tick after a restore re-derives it.
    head_stalled: bool,
    out_resp: VecDeque<(usize, L2ToL1)>,
    dram_out: VecDeque<(BlockAddr, bool)>,
    /// What `dram_ready` last said. While DRAM cannot accept, a waiting
    /// `dram_out` is not due: only being told otherwise moves it. Derived
    /// state, never snapshotted: `true` until told, which errs early.
    dram_ready: bool,
}

impl BankShell {
    /// An empty shell: `latency` cycles from arrival to service, `ports`
    /// requests served per cycle, `mshr_entries` outstanding fetches of
    /// up to `mshr_merges` requests each.
    #[must_use]
    pub fn new(latency: u64, ports: usize, mshr_entries: usize, mshr_merges: usize) -> Self {
        BankShell {
            latency,
            ports,
            backing: FxHashMap::default(),
            pending: Mshr::new(mshr_entries, mshr_merges),
            in_queue: VecDeque::new(),
            head_stalled: false,
            out_resp: VecDeque::new(),
            dram_out: VecDeque::new(),
            dram_ready: true,
        }
    }

    /// Requests served per cycle: the bound of a bank's port loop.
    #[inline]
    #[must_use]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// A request from `src` arrives; it is serviceable after the access
    /// latency.
    #[inline]
    pub fn arrive(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        self.in_queue.push_back((now + self.latency, src, msg));
    }

    /// Puts a request the bank had already taken back at the end of the
    /// queue, serviceable at once (TC: a parked queue whose line left).
    pub fn requeue(&mut self, src: usize, msg: L1ToL2, now: Cycle) {
        self.in_queue.push_back((now, src, msg));
    }

    /// Takes the request at the head of the queue if it is due and the
    /// bank can serve it: `resident` says whether the protocol can serve
    /// it without a fetch; a miss is taken only if the MSHR can merge it
    /// or allocate for it, and stalls the queue behind it otherwise.
    #[inline]
    pub fn pop_ready(
        &mut self,
        now: Cycle,
        resident: impl FnOnce(&L1ToL2) -> bool,
    ) -> Option<(usize, L1ToL2)> {
        if self.head_stalled {
            return None;
        }
        let &(ready, src, msg) = self.in_queue.front()?;
        if ready > now {
            return None;
        }
        if !resident(&msg) && !self.pending.can_register(msg.block()) {
            self.head_stalled = true;
            return None;
        }
        self.in_queue.pop_front();
        Some((src, msg))
    }

    /// Registers a miss [`pop_ready`](BankShell::pop_ready) admitted and
    /// fetches its block unless a fetch is already out. Returns whether
    /// it merged into one.
    #[inline]
    pub fn miss(&mut self, src: usize, msg: L1ToL2) -> bool {
        let block = msg.block();
        match self.pending.register(block, (src, msg)) {
            MshrAlloc::AllocatedNew => {
                self.dram_out.push_back((block, false));
                false
            }
            MshrAlloc::Merged => true,
            MshrAlloc::Full => {
                unreachable!("pop_ready admits a miss only when the MSHR can take it")
            }
        }
    }

    /// The version a fetch of `block` returns.
    #[must_use]
    pub fn fetched(&self, block: BlockAddr) -> Version {
        self.backing.get(&block).copied().unwrap_or(Version::ZERO)
    }

    /// A dirty line leaves the bank: DRAM holds `version` from now on,
    /// and the write burst is queued.
    pub fn write_back(&mut self, block: BlockAddr, version: Version) {
        self.store_back(block, version);
        self.dram_out.push_back((block, true));
    }

    /// DRAM holds `version` of `block` from now on, at no simulated cost
    /// (a crash folds resident lines back this way).
    pub fn store_back(&mut self, block: BlockAddr, version: Version) {
        self.backing.insert(block, version);
    }

    /// The fill of `block` is installed: its MSHR entry retires, and the
    /// queue has reason to ask again. Returns the requests that waited,
    /// in arrival order; hand the list back through
    /// [`recycle`](BankShell::recycle) once served.
    pub fn installed(&mut self, block: BlockAddr) -> Vec<(usize, L1ToL2)> {
        self.head_stalled = false;
        self.pending.take(block)
    }

    /// Takes back the list [`installed`](BankShell::installed) handed
    /// out, for the next MSHR entry to reuse.
    pub fn recycle(&mut self, waiters: Vec<(usize, L1ToL2)>) {
        self.pending.recycle(waiters);
    }

    /// Queues `resp` for `dst`.
    #[inline]
    pub fn respond(&mut self, dst: usize, resp: L2ToL1) {
        self.out_resp.push_back((dst, resp));
    }

    /// See [`L2Controller::take_response`](crate::L2Controller::take_response).
    #[inline]
    pub fn take_response(&mut self) -> Option<(usize, L2ToL1)> {
        self.out_resp.pop_front()
    }

    /// See [`L2Controller::take_dram_request`](crate::L2Controller::take_dram_request).
    #[inline]
    pub fn take_dram_request(&mut self) -> Option<(BlockAddr, bool)> {
        self.dram_out.pop_front()
    }

    /// See [`L2Controller::dram_ready`](crate::L2Controller::dram_ready).
    #[inline]
    pub fn dram_ready(&mut self, ready: bool) {
        self.dram_ready = ready;
    }

    /// The shell's event horizon: due now with a response queued or a
    /// DRAM request DRAM can take, else when the head of the queue has
    /// waited out its latency, else — empty, or stalled on the MSHR —
    /// only an input wakes it.
    #[inline]
    #[must_use]
    pub fn next_event_at(&self) -> Cycle {
        if !self.out_resp.is_empty() || (self.dram_ready && !self.dram_out.is_empty()) {
            return Cycle(0);
        }
        match self.in_queue.front() {
            Some(&(ready, ..)) if !self.head_stalled => ready,
            _ => Cycle(u64::MAX),
        }
    }

    /// Whether nothing is queued, outstanding or waiting to leave.
    #[inline]
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_queue.is_empty()
            && self.pending.is_empty()
            && self.out_resp.is_empty()
            && self.dram_out.is_empty()
    }

    /// Occupancy for stall diagnosis.
    #[must_use]
    pub fn pressure(&self) -> ControllerPressure {
        ControllerPressure {
            mshr: self.pending.len(),
            out_queue: self.in_queue.len() + self.dram_out.len(),
            waiting: self.out_resp.len(),
        }
    }

    /// The bank's functional contents: what was written back, overlaid
    /// with the `resident` lines, sorted by block address.
    #[must_use]
    pub fn memory_image(
        &self,
        resident: impl Iterator<Item = (BlockAddr, Version)>,
    ) -> Vec<(BlockAddr, Version)> {
        // BTreeMap so the returned image is sorted by block address and
        // never leaks the hash-keyed backing store's iteration order.
        let mut img: BTreeMap<BlockAddr, Version> = self
            .backing
            .iter() // lint: allow(hash-iter): re-keyed into a BTreeMap before anything observes the order.
            .map(|(b, v)| (*b, *v))
            .collect();
        img.extend(resident);
        img.into_iter().collect()
    }

    /// Every in-flight transaction dies with the bank: the MSHR, both
    /// queues and the DRAM requests not yet taken are emptied, and each
    /// sampled span among them is closed `BankReset`, exactly once. What
    /// was written back survives.
    pub fn crash(&mut self, spans: &SpanTracker, now: Cycle) {
        for block in self.pending.blocks() {
            for (_, msg) in self.pending.take(block) {
                spans.close(msg.span(), CloseReason::BankReset, now);
            }
        }
        for (_, _, msg) in self.in_queue.drain(..) {
            spans.close(msg.span(), CloseReason::BankReset, now);
        }
        self.head_stalled = false;
        for (_, resp) in self.out_resp.drain(..) {
            spans.close(resp.span(), CloseReason::BankReset, now);
        }
        self.dram_out.clear();
    }

    /// First half of the shell's snapshot (`backing`, `pending`): a
    /// bank's section is this, the protocol's own state, then
    /// [`save_queues`](BankShell::save_queues) (DESIGN.md §14.1).
    pub fn save_memory(&self, w: &mut SnapWriter) {
        self.backing.save(w);
        self.pending.save_state(w);
    }

    /// Restores what [`save_memory`](BankShell::save_memory) wrote.
    ///
    /// # Errors
    ///
    /// Any decoding error on corrupt input.
    pub fn load_memory(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.backing = Snap::load(r)?;
        self.pending.load_state(r)
    }

    /// Second half of the shell's snapshot (`in_queue`, `out_resp`,
    /// `dram_out`).
    pub fn save_queues(&self, w: &mut SnapWriter) {
        self.in_queue.save(w);
        self.out_resp.save(w);
        self.dram_out.save(w);
    }

    /// Restores what [`save_queues`](BankShell::save_queues) wrote and
    /// resets the derived state.
    ///
    /// # Errors
    ///
    /// Any decoding error on corrupt input.
    pub fn load_queues(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.in_queue = Snap::load(r)?;
        self.out_resp = Snap::load(r)?;
        self.dram_out = Snap::load(r)?;
        self.head_stalled = false;
        self.dram_ready = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use gtsc_types::{SpanId, Timestamp};
    use proptest::prelude::*;

    use super::*;
    use crate::msg::{FillResp, LeaseInfo, ReadReq};

    type Pumped = (Vec<(BlockAddr, bool)>, Vec<(usize, L2ToL1)>);

    /// The least a protocol can be around a shell: a set of resident
    /// blocks, a fill per read, the oldest block written back when a
    /// fourth comes in.
    struct MiniBank {
        shell: BankShell,
        resident: BTreeSet<BlockAddr>,
    }

    impl MiniBank {
        fn new() -> Self {
            MiniBank {
                shell: BankShell::new(5, 2, 2, 3),
                resident: BTreeSet::new(),
            }
        }

        fn answer(&mut self, src: usize, msg: L1ToL2) {
            let fill = FillResp {
                block: msg.block(),
                lease: LeaseInfo::None,
                version: self.shell.fetched(msg.block()),
                epoch: 0,
                span: msg.span(),
            };
            self.shell.respond(src, L2ToL1::Fill(fill));
        }

        fn tick(&mut self, now: Cycle) {
            for _ in 0..self.shell.ports() {
                let resident = |m: &L1ToL2| self.resident.contains(&m.block());
                let Some((src, msg)) = self.shell.pop_ready(now, resident) else {
                    break;
                };
                if self.resident.contains(&msg.block()) {
                    self.answer(src, msg);
                } else {
                    self.shell.miss(src, msg);
                }
            }
        }

        fn on_fill(&mut self, block: BlockAddr, now: Cycle) {
            self.resident.insert(block);
            if self.resident.len() > 3 {
                let victim = self.resident.pop_first().expect("four resident");
                self.shell.write_back(victim, Version(now.0));
            }
            let mut waiters = self.shell.installed(block);
            for (src, msg) in waiters.drain(..) {
                self.answer(src, msg);
            }
            self.shell.recycle(waiters);
        }

        /// The engine's cycle around a bank: the tick (left to the caller
        /// of a sleeping twin), DRAM requests out while the partition has
        /// room, this cycle's `fills` in, responses out.
        fn pump(&mut self, tick: bool, open: bool, fills: &[BlockAddr], now: Cycle) -> Pumped {
            if tick {
                self.tick(now);
            }
            let shell = &mut self.shell;
            let to_dram: Vec<_> = if open {
                std::iter::from_fn(|| shell.take_dram_request()).collect()
            } else {
                Vec::new()
            };
            for &block in fills {
                self.on_fill(block, now);
            }
            let shell = &mut self.shell;
            (
                to_dram,
                std::iter::from_fn(|| shell.take_response()).collect(),
            )
        }

        fn image(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            self.shell.save_memory(&mut w);
            self.shell.save_queues(&mut w);
            let p = self.shell.pressure();
            for n in [p.mshr, p.out_queue, p.waiting] {
                w.usize(n);
            }
            w.u8(u8::from(self.shell.is_idle()));
            w.into_bytes()
        }
    }

    proptest! {
        /// The horizon is invisible: a shell ticked only on the cycles it
        /// is told something and from `next_event_at()` on does what one
        /// ticked every cycle does, in the same cycles — through MSHR
        /// stalls, merge-cap stalls, a DRAM that is full for a stretch,
        /// and a crash.
        #[test]
        fn horizon_ticks_match_a_tick_every_cycle(
            script in proptest::collection::vec((0u64..30, 0u8..12, 0u64..6, 0usize..3), 1..80),
            dram_delay in 1u64..40,
        ) {
            let (mut eager, mut lazy) = (MiniBank::new(), MiniBank::new());
            // Fetches on their way back: (cycle due, block).
            let mut dram: VecDeque<(u64, BlockAddr)> = VecDeque::new();
            let (mut open, mut now) = (true, 0u64);
            let idle_tail = [(0, 0, 0, 0), (2000, u8::MAX, 0, 0)];
            for (i, &(gap, what, block, src)) in script.iter().chain(&idle_tail).enumerate() {
                let input_at = now + gap;
                while now <= input_at {
                    let at = Cycle(now);
                    let mut told = now == input_at;
                    match what {
                        _ if now < input_at => {}
                        0 => {
                            // DRAM fills up, or has room again; at the tail, for good.
                            open = !open || i >= script.len();
                            eager.shell.dram_ready(open);
                            lazy.shell.dram_ready(open);
                        }
                        1 => {
                            for twin in [&mut eager, &mut lazy] {
                                twin.shell.crash(&SpanTracker::disabled(), at);
                                twin.resident.clear();
                            }
                        }
                        u8::MAX => {}
                        _ => {
                            let read = L1ToL2::Read(ReadReq {
                                block: BlockAddr(block),
                                wts: Timestamp(0),
                                warp_ts: Timestamp(1),
                                epoch: 0,
                                span: SpanId::NONE,
                            });
                            eager.shell.arrive(src, read, at);
                            lazy.shell.arrive(src, read, at);
                        }
                    }
                    let mut fills = Vec::new();
                    while dram.front().is_some_and(|&(when, _)| when <= now) {
                        fills.extend(dram.pop_front().map(|(_, block)| block));
                    }
                    told |= !fills.is_empty();
                    let want = eager.pump(true, open, &fills, at);
                    let due = at >= lazy.shell.next_event_at();
                    if told || due {
                        let got = lazy.pump(due, open, &fills, at);
                        prop_assert_eq!(got, want.clone(), "cycle {}, ticked: {}", now, due);
                    } else {
                        let quiet = want.0.is_empty() && want.1.is_empty();
                        prop_assert!(quiet, "cycle {}: slept through {:?}", now, want);
                    }
                    if due {
                        prop_assert!(lazy.image() == eager.image(), "cycle {}", now);
                    }
                    let fetches = want.0.iter().filter(|&&(_, is_write)| !is_write);
                    dram.extend(fetches.map(|&(b, _)| (now + dram_delay, b)));
                    now += 1;
                }
            }
            prop_assert!(eager.shell.is_idle() && lazy.shell.is_idle(), "a request is stuck");
        }
    }
}
