//! The flight recorder: a bounded ring buffer of recent events.
//!
//! Every traced component owns one; when a run wedges or the checker
//! fires, the rings are merged into the post-mortem so the last N
//! protocol transitions around the failure are visible without paying
//! for a full event log.

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// A bounded ring of the most recent events: pushing beyond capacity
/// evicts the oldest entry, preserving order. Nothing else drops one, so
/// a tail spans kernel boundaries: after a `run_kernels` sequence it
/// still holds the end of the kernels before the last.
///
/// # Examples
///
/// ```
/// use gtsc_trace::{EventKind, FlightRecorder, Scope, TraceEvent};
/// use gtsc_types::Cycle;
///
/// let mut r = FlightRecorder::new(2);
/// for c in 0..5 {
///     r.push(TraceEvent {
///         cycle: Cycle(c),
///         scope: Scope::Sm(0),
///         kind: EventKind::WarpIssue { warp: 0 },
///     });
/// }
/// let tail: Vec<u64> = r.tail().iter().map(|e| e.cycle.0).collect();
/// assert_eq!(tail, vec![3, 4]); // oldest evicted, order preserved
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` events. A zero
    /// capacity records nothing.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event);
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn tail(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Scope};
    use gtsc_types::Cycle;
    use proptest::prelude::*;

    fn ev(c: u64) -> TraceEvent {
        TraceEvent {
            cycle: Cycle(c),
            scope: Scope::Sm(0),
            kind: EventKind::WarpIssue {
                warp: (c % 7) as u16,
            },
        }
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        let mut r = FlightRecorder::new(8);
        for c in 0..5 {
            r.push(ev(c));
        }
        let cycles: Vec<u64> = r.tail().iter().map(|e| e.cycle.0).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_evicts_oldest_preserving_order() {
        let mut r = FlightRecorder::new(4);
        for c in 0..10 {
            r.push(ev(c));
        }
        let cycles: Vec<u64> = r.tail().iter().map(|e| e.cycle.0).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = FlightRecorder::new(0);
        r.push(ev(1));
        assert_eq!(r.tail(), vec![]);
    }

    proptest! {
        /// For any capacity and push count, the ring holds exactly the
        /// last `min(pushes, capacity)` events in push order.
        #[test]
        fn ring_is_always_the_ordered_suffix(cap in 0usize..32, pushes in 0u64..200) {
            let mut r = FlightRecorder::new(cap);
            for c in 0..pushes {
                r.push(ev(c));
            }
            let got: Vec<u64> = r.tail().iter().map(|e| e.cycle.0).collect();
            let keep = (pushes as usize).min(cap);
            let want: Vec<u64> = (pushes - keep as u64..pushes).collect();
            prop_assert_eq!(got, want);
        }
    }
}
