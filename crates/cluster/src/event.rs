//! Event storage: a binary heap popping in exact `(time, seq)` order.
//!
//! # Ordering contract
//!
//! Every event carries a `(time, seq)` key and the queue pops keys in
//! ascending lexicographic order: earliest time first, and — because
//! [`EventQueue::push`] assigns `seq` monotonically — FIFO (insertion)
//! order among events scheduled for the same instant. The proptest
//! below pits the queue against a stable sort to enforce it.
//!
//! The engine layers a *two-class* discipline on top of the raw key via
//! [`EventQueue::push_at`] (see [`DYN_SEQ_BASE`]): job arrivals take low
//! sequence numbers in trace order, dynamically scheduled events
//! (finishes, node failures/repairs, job faults) take high ones in push
//! order. At a tied timestamp every arrival then pops before any dynamic
//! event *no matter when the arrival was pushed*, which is what lets the
//! windowed runner inject arrivals lazily, window by window, and still
//! process events in exactly the order a fully pre-loaded serial run
//! sees.
//!
//! A binary heap is enough: lazy window-by-window injection keeps the
//! queue shallow, so an O(1) bucketed queue does not beat it (E23;
//! DESIGN.md §9).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens at an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job arrives in the queue.
    Arrival {
        /// Index into the simulator's job table.
        job: usize,
    },
    /// A running job finishes and frees its nodes.
    ///
    /// The `attempt` tag invalidates stale finishes: when a fault kills
    /// attempt `k` and the job later restarts as attempt `k+1`, the finish
    /// scheduled for attempt `k` must be ignored when it surfaces.
    Finish {
        /// Index into the simulator's job table.
        job: usize,
        /// Which attempt of the job this finish belongs to (1-based;
        /// fault-free runs only ever see attempt 1).
        attempt: u32,
    },
    /// A node fails; any job running on it is killed.
    NodeFailure {
        /// Index of the failing node.
        node: usize,
    },
    /// A failed node comes back after its repair time.
    NodeRepair {
        /// Index of the repaired node.
        node: usize,
    },
    /// A software fault strikes one attempt of a running job.
    JobFault {
        /// Index into the simulator's job table.
        job: usize,
        /// Attempt the fault belongs to; stale faults (the attempt already
        /// ended) are ignored.
        attempt: u32,
    },
}

/// First sequence number of the *dynamic* event class.
///
/// The engine assigns arrival events sequence numbers below this base
/// (in trace order) and dynamically scheduled events (finishes, node
/// failures, repairs, job faults) numbers at or above it (in push
/// order). At a tied timestamp every arrival therefore pops before any
/// dynamic event regardless of push order, which makes the pop order
/// invariant under lazy window-by-window arrival injection.
pub const DYN_SEQ_BASE: u64 = 1 << 63;

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation time of the event.
    pub time: f64,
    /// Tie-break key: at equal times, events pop in ascending `seq`.
    /// [`EventQueue::push`] assigns `seq` monotonically, so
    /// same-timestamp events pop in insertion (FIFO) order.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Event-queue selector for [`crate::engine::Engine::new`]. It selects
/// nothing: the binary heap is the only backend. The type remains only
/// because the repository benchmark passes `QueueKind::default()` to
/// `Engine::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// The binary heap: O(log n) push and pop.
    #[default]
    Heap,
}

/// Deterministic time-ordered event queue; see the module docs for the
/// ordering contract.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at `time` with the next monotone sequence
    /// number, so same-timestamp events pop in insertion (FIFO) order.
    ///
    /// # Panics
    /// Panics on non-finite times (simulator invariant).
    pub fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.push_at(time, seq, kind);
    }

    /// Schedules an event at `time` with an explicit sequence number —
    /// the engine uses this to run the two-class discipline described
    /// at [`DYN_SEQ_BASE`]. Auto-assigned sequence numbers from
    /// [`EventQueue::push`] stay above any explicit one seen so far.
    ///
    /// # Panics
    /// Panics on non-finite times (simulator invariant).
    pub fn push_at(&mut self, time: f64, seq: u64, kind: EventKind) {
        assert!(time.is_finite(), "event time must be finite");
        self.next_seq = self.next_seq.max(seq.saturating_add(1));
        self.heap.push(Event { time, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_before(f64::INFINITY)
    }

    /// Removes and returns the earliest event only if its time is
    /// strictly below `horizon`; returns `None` (and leaves the queue
    /// untouched) otherwise. The windowed runner's barrier primitive.
    pub fn pop_before(&mut self, horizon: f64) -> Option<Event> {
        match self.heap.peek() {
            Some(ev) if ev.time < horizon => self.heap.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::Arrival { job: 0 });
        q.push(1.0, EventKind::Arrival { job: 1 });
        q.push(3.0, EventKind::Finish { job: 2, attempt: 1 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        // The FIFO contract: same-timestamp events pop in push order,
        // whatever their kinds.
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::Finish { job: 0, attempt: 1 });
        q.push(2.0, EventKind::Arrival { job: 1 });
        q.push(2.0, EventKind::Arrival { job: 2 });
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Finish { job: 0, attempt: 1 },
                EventKind::Arrival { job: 1 },
                EventKind::Arrival { job: 2 },
            ]
        );
    }

    #[test]
    fn two_class_discipline_orders_late_arrivals_first() {
        // An arrival pushed *after* a dynamic event but with a class-0
        // seq still pops first at a tied timestamp — the invariance that
        // makes lazy window-by-window injection exact.
        let mut q = EventQueue::new();
        q.push_at(7.0, DYN_SEQ_BASE, EventKind::Finish { job: 0, attempt: 1 });
        q.push_at(7.0, 0, EventKind::Arrival { job: 1 });
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival { job: 1 });
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::Finish { job: 0, attempt: 1 }
        );
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Arrival { job: 0 });
        q.push(5.0, EventKind::Arrival { job: 1 });
        assert_eq!(q.pop_before(5.0).unwrap().time, 1.0);
        assert_eq!(q.pop_before(5.0), None, "strictly-below horizon");
        assert_eq!(q.len(), 1, "a refused pop leaves the queue intact");
        assert_eq!(q.pop_before(5.1).unwrap().time, 5.0);
        assert!(q.is_empty());
        assert_eq!(q.pop_before(f64::INFINITY), None);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, EventKind::Arrival { job: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        EventQueue::new().push(f64::NAN, EventKind::Arrival { job: 0 });
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics_on_heap_too() {
        EventQueue::new().push(f64::INFINITY, EventKind::Arrival { job: 0 });
    }

    mod equivalence_props {
        use super::*;
        use proptest::prelude::*;

        /// Timestamps drawn from a tiny grid so ties are common, mixed
        /// with arbitrary finite times.
        fn times() -> impl Strategy<Value = f64> {
            prop_oneof![
                (0u32..8).prop_map(f64::from),
                (0u32..1_000_000).prop_map(|t| f64::from(t) * 0.25),
            ]
        }

        proptest! {
            #[test]
            fn heap_and_stable_sort_agree(ts in proptest::collection::vec(times(), 1..300)) {
                let mut heap = EventQueue::new();
                let mut reference: Vec<Event> = Vec::new();
                for (i, &t) in ts.iter().enumerate() {
                    let kind = EventKind::Arrival { job: i };
                    heap.push(t, kind);
                    reference.push(Event { time: t, seq: i as u64, kind });
                }
                // Stable sort by time alone: seq (push order) breaks ties,
                // which is exactly the FIFO contract.
                reference.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
                for want in &reference {
                    prop_assert_eq!(heap.pop().unwrap(), *want);
                }
                prop_assert!(heap.is_empty());
            }

            #[test]
            fn windowed_popping_matches_unwindowed(
                ts in proptest::collection::vec(times(), 1..200),
                window in 1u32..64,
            ) {
                // Popping through fixed horizons yields the same sequence
                // as popping freely.
                let mut free_q = EventQueue::new();
                let mut win_q = EventQueue::new();
                for (i, &t) in ts.iter().enumerate() {
                    free_q.push(t, EventKind::Arrival { job: i });
                    win_q.push(t, EventKind::Arrival { job: i });
                }
                let free: Vec<Event> = std::iter::from_fn(|| free_q.pop()).collect();
                let mut windowed = Vec::new();
                let mut horizon = f64::from(window);
                while windowed.len() < free.len() {
                    while let Some(ev) = win_q.pop_before(horizon) {
                        windowed.push(ev);
                    }
                    horizon += f64::from(window);
                }
                prop_assert_eq!(&free, &windowed);
            }
        }
    }
}
