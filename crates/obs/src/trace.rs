//! Per-block lifecycle tracing: a bounded ring-buffer journal of
//! timestamped stage transitions.
//!
//! Each node keeps one [`TraceJournal`]; the node records an event at
//! every stage a block passes through (submitted → proposed →
//! confirmed → WAL-staged → flushed → applied → checkpointed) using
//! `ctx.now()` — the sim clock in simulation, the monotonic wall clock
//! in `LiveRuntime` (both surface as `TimeNs`). Stage-latency
//! breakdowns — e.g. fsync-barrier wait (`staged→flushed`) vs.
//! execution time (`flushed→applied`) — are then queryable from the
//! journal alone.
//!
//! The journal is bounded (default 4096 events) so a long run cannot
//! grow memory without bound; `stage_latencies()` is computed
//! incrementally as events arrive, so latency histograms cover the
//! whole run even after old events are evicted from the ring.

use std::collections::BTreeMap;

use ladon_types::time::TimeNs;

use crate::registry::{Histogram, MetricsRegistry, SnapshotInto};

/// Lifecycle stages of a block, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Transactions batched into a block proposal candidate.
    Submitted = 0,
    /// Block proposed by its lane leader.
    Proposed = 1,
    /// Block confirmed (f+1 / QC observed) by this node.
    Confirmed = 2,
    /// Confirm record staged into the WAL buffer (not yet durable).
    WalStaged = 3,
    /// WAL flush barrier completed; record durable.
    Flushed = 4,
    /// Transactions applied to the state machine.
    Applied = 5,
    /// Covered by a checkpoint (Merkle root published).
    Checkpointed = 6,
}

impl Stage {
    pub const ALL: [Stage; 7] = [
        Stage::Submitted,
        Stage::Proposed,
        Stage::Confirmed,
        Stage::WalStaged,
        Stage::Flushed,
        Stage::Applied,
        Stage::Checkpointed,
    ];

    /// Short machine-readable name (used in metric names).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submitted => "submitted",
            Stage::Proposed => "proposed",
            Stage::Confirmed => "confirmed",
            Stage::WalStaged => "staged",
            Stage::Flushed => "flushed",
            Stage::Applied => "applied",
            Stage::Checkpointed => "checkpointed",
        }
    }

    /// The next stage in the pipeline, if any.
    pub fn next(self) -> Option<Stage> {
        Stage::ALL.get(self as usize + 1).copied()
    }
}

/// One recorded stage transition for a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number of the block's confirm record (or the
    /// block id before one is assigned).
    pub sn: u64,
    /// Lane the block belongs to.
    pub lane: u32,
    /// The stage entered.
    pub stage: Stage,
    /// Timestamp: sim time in simulation, monotonic time live.
    pub at: TimeNs,
}

/// Default ring capacity: enough to hold the full in-flight window of
/// any realistic config while bounding memory.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Bounded ring-buffer journal of lifecycle events plus incrementally
/// maintained stage-latency histograms.
#[derive(Clone, Debug)]
pub struct TraceJournal {
    events: Vec<TraceEvent>,
    head: usize,
    capacity: usize,
    /// Last seen (stage, time) per in-flight sn, to compute adjacent
    /// transition latencies incrementally. Entries are retired when the
    /// block reaches `Checkpointed` (or evicted beyond the window).
    inflight: BTreeMap<u64, (Stage, TimeNs)>,
    /// `latency[i]` = histogram of (stage i → stage i+1) latencies, ns.
    latency: [Histogram; Stage::ALL.len() - 1],
    recorded: u64,
    dropped_transitions: u64,
    /// Out-of-band node events (mode transitions, quarantines, …):
    /// timestamped tags outside the per-block stage machinery, bounded
    /// by the same ring capacity. Per-tag counts survive eviction.
    node_events: Vec<(&'static str, TimeNs)>,
    node_event_counts: BTreeMap<&'static str, u64>,
}

impl Default for TraceJournal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl TraceJournal {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        TraceJournal {
            events: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            inflight: BTreeMap::new(),
            latency: Default::default(),
            recorded: 0,
            dropped_transitions: 0,
            node_events: Vec::new(),
            node_event_counts: BTreeMap::new(),
        }
    }

    /// Records a timestamped node-level event (e.g.
    /// `"mode_degraded"` / `"mode_normal"` transitions of the
    /// durability state machine, or a responder quarantine) outside the
    /// per-block stage pipeline. The event list is bounded by the
    /// journal capacity (oldest evicted first); per-tag counts are
    /// kept exactly.
    pub fn note_event(&mut self, tag: &'static str, at: TimeNs) {
        if self.node_events.len() >= self.capacity {
            self.node_events.remove(0);
        }
        self.node_events.push((tag, at));
        *self.node_event_counts.entry(tag).or_insert(0) += 1;
    }

    /// Node-level events still held (oldest first).
    pub fn node_events(&self) -> &[(&'static str, TimeNs)] {
        &self.node_events
    }

    /// Exact occurrence count for one node-event tag.
    pub fn node_event_count(&self, tag: &str) -> u64 {
        self.node_event_counts.get(tag).copied().unwrap_or(0)
    }

    /// Records a stage transition for block `sn` at time `at`.
    ///
    /// Latency is credited to the `(previous stage → this stage)`
    /// histogram when the previous event for `sn` is the immediately
    /// preceding stage; out-of-order or skipped-stage transitions are
    /// counted in `dropped_transitions` instead of polluting the
    /// histograms.
    pub fn record(&mut self, sn: u64, lane: u32, stage: Stage, at: TimeNs) {
        let event = TraceEvent {
            sn,
            lane,
            stage,
            at,
        };
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;

        match self.inflight.get(&sn).copied() {
            None => {
                // A terminal stage with no history (e.g. a checkpoint
                // sweeping sns that predate the journal) records the
                // event but opens no in-flight entry.
                if stage != Stage::Checkpointed {
                    self.inflight.insert(sn, (stage, at));
                }
            }
            Some((prev_stage, prev_at)) => {
                if prev_stage.next() == Some(stage) {
                    let delta = at.0.saturating_sub(prev_at.0);
                    self.latency[prev_stage as usize].observe(delta);
                } else {
                    self.dropped_transitions += 1;
                }
                if stage == Stage::Checkpointed {
                    self.inflight.remove(&sn);
                } else {
                    self.inflight.insert(sn, (stage, at));
                }
            }
        }
        // Bound the in-flight map too: retire the oldest sn if a
        // pathological workload never completes blocks.
        if self.inflight.len() > self.capacity {
            if let Some((&oldest, _)) = self.inflight.iter().next() {
                self.inflight.remove(&oldest);
            }
        }
    }

    /// Events currently held in the ring, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        if self.events.len() < self.capacity {
            out.extend_from_slice(&self.events);
        } else {
            out.extend_from_slice(&self.events[self.head..]);
            out.extend_from_slice(&self.events[..self.head]);
        }
        out
    }

    /// Total events ever recorded (not just those still in the ring).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Transitions that arrived out of pipeline order.
    pub fn dropped_transitions(&self) -> u64 {
        self.dropped_transitions
    }

    /// The latency histogram for the transition out of `from` into the
    /// next stage (`None` for the terminal stage).
    pub fn stage_latency(&self, from: Stage) -> Option<&Histogram> {
        self.latency.get(from as usize)
    }

    /// All adjacent-transition histograms, keyed
    /// `"<from>_to_<to>"` (e.g. `"staged_to_flushed"`).
    pub fn stage_latencies(&self) -> Vec<(String, &Histogram)> {
        Stage::ALL
            .iter()
            .filter_map(|&from| {
                let to = from.next()?;
                Some((
                    format!("{}_to_{}", from.name(), to.name()),
                    &self.latency[from as usize],
                ))
            })
            .collect()
    }

    /// Merges another journal's latency histograms (events are not
    /// merged — the ring is per-node diagnostics; histograms are the
    /// aggregatable product).
    pub fn merge_latencies(&mut self, other: &TraceJournal) {
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency.iter()) {
            mine.merge(theirs);
        }
        self.recorded += other.recorded;
        self.dropped_transitions += other.dropped_transitions;
        for (tag, count) in &other.node_event_counts {
            *self.node_event_counts.entry(tag).or_insert(0) += count;
        }
    }
}

impl SnapshotInto for TraceJournal {
    fn snapshot_into(&self, registry: &mut MetricsRegistry) {
        registry.counter("trace.events_recorded", self.recorded);
        registry.counter("trace.dropped_transitions", self.dropped_transitions);
        for (tag, count) in &self.node_event_counts {
            registry.counter(&format!("trace.event.{tag}"), *count);
        }
        for (name, h) in self.stage_latencies() {
            if !h.is_empty() {
                registry.merge_histogram(&format!("trace.{name}_ns"), h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> TimeNs {
        TimeNs(ns)
    }

    #[test]
    fn stage_order_and_names() {
        for pair in Stage::ALL.windows(2) {
            assert_eq!(pair[0].next(), Some(pair[1]));
        }
        assert_eq!(Stage::Checkpointed.next(), None);
        assert_eq!(Stage::WalStaged.name(), "staged");
    }

    #[test]
    fn adjacent_transitions_feed_latency_histograms() {
        let mut j = TraceJournal::new();
        j.record(7, 0, Stage::Submitted, t(100));
        j.record(7, 0, Stage::Proposed, t(150));
        j.record(7, 0, Stage::Confirmed, t(400));
        j.record(7, 0, Stage::WalStaged, t(410));
        j.record(7, 0, Stage::Flushed, t(1_000));
        j.record(7, 0, Stage::Applied, t(1_200));
        j.record(7, 0, Stage::Checkpointed, t(5_000));

        let staged_to_flushed = j.stage_latency(Stage::WalStaged).unwrap();
        assert_eq!(staged_to_flushed.count(), 1);
        assert!((staged_to_flushed.mean() - 590.0).abs() < 1e-9);
        let flushed_to_applied = j.stage_latency(Stage::Flushed).unwrap();
        assert!((flushed_to_applied.mean() - 200.0).abs() < 1e-9);
        assert_eq!(j.dropped_transitions(), 0);
        assert_eq!(j.recorded(), 7);
        // Checkpointed retires the block from the in-flight map.
        assert!(j.inflight.is_empty());
    }

    #[test]
    fn out_of_order_transitions_are_counted_not_observed() {
        let mut j = TraceJournal::new();
        j.record(1, 0, Stage::Submitted, t(0));
        j.record(1, 0, Stage::Confirmed, t(10)); // skipped Proposed
        assert_eq!(j.dropped_transitions(), 1);
        assert_eq!(j.stage_latency(Stage::Submitted).unwrap().count(), 0);
    }

    #[test]
    fn ring_is_bounded_but_histograms_cover_everything() {
        let mut j = TraceJournal::with_capacity(4);
        for sn in 0..10 {
            j.record(sn, 0, Stage::WalStaged, t(sn * 100));
            j.record(sn, 0, Stage::Flushed, t(sn * 100 + 50));
        }
        let events = j.events();
        assert_eq!(events.len(), 4);
        // Oldest-first ordering after wraparound.
        assert!(events.windows(2).all(|w| w[0].at.0 <= w[1].at.0));
        // All 10 transitions observed despite eviction.
        assert_eq!(j.stage_latency(Stage::WalStaged).unwrap().count(), 10);
        assert!((j.stage_latency(Stage::WalStaged).unwrap().mean() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn node_events_counted_and_bounded() {
        let mut j = TraceJournal::with_capacity(2);
        j.note_event("mode_degraded", t(10));
        j.note_event("mode_normal", t(20));
        j.note_event("mode_degraded", t(30));
        assert_eq!(j.node_events().len(), 2, "ring bounded");
        assert_eq!(j.node_event_count("mode_degraded"), 2, "counts exact");
        assert_eq!(j.node_event_count("mode_normal"), 1);
        let mut r = MetricsRegistry::new();
        j.snapshot_into(&mut r);
        assert_eq!(r.counter_value("trace.event.mode_degraded"), 2);

        let mut other = TraceJournal::new();
        other.note_event("mode_degraded", t(40));
        j.merge_latencies(&other);
        assert_eq!(j.node_event_count("mode_degraded"), 3);
    }

    #[test]
    fn snapshot_into_registry() {
        let mut j = TraceJournal::new();
        j.record(1, 0, Stage::WalStaged, t(0));
        j.record(1, 0, Stage::Flushed, t(640));
        let mut r = MetricsRegistry::new();
        j.snapshot_into(&mut r);
        assert_eq!(r.counter_value("trace.events_recorded"), 2);
        let h = r.histogram("trace.staged_to_flushed_ns").unwrap();
        assert_eq!(h.count(), 1);
    }
}
