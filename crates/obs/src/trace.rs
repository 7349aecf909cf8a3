//! Per-block lifecycle tracing: stage-latency histograms.
//!
//! Each node keeps one [`TraceJournal`]; the node records every stage a
//! block passes through (submitted → proposed → confirmed →
//! checkpointed) at the time of the event that moved it — the sim clock
//! in simulation, the monotonic wall clock in `LiveRuntime` (both surface
//! as `TimeNs`).
//! Each adjacent pair of stages feeds one histogram, exported as
//! `trace.<from>_to_<to>_ns`: `confirmed_to_checkpointed` is how long
//! until a checkpoint covered a block. A confirmed block's WAL barrier
//! and apply run in the handler that confirms it, so they are no stage
//! of their own.
//!
//! The journal keeps only each in-flight block's latest stage, in a
//! window bounded by its capacity (default 4096 blocks), so a long run
//! cannot grow memory without bound.

use std::collections::{BTreeMap, VecDeque};

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
    /// Covered by a checkpoint (Merkle root published).
    Checkpointed = 3,
}

impl Stage {
    pub const ALL: [Stage; 4] = [
        Stage::Submitted,
        Stage::Proposed,
        Stage::Confirmed,
        Stage::Checkpointed,
    ];

    /// Short machine-readable name (used in metric names).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submitted => "submitted",
            Stage::Proposed => "proposed",
            Stage::Confirmed => "confirmed",
            Stage::Checkpointed => "checkpointed",
        }
    }

    /// The next stage in the pipeline, if any.
    pub fn next(self) -> Option<Stage> {
        Stage::ALL.get(self as usize + 1).copied()
    }
}

/// Default in-flight window: enough to hold every unfinished block of
/// any realistic config while bounding memory.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Stage-latency histograms, fed as blocks move through their stages.
#[derive(Clone, Debug)]
pub struct TraceJournal {
    capacity: usize,
    /// Last seen (sn, stage, time) per in-flight sn, in sn order, to
    /// compute adjacent transition latencies incrementally. Entries are
    /// retired when the block reaches `Checkpointed` (or evicted beyond
    /// the window, smallest sn first).
    inflight: VecDeque<(u64, Stage, TimeNs)>,
    /// `latency[i]` = histogram of (stage i → stage i+1) latencies, ns.
    latency: [Histogram; Stage::ALL.len() - 1],
    recorded: u64,
    dropped_transitions: u64,
    /// Occurrences of each out-of-band node event (mode transitions,
    /// quarantines, …), by tag.
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
            capacity: capacity.max(1),
            inflight: VecDeque::new(),
            latency: Default::default(),
            recorded: 0,
            dropped_transitions: 0,
            node_event_counts: BTreeMap::new(),
        }
    }

    /// Counts one node-level event (e.g. `"mode_degraded"` /
    /// `"mode_normal"` transitions of the durability state machine, or a
    /// responder quarantine) outside the per-block stage pipeline.
    pub fn note_event(&mut self, tag: &'static str) {
        *self.node_event_counts.entry(tag).or_insert(0) += 1;
    }

    /// Occurrence count for one node-event tag.
    pub fn node_event_count(&self, tag: &str) -> u64 {
        self.node_event_counts.get(tag).copied().unwrap_or(0)
    }

    /// Records that block `sn` entered `stage` at time `at`. `_lane` is
    /// unused (the `benchmark/` crate still passes it).
    ///
    /// Latency is credited to the `(previous stage → this stage)`
    /// histogram when the previous stage seen for `sn` is the immediately
    /// preceding one; out-of-order or skipped-stage transitions are
    /// counted in `dropped_transitions` instead of polluting the
    /// histograms.
    pub fn record(&mut self, sn: u64, _lane: u32, stage: Stage, at: TimeNs) {
        self.recorded += 1;
        match self.inflight_slot(sn) {
            Err(slot) => {
                // A terminal stage with no history (e.g. a checkpoint
                // sweeping sns that predate the journal) opens no
                // in-flight entry.
                if stage != Stage::Checkpointed {
                    self.inflight.insert(slot, (sn, stage, at));
                }
            }
            Ok(slot) => {
                let (_, prev_stage, prev_at) = self.inflight[slot];
                if prev_stage.next() == Some(stage) {
                    let delta = at.0.saturating_sub(prev_at.0);
                    self.latency[prev_stage as usize].observe(delta);
                } else {
                    self.dropped_transitions += 1;
                }
                if stage == Stage::Checkpointed {
                    self.inflight.remove(slot);
                } else {
                    self.inflight[slot] = (sn, stage, at);
                }
            }
        }
        // Bound the in-flight window: retire the oldest sn if a
        // pathological workload never completes blocks.
        if self.inflight.len() > self.capacity {
            self.inflight.pop_front();
        }
    }

    /// `Ok` with the in-flight position of `sn`, or `Err` with the
    /// position that keeps the window in sn order. Blocks enter in sn
    /// order and leave from the front, so the window is dense but for
    /// sns it never saw: `sn` is looked for as far from the back as it is
    /// below the last sn, and searched for only when that slot holds
    /// another.
    fn inflight_slot(&self, sn: u64) -> Result<usize, usize> {
        let len = self.inflight.len();
        let Some(back) = self
            .inflight
            .back()
            .and_then(|&(last, ..)| last.checked_sub(sn))
        else {
            return Err(len);
        };
        let slot = usize::try_from(back)
            .ok()
            .and_then(|back| (len - 1).checked_sub(back));
        match slot {
            Some(i) if self.inflight[i].0 == sn => Ok(i),
            _ => self.inflight.binary_search_by_key(&sn, |&(s, ..)| s),
        }
    }

    /// Stage transitions recorded so far.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }
}

impl SnapshotInto for TraceJournal {
    fn snapshot_into(&self, registry: &mut MetricsRegistry) {
        registry.counter("trace.events_recorded", self.recorded);
        registry.counter("trace.dropped_transitions", self.dropped_transitions);
        for (tag, count) in &self.node_event_counts {
            registry.counter(&format!("trace.event.{tag}"), *count);
        }
        for (pair, h) in Stage::ALL.windows(2).zip(&self.latency) {
            if !h.is_empty() {
                let name = format!("trace.{}_to_{}_ns", pair[0].name(), pair[1].name());
                registry.merge_histogram(&name, h);
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
        assert_eq!(Stage::Confirmed.name(), "confirmed");
    }

    #[test]
    fn adjacent_transitions_feed_latency_histograms() {
        let mut j = TraceJournal::new();
        j.record(7, 0, Stage::Submitted, t(100));
        j.record(7, 0, Stage::Proposed, t(150));
        j.record(7, 0, Stage::Confirmed, t(400));
        j.record(7, 0, Stage::Checkpointed, t(5_000));

        let proposed_to_confirmed = &j.latency[Stage::Proposed as usize];
        assert_eq!(proposed_to_confirmed.count(), 1);
        assert!((proposed_to_confirmed.mean() - 250.0).abs() < 1e-9);
        let confirmed_to_checkpointed = &j.latency[Stage::Confirmed as usize];
        assert!((confirmed_to_checkpointed.mean() - 4_600.0).abs() < 1e-9);
        assert_eq!(j.dropped_transitions, 0);
        assert_eq!(j.recorded(), 4);
        // Checkpointed retires the block from the in-flight window.
        assert!(j.inflight.is_empty());
    }

    #[test]
    fn out_of_order_transitions_are_counted_not_observed() {
        let mut j = TraceJournal::new();
        j.record(1, 0, Stage::Submitted, t(0));
        j.record(1, 0, Stage::Confirmed, t(10)); // skipped Proposed
        assert_eq!(j.dropped_transitions, 1);
        assert_eq!(j.latency[Stage::Submitted as usize].count(), 0);
    }

    #[test]
    fn window_is_bounded_but_histograms_cover_everything() {
        let mut j = TraceJournal::with_capacity(4);
        for sn in 0..10 {
            j.record(sn, 0, Stage::Proposed, t(sn * 100));
            j.record(sn, 0, Stage::Confirmed, t(sn * 100 + 50));
        }
        assert_eq!(j.inflight.len(), 4);
        let h = &j.latency[Stage::Proposed as usize];
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 50.0).abs() < 1e-9);
    }

    /// The in-flight bookkeeping as it was kept in a `BTreeMap`: the
    /// reference the sn-ordered window must match step for step.
    struct MapJournal {
        inflight: BTreeMap<u64, (Stage, TimeNs)>,
        latency: [Histogram; Stage::ALL.len() - 1],
        recorded: u64,
        dropped_transitions: u64,
        capacity: usize,
    }

    impl MapJournal {
        fn record(&mut self, sn: u64, stage: Stage, at: TimeNs) {
            self.recorded += 1;
            match self.inflight.get(&sn).copied() {
                None => {
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
            if self.inflight.len() > self.capacity {
                if let Some((&oldest, _)) = self.inflight.iter().next() {
                    self.inflight.remove(&oldest);
                }
            }
        }
    }

    #[test]
    fn inflight_window_matches_the_ordered_map() {
        const CAPACITY: usize = 8;
        let mut j = TraceJournal::with_capacity(CAPACITY);
        let mut reference = MapJournal {
            inflight: BTreeMap::new(),
            latency: Default::default(),
            recorded: 0,
            dropped_transitions: 0,
            capacity: CAPACITY,
        };
        // splitmix64: the sequence depends on the seed alone.
        let mut seed = 0x7ace_u64;
        let mut draw = |bound: u64| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let (mut frontier, mut now, mut last_sn) = (20u64, 0u64, 20u64);
        let mut jumps = 0;
        for step in 0..20_000 {
            now += draw(50);
            let mut steps: Vec<(u64, Stage)> = Vec::new();
            let front = reference
                .inflight
                .keys()
                .next()
                .copied()
                .unwrap_or(frontier);
            let sn = match draw(20) {
                // A new block at the frontier.
                0..=5 => {
                    frontier += 1;
                    frontier
                }
                // Interleaved: any sn a little behind the frontier.
                6..=11 => frontier.saturating_sub(draw(12)),
                // Repeated: the sn of the previous step.
                12..=13 => last_sn,
                // Below the front of the window.
                14 => front.saturating_sub(1 + draw(4)),
                // A checkpoint sweep over a run at the front.
                15..=16 => {
                    let from = front.saturating_sub(draw(3));
                    steps.extend((from..from + draw(12)).map(|sn| (sn, Stage::Checkpointed)));
                    from
                }
                // A forward jump, rarely.
                17 if draw(40) == 0 => {
                    jumps += 1;
                    frontier += 10_000;
                    frontier
                }
                _ => frontier.saturating_sub(draw(3)),
            };
            if steps.is_empty() {
                let next = match reference.inflight.get(&sn) {
                    None => Stage::Submitted as u64,
                    Some((prev, _)) => match draw(8) {
                        // Mostly the next stage; sometimes a skipped, a
                        // repeated or an earlier one.
                        0..=4 => *prev as u64 + 1,
                        5 => *prev as u64 + 2,
                        6 => *prev as u64,
                        _ => draw(Stage::ALL.len() as u64),
                    },
                };
                let stage = Stage::ALL[(next as usize).min(Stage::ALL.len() - 1)];
                steps.push((sn, stage));
            }
            for (sn, stage) in steps {
                j.record(sn, 0, stage, t(now));
                reference.record(sn, stage, t(now));
                last_sn = sn;
                let expect = reference
                    .inflight
                    .iter()
                    .map(|(&sn, &(st, at))| (sn, st, at));
                assert!(j.inflight.iter().copied().eq(expect), "step {step}");
                assert_eq!(j.inflight.len(), reference.inflight.len(), "step {step}");
                assert_eq!(j.recorded(), reference.recorded, "step {step}");
                assert_eq!(j.dropped_transitions, reference.dropped_transitions);
                assert_eq!(j.latency, reference.latency, "step {step}");
            }
        }
        // The sequence reached every case it was written for.
        assert!(jumps > 0);
        assert!(reference.latency.iter().all(|h| h.count() > 0));
        assert!(reference.dropped_transitions > 0);
    }

    #[test]
    fn node_events_are_counted() {
        let mut j = TraceJournal::new();
        j.note_event("mode_degraded");
        j.note_event("mode_normal");
        j.note_event("mode_degraded");
        assert_eq!(j.node_event_count("mode_degraded"), 2);
        assert_eq!(j.node_event_count("mode_normal"), 1);
        let mut r = MetricsRegistry::new();
        j.snapshot_into(&mut r);
        assert_eq!(r.counter_value("trace.event.mode_degraded"), 2);
    }

    #[test]
    fn snapshot_into_registry() {
        let mut j = TraceJournal::new();
        j.record(1, 0, Stage::Confirmed, t(0));
        j.record(1, 0, Stage::Checkpointed, t(640));
        let mut r = MetricsRegistry::new();
        j.snapshot_into(&mut r);
        assert_eq!(r.counter_value("trace.events_recorded"), 2);
        let h = r.histogram("trace.confirmed_to_checkpointed_ns").unwrap();
        assert_eq!(h.count(), 1);
        assert!(r.histogram("trace.submitted_to_proposed_ns").is_none());
    }
}
