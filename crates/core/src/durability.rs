//! The durability degradation state machine.
//!
//! A replica whose WAL backend keeps failing flush barriers must stop
//! treating anything as durable without stopping consensus. This module
//! is that decision and nothing else: [`Durability::on`] maps
//! `(state, event)` to `(state, step)` and the node performs the step
//! (arm a timer, call the pipeline's repair, stamp metrics). No I/O, no
//! clock, no `Context` — the whole machine is unit-tested below.
//!
//! # State diagram
//!
//! ```mermaid
//! stateDiagram-v2
//!     [*] --> Normal
//!     Normal --> Degraded : barrier_resolved(failures >= 3) / arm retry 50 ms
//!     Normal --> Normal : barrier_resolved(failures < 3)
//!     Normal --> Normal : retry_timer (stale, ignored)
//!     Degraded --> Degraded : retry_timer / attempt repair
//!     Degraded --> Degraded : repair_failed | backlog_barrier_failed / arm retry, doubled, cap 1000 ms
//!     Degraded --> Normal : repair_ok and backlog durable
//! ```
//!
//! # Transition table
//!
//! ```text
//! state        event                              next            step
//! -----------  ---------------------------------  --------------  ---------------------------
//! Normal       BarrierResolved(f < 3)            Normal          None
//! Normal       BarrierResolved(f >= 3)           Degraded(0)     Degraded(50 ms)
//! Normal       RetryTimer                         Normal          None  (stale timer)
//! Normal       RepairAttempted{..}                Normal          None  (nothing was attempted)
//! Degraded(a)  BarrierResolved(_)                 Degraded(a)     None  (already retrying)
//! Degraded(a)  RetryTimer                         Degraded(a)     AttemptRepair
//! Degraded(a)  RepairAttempted{repaired, f == 0}  Normal          Recovered
//! Degraded(a)  RepairAttempted{repaired, f > 0}   Degraded(a+1)   RetryIn(backoff(a+1))  "flutter"
//! Degraded(a)  RepairAttempted{!repaired, ..}     Degraded(a+1)   RetryIn(backoff(a+1))
//! ```
//!
//! `failures` / `f` is the pipeline's *consecutive* failed-barrier count
//! (`PipelinePerf::consecutive_flush_failures`, reset by any clean
//! barrier or successful repair), so an isolated hiccup alarms without
//! degrading.
//!
//! **Bounded exit.** `backoff(a) = min(50 ms · 2^a, 1000 ms)`: the delay
//! doubles per failed attempt and stops growing at the cap (reached at
//! `a = 5`), so a healed backend is noticed within one second however
//! long the outage lasted. The machine never gives up — a replica with
//! a permanently dead disk stays `Degraded`, keeps voting, and is
//! repaired by an operator or replaced; if peers compact their logs past
//! its frontier meanwhile, the ordinary sync path escalates to a
//! snapshot reinstall.
//!
//! # What each state gates (enforced by the node)
//!
//! - **Normal** — barriers drain, checkpoints run, snapshots are served.
//! - **Degraded** — confirmed blocks keep *staging* (unacknowledged, in
//!   memory) but no new barrier touches the failing backend; no
//!   snapshot is served (log entries still are — they carry their own
//!   QCs).
//! - **Degraded × an epoch completes** — the replica *abstains*
//!   (`EpochPacemaker::abstain`): no checkpoint is taken (its root
//!   would cover an undurable prefix), nothing is signed or sent, and
//!   the epoch advances on the peers' 2f+1 matching-root quorum. The
//!   checkpoint is not deferred to recovery either — by then the state
//!   is past the epoch boundary and the root would diverge — so an
//!   abstained epoch leaves no entry in `state_roots`, and the next
//!   epoch that completes while `Normal` checkpoints (and compacts the
//!   WAL) as usual.
//!
//! `Degraded → Normal` happens only after a retry rewrote the log from
//! the in-memory mirror *and* the staged backlog drained through a clean
//! barrier, which leaves the state roots byte-identical to a
//! never-degraded run.

use ladon_types::TimeNs;

/// Consecutive failed flush barriers (with no success in between) that
/// flip a replica `Normal → Degraded`. Isolated hiccups alarm without
/// degrading; a persistently failing backend crosses this quickly.
pub const WAL_FAILURE_DEGRADE_THRESHOLD: u64 = 3;
/// Delay before the first degraded-mode durability retry; doubles per
/// failed attempt.
pub const WAL_RETRY_BACKOFF_MS: u64 = 50;
/// Cap on the doubled retry delay.
pub const WAL_RETRY_BACKOFF_MAX_MS: u64 = 1000;

/// Durability mode of the replica, as observers see it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NodeMode {
    /// Durable path healthy: barriers drain and checkpoints run.
    #[default]
    Normal,
    /// Durable path failing: staging only, retries on a backoff timer.
    Degraded,
}

/// What happened (the machine's inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityEvent {
    /// A handler that can resolve a flush barrier finished; carries the
    /// pipeline's consecutive failed-barrier count afterwards.
    BarrierResolved(u64),
    /// The retry timer fired.
    RetryTimer,
    /// The repair a [`DurabilityStep::AttemptRepair`] asked for ran.
    RepairAttempted {
        /// The backend accepted the rewritten log.
        repaired: bool,
        /// Consecutive failed barriers after draining the staged backlog
        /// (meaningful only when `repaired`).
        failures: u64,
    },
}

/// What the node must do next (the machine's outputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityStep {
    /// Nothing.
    None,
    /// Just entered `Degraded`: record the entry, arm the retry timer
    /// with this (base) delay.
    Degraded(TimeNs),
    /// Run the pipeline's repair (and, if it succeeds, drain the staged
    /// backlog), then report [`DurabilityEvent::RepairAttempted`].
    AttemptRepair,
    /// Back in `Normal`: record the recovery.
    Recovered,
    /// Still `Degraded`: re-arm the retry timer.
    RetryIn(TimeNs),
}

/// The machine: the mode plus the backoff exponent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Durability {
    mode: NodeMode,
    /// Failed retries since entering `Degraded` (0 while `Normal`).
    attempt: u32,
}

impl Durability {
    /// The current mode.
    pub fn mode(&self) -> NodeMode {
        self.mode
    }

    /// `true` while barriers, checkpoints and snapshot serving are open.
    pub fn is_normal(&self) -> bool {
        self.mode == NodeMode::Normal
    }

    /// Delay before retry number `attempt` (0-based): doubled per failed
    /// attempt, capped.
    pub fn backoff(attempt: u32) -> TimeNs {
        TimeNs::from_millis(
            WAL_RETRY_BACKOFF_MS
                .saturating_mul(1u64 << attempt.min(32))
                .min(WAL_RETRY_BACKOFF_MAX_MS),
        )
    }

    /// The transition function (see the module table).
    pub fn on(&mut self, event: DurabilityEvent) -> DurabilityStep {
        use DurabilityEvent::*;
        match (self.mode, event) {
            (NodeMode::Normal, BarrierResolved(failures))
                if failures >= WAL_FAILURE_DEGRADE_THRESHOLD =>
            {
                self.mode = NodeMode::Degraded;
                DurabilityStep::Degraded(Self::backoff(0))
            }
            (NodeMode::Degraded, RetryTimer) => DurabilityStep::AttemptRepair,
            (
                NodeMode::Degraded,
                RepairAttempted {
                    repaired: true,
                    failures: 0,
                },
            ) => {
                *self = Self::default();
                DurabilityStep::Recovered
            }
            (NodeMode::Degraded, RepairAttempted { .. }) => {
                self.attempt = self.attempt.saturating_add(1);
                DurabilityStep::RetryIn(Self::backoff(self.attempt))
            }
            (NodeMode::Normal, _) | (NodeMode::Degraded, BarrierResolved(_)) => {
                DurabilityStep::None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DurabilityEvent::*;

    fn degraded() -> Durability {
        let mut d = Durability::default();
        d.on(BarrierResolved(3));
        d
    }

    #[test]
    fn degrades_exactly_at_three_consecutive_failures() {
        let mut d = Durability::default();
        for failures in 0..WAL_FAILURE_DEGRADE_THRESHOLD {
            assert_eq!(d.on(BarrierResolved(failures)), DurabilityStep::None);
            assert!(d.is_normal(), "{failures} failures must not degrade");
        }
        assert_eq!(
            d.on(BarrierResolved(3)),
            DurabilityStep::Degraded(TimeNs::from_millis(50))
        );
        assert_eq!(d.mode(), NodeMode::Degraded);
        // Further failed barriers while degraded change nothing: one
        // entry, one timer chain.
        assert_eq!(d.on(BarrierResolved(9)), DurabilityStep::None);
    }

    #[test]
    fn backoff_doubles_from_50ms_and_caps_at_1000ms() {
        let mut d = degraded();
        let mut delays = vec![];
        for _ in 0..8 {
            assert_eq!(d.on(RetryTimer), DurabilityStep::AttemptRepair);
            let DurabilityStep::RetryIn(delay) = d.on(RepairAttempted {
                repaired: false,
                failures: 4,
            }) else {
                panic!("a failed repair must re-arm the retry");
            };
            delays.push(delay.as_millis_f64() as u64);
        }
        assert_eq!(delays, [100, 200, 400, 800, 1000, 1000, 1000, 1000]);
        assert_eq!(
            Durability::backoff(u32::MAX),
            TimeNs::from_millis(1000),
            "the exponent saturates instead of overflowing the shift"
        );
    }

    #[test]
    fn flutter_stays_degraded_and_keeps_backing_off() {
        let mut d = degraded();
        d.on(RetryTimer);
        // The rewrite succeeded but the backlog's own barrier failed.
        assert_eq!(
            d.on(RepairAttempted {
                repaired: true,
                failures: 1
            }),
            DurabilityStep::RetryIn(TimeNs::from_millis(100))
        );
        assert_eq!(d.mode(), NodeMode::Degraded);
        d.on(RetryTimer);
        assert_eq!(
            d.on(RepairAttempted {
                repaired: true,
                failures: 0
            }),
            DurabilityStep::Recovered
        );
        assert!(d.is_normal());
        // Re-entry starts the backoff over: the machine does not latch.
        assert_eq!(
            d.on(BarrierResolved(3)),
            DurabilityStep::Degraded(TimeNs::from_millis(50))
        );
    }

    #[test]
    fn stale_retry_timer_in_normal_is_a_noop() {
        let mut d = Durability::default();
        assert_eq!(d.on(RetryTimer), DurabilityStep::None);
        assert_eq!(
            d.on(RepairAttempted {
                repaired: true,
                failures: 0
            }),
            DurabilityStep::None
        );
        assert_eq!(d, Durability::default());
    }
}
