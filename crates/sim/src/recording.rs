//! A [`Context`] that performs nothing and records everything.
//!
//! Drives one actor's handlers directly — inputs in, outputs out — with
//! no engine and no network: every send and every timer request is kept
//! for the test to inspect, the clock is whatever the test sets it to,
//! and the rng is seeded.

use crate::engine::{ActorId, Context};
use crate::rng::SimRng;
use ladon_types::{TimeNs, WireSize};

/// Records an actor's effects instead of performing them.
pub struct RecordingCtx<M> {
    /// The actor id handlers see as their own.
    pub self_id: ActorId,
    /// The (fixed) clock; set it between calls to move time.
    pub now: TimeNs,
    /// Every message sent, in order, with its destination.
    pub sent: Vec<(ActorId, M)>,
    /// Every timer requested, in order: `(delay, id)`.
    pub timers: Vec<(TimeNs, u64)>,
    /// Actors the handlers asked to crash.
    pub crashed: Vec<ActorId>,
    rng: SimRng,
}

impl<M> RecordingCtx<M> {
    /// A context for actor `self_id` at time zero with a seeded rng.
    pub fn new(self_id: ActorId, seed: u64) -> Self {
        Self {
            self_id,
            now: TimeNs::ZERO,
            sent: Vec::new(),
            timers: Vec::new(),
            crashed: Vec::new(),
            rng: SimRng::new(seed),
        }
    }
}

impl<M: WireSize + Clone> Context<M> for RecordingCtx<M> {
    fn now(&self) -> TimeNs {
        self.now
    }
    fn self_id(&self) -> ActorId {
        self.self_id
    }
    fn send_sized(&mut self, to: ActorId, msg: M, _bytes: u64) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, delay: TimeNs, id: u64) {
        self.timers.push((delay, id));
    }
    fn crash(&mut self, actor: ActorId) {
        self.crashed.push(actor);
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl WireSize for Ping {
        fn wire_size(&self) -> u64 {
            4
        }
    }

    #[test]
    fn records_sends_timers_and_crashes_in_order() {
        let mut ctx = RecordingCtx::new(3, 7);
        ctx.now = TimeNs::from_millis(5);
        let dynctx: &mut dyn Context<Ping> = &mut ctx;
        assert_eq!(dynctx.self_id(), 3);
        assert_eq!(dynctx.now(), TimeNs::from_millis(5));
        dynctx.send(1, Ping(1));
        dynctx.multicast(&[0, 2], Ping(2));
        dynctx.set_timer(TimeNs::from_millis(10), 42);
        dynctx.crash(3);
        assert_eq!(ctx.sent, [(1, Ping(1)), (0, Ping(2)), (2, Ping(2))]);
        assert_eq!(ctx.timers, [(TimeNs::from_millis(10), 42)]);
        assert_eq!(ctx.crashed, [3]);
        // Seeded: two contexts with the same seed draw the same stream.
        let mut other = RecordingCtx::<Ping>::new(0, 7);
        assert_eq!(
            Context::rng(&mut ctx).next_u64(),
            Context::rng(&mut other).next_u64()
        );
    }
}
