//! The deterministic discrete-event engine.
//!
//! Actors are pure state machines driven by message deliveries and timer
//! firings. All side effects flow through a [`Context`], which schedules
//! future events. Events are totally ordered by `(time, sequence)`, so a
//! run is bit-reproducible given its seed. The same [`Actor`] trait is
//! driven in real time by [`crate::live::LiveRuntime`].
//!
//! # The queue orders keys, not events
//!
//! A pending event is two things: *when* it happens and *what* happens.
//! Only the first takes part in ordering, so only the first goes through
//! the priority queue: the heap holds 24-byte keys — `(time, seq,
//! slot)` — and the payload (recipient, message or timer id) waits in a
//! slab slot the key points at. A sift moves 24 bytes per level instead
//! of a whole message envelope; a payload is written once when scheduled
//! and read once when dispatched. Freed slots go on a free list and are
//! reused, so a steady-state run schedules without allocating.
//!
//! The order is exactly what it was when the heap held whole events:
//! keys compare by `(time, seq)`, `seq` is unique per scheduled event,
//! and `slot` — which slab cell happened to be free — sits last in the
//! comparison, where a unique `seq` never lets it decide.
//!
//! # Examples
//!
//! ```
//! use ladon_sim::{Actor, ActorId, Context, Engine, IdealNetwork};
//! use ladon_types::{TimeNs, WireSize};
//!
//! #[derive(Clone)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> u64 { 4 }
//! }
//!
//! struct Echo { got: u32 }
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, from: ActorId, msg: Ping, ctx: &mut dyn Context<Ping>) {
//!         self.got = msg.0;
//!         if msg.0 < 3 { ctx.send(from, Ping(msg.0 + 1)); }
//!     }
//!     fn on_timer(&mut self, _t: u64, ctx: &mut dyn Context<Ping>) {
//!         let peer = 1 - ctx.self_id();
//!         ctx.send(peer, Ping(0));
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut eng = Engine::new(IdealNetwork { latency: TimeNs::from_millis(1) }, 42);
//! eng.add_actor(Box::new(Echo { got: 99 }));
//! eng.add_actor(Box::new(Echo { got: 99 }));
//! eng.schedule_timer(0, TimeNs::ZERO, 0);
//! eng.run_until(TimeNs::from_secs(1));
//! let echo: &Echo = eng.actor_as(1).unwrap();
//! assert!(echo.got < 99);
//! ```

use crate::net::Network;
use crate::rng::SimRng;
use crate::trace::NetStats;
use ladon_types::{TimeNs, WireSize};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of an actor within an engine.
pub type ActorId = usize;

/// The side-effect interface available to actor callbacks.
///
/// Implemented by the discrete-event engine's context and by the live
/// (threaded) runtime's context, so protocol state machines run unchanged
/// in both worlds.
pub trait Context<M: WireSize + Clone> {
    /// Current (simulated or wall-clock) time.
    fn now(&self) -> TimeNs;

    /// The calling actor's id.
    fn self_id(&self) -> ActorId;

    /// Sends with an explicit wire size (when the modeled size differs
    /// from the in-memory representation).
    fn send_sized(&mut self, to: ActorId, msg: M, bytes: u64);

    /// Schedules `on_timer(id)` for the calling actor after `delay`.
    fn set_timer(&mut self, delay: TimeNs, id: u64);

    /// Marks an actor as crashed: it receives no further events.
    fn crash(&mut self, actor: ActorId);

    /// Deterministic RNG.
    fn rng(&mut self) -> &mut SimRng;

    /// Sends `msg` to `to`; the network model decides arrival time.
    fn send(&mut self, to: ActorId, msg: M) {
        let bytes = msg.wire_size();
        self.send_sized(to, msg, bytes);
    }

    /// Sends `msg` to every id in `targets`, in order: a clone to each
    /// but the last, which gets `msg` itself.
    fn multicast(&mut self, targets: &[ActorId], msg: M) {
        let Some((&last, rest)) = targets.split_last() else {
            return;
        };
        for &t in rest {
            self.send(t, msg.clone());
        }
        self.send(last, msg);
    }
}

/// A state machine driven by the engine or the live runtime.
pub trait Actor<M: WireSize + Clone> {
    /// Called once at start (schedule initial timers here).
    fn on_start(&mut self, _ctx: &mut dyn Context<M>) {}

    /// Called on every message delivery.
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut dyn Context<M>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, timer: u64, ctx: &mut dyn Context<M>);

    /// Downcast support, for extracting results after a run.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

enum EventKind<M> {
    Deliver { from: ActorId, msg: M, bytes: u64 },
    Timer { id: u64 },
}

/// What the heap orders: due time, then scheduling sequence. Field order
/// is comparison order; `slot` only locates the payload.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: TimeNs,
    seq: u64,
    slot: u32,
}

/// What a key points at.
struct Pending<M> {
    to: ActorId,
    kind: EventKind<M>,
}

struct EngineCore<M> {
    now: TimeNs,
    seq: u64,
    /// Earliest key first (`Reverse`: `BinaryHeap` is a max-heap).
    queue: BinaryHeap<Reverse<Key>>,
    /// Payloads of the queued keys; `None` cells are on `free`.
    slab: Vec<Option<Pending<M>>>,
    free: Vec<u32>,
    net: Box<dyn Network>,
    rng: SimRng,
    stats: NetStats,
    crashed: Vec<bool>,
    events_processed: u64,
}

impl<M> EngineCore<M> {
    /// Queues `kind` for `to` at `time`, behind everything already
    /// scheduled for that instant.
    fn schedule(&mut self, time: TimeNs, to: ActorId, kind: EventKind<M>) {
        self.seq += 1;
        let pending = Some(Pending { to, kind });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = pending;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 events in flight");
                self.slab.push(pending);
                slot
            }
        };
        self.queue.push(Reverse(Key {
            time,
            seq: self.seq,
            slot,
        }));
    }

    /// Removes the earliest event, if any, with its due time.
    fn pop(&mut self) -> Option<(TimeNs, Pending<M>)> {
        let Reverse(key) = self.queue.pop()?;
        let pending = self.slab[key.slot as usize]
            .take()
            .expect("a queued key points at a filled slot");
        self.free.push(key.slot);
        Some((key.time, pending))
    }
}

struct SimCtx<'a, M> {
    core: &'a mut EngineCore<M>,
    self_id: ActorId,
}

impl<M: WireSize + Clone> Context<M> for SimCtx<'_, M> {
    #[inline]
    fn now(&self) -> TimeNs {
        self.core.now
    }

    #[inline]
    fn self_id(&self) -> ActorId {
        self.self_id
    }

    fn send_sized(&mut self, to: ActorId, msg: M, bytes: u64) {
        let core = &mut *self.core;
        core.stats.on_send(self.self_id, bytes);
        match core
            .net
            .delivery_time(core.now, self.self_id, to, bytes, &mut core.rng)
        {
            Some(at) => {
                debug_assert!(at >= core.now, "network produced a delivery in the past");
                let from = self.self_id;
                core.schedule(at, to, EventKind::Deliver { from, msg, bytes });
            }
            None => core.stats.on_drop(self.self_id),
        }
    }

    fn set_timer(&mut self, delay: TimeNs, id: u64) {
        let at = self.core.now + delay;
        self.core
            .schedule(at, self.self_id, EventKind::Timer { id });
    }

    fn crash(&mut self, actor: ActorId) {
        if actor < self.core.crashed.len() {
            self.core.crashed[actor] = true;
        }
    }

    #[inline]
    fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }
}

/// The discrete-event engine.
pub struct Engine<M> {
    core: EngineCore<M>,
    actors: Vec<Box<dyn Actor<M>>>,
    started: bool,
}

impl<M: WireSize + Clone> Engine<M> {
    /// Creates an engine over a network model with a deterministic seed.
    pub fn new(net: impl Network + 'static, seed: u64) -> Self {
        Self {
            core: EngineCore {
                now: TimeNs::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                net: Box::new(net),
                rng: SimRng::new(seed),
                stats: NetStats::default(),
                crashed: Vec::new(),
                events_processed: 0,
            },
            actors: Vec::new(),
            started: false,
        }
    }

    /// Registers an actor, returning its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = self.actors.len();
        self.actors.push(actor);
        self.core.crashed.push(false);
        self.core.stats.ensure_len(self.actors.len());
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> TimeNs {
        self.core.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Schedules a timer for `actor` at absolute time `at` from outside
    /// the run (e.g. fault injection before starting).
    pub fn schedule_timer(&mut self, actor: ActorId, at: TimeNs, id: u64) {
        self.core.schedule(at, actor, EventKind::Timer { id });
    }

    /// Marks an actor as crashed from outside the run.
    pub fn set_crashed(&mut self, actor: ActorId, crashed: bool) {
        self.core.crashed[actor] = crashed;
    }

    /// Replaces a (typically crashed) actor with a fresh instance and
    /// clears its crashed flag — a process restart. If the run has already
    /// started, the new actor's `on_start` executes at the current
    /// simulated time so it can arm its timers. Stale timers scheduled by
    /// the previous incarnation may still fire into the new one; actors
    /// built for restart must treat unknown timer ids as benign (the
    /// Multi-BFT node does).
    pub fn restart_actor(&mut self, id: ActorId, actor: Box<dyn Actor<M>>) {
        self.actors[id] = actor;
        self.core.crashed[id] = false;
        if self.started {
            let mut ctx = SimCtx {
                core: &mut self.core,
                self_id: id,
            };
            self.actors[id].on_start(&mut ctx);
        }
    }

    /// Whether an actor is crashed.
    pub fn is_crashed(&self, actor: ActorId) -> bool {
        self.core.crashed[actor]
    }

    /// Immutable access to an actor as a concrete type.
    pub fn actor_as<T: 'static>(&self, id: ActorId) -> Option<&T> {
        self.actors.get(id)?.as_any().downcast_ref::<T>()
    }

    /// Mutable access to an actor as a concrete type.
    pub fn actor_as_mut<T: 'static>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors.get_mut(id)?.as_any_mut().downcast_mut::<T>()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.actors.len() {
            let mut ctx = SimCtx {
                core: &mut self.core,
                self_id: id,
            };
            self.actors[id].on_start(&mut ctx);
        }
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some((time, Pending { to, kind })) = self.core.pop() else {
            return false;
        };
        debug_assert!(time >= self.core.now, "time went backwards");
        self.core.now = time;
        self.core.events_processed += 1;
        if self.core.crashed[to] {
            return true; // Crashed actors swallow events.
        }
        let mut ctx = SimCtx {
            core: &mut self.core,
            self_id: to,
        };
        match kind {
            EventKind::Deliver { from, msg, bytes } => {
                ctx.core.stats.on_recv(to, bytes);
                self.actors[to].on_message(from, msg, &mut ctx);
            }
            EventKind::Timer { id } => {
                self.actors[to].on_timer(id, &mut ctx);
            }
        }
        true
    }

    /// Runs until the queue drains or simulated time reaches `deadline`.
    ///
    /// Events at exactly `deadline` are *not* processed, so consecutive
    /// `run_until` calls partition time cleanly.
    pub fn run_until(&mut self, deadline: TimeNs) {
        self.start_if_needed();
        loop {
            match self.core.queue.peek() {
                Some(Reverse(key)) if key.time < deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Runs for `d` more simulated time.
    pub fn run_for(&mut self, d: TimeNs) {
        let deadline = self.core.now + d;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::IdealNetwork;

    #[derive(Clone)]
    struct Num(u64);
    impl WireSize for Num {
        fn wire_size(&self) -> u64 {
            8
        }
    }

    /// Records every delivery with its timestamp.
    struct Recorder {
        log: Vec<(TimeNs, ActorId, u64)>,
        reply: bool,
    }
    impl Actor<Num> for Recorder {
        fn on_message(&mut self, from: ActorId, msg: Num, ctx: &mut dyn Context<Num>) {
            self.log.push((ctx.now(), from, msg.0));
            if self.reply && msg.0 > 0 {
                ctx.send(from, Num(msg.0 - 1));
            }
        }
        fn on_timer(&mut self, id: u64, ctx: &mut dyn Context<Num>) {
            self.log.push((ctx.now(), usize::MAX, id));
            ctx.send(1, Num(id));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn engine2(reply: bool) -> Engine<Num> {
        let mut e = Engine::new(
            IdealNetwork {
                latency: TimeNs::from_millis(1),
            },
            7,
        );
        e.add_actor(Box::new(Recorder { log: vec![], reply }));
        e.add_actor(Box::new(Recorder { log: vec![], reply }));
        e
    }

    #[test]
    fn ping_pong_terminates_and_orders_time() {
        let mut e = engine2(true);
        e.schedule_timer(0, TimeNs::ZERO, 5);
        e.run_until(TimeNs::from_secs(1));
        let a: &Recorder = e.actor_as(0).unwrap();
        let b: &Recorder = e.actor_as(1).unwrap();
        // 0 fires timer(5) -> sends 5 to 1; 1 replies 4; ... until 0.
        assert_eq!(b.log.iter().filter(|(_, f, _)| *f == 0).count(), 3); // 5,3,1
        assert_eq!(a.log.iter().filter(|(_, f, _)| *f == 1).count(), 3); // 4,2,0
                                                                         // Timestamps non-decreasing in each log.
        for w in a.log.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut e = engine2(true);
            e.schedule_timer(0, TimeNs::ZERO, 9);
            e.run_until(TimeNs::from_secs(1));
            let a: &Recorder = e.actor_as(0).unwrap();
            a.log.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashed_actor_receives_nothing() {
        let mut e = engine2(true);
        e.set_crashed(1, true);
        e.schedule_timer(0, TimeNs::ZERO, 5);
        e.run_until(TimeNs::from_secs(1));
        let b: &Recorder = e.actor_as(1).unwrap();
        assert!(b.log.is_empty());
        assert!(e.is_crashed(1));
        // Events were still consumed (and counted).
        assert!(e.events_processed() >= 2);
    }

    #[test]
    fn run_until_stops_time_and_resumes() {
        let mut e = engine2(false);
        e.schedule_timer(0, TimeNs::from_millis(10), 1);
        e.schedule_timer(0, TimeNs::from_millis(30), 2);
        e.run_until(TimeNs::from_millis(20));
        assert_eq!(e.now(), TimeNs::from_millis(20));
        let a: &Recorder = e.actor_as(0).unwrap();
        assert_eq!(a.log.len(), 1);
        e.run_for(TimeNs::from_millis(20));
        let a: &Recorder = e.actor_as(0).unwrap();
        assert_eq!(a.log.len(), 2);
        assert_eq!(e.now(), TimeNs::from_millis(40));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let mut e = engine2(false);
        e.schedule_timer(0, TimeNs::ZERO, 1);
        e.run_until(TimeNs::from_secs(1));
        assert_eq!(e.stats().msgs_sent[0], 1);
        assert_eq!(e.stats().bytes_sent[0], 8);
        assert_eq!(e.stats().msgs_recv[1], 1);
    }

    #[test]
    fn tie_break_is_fifo_by_schedule_order() {
        // Two timers at the identical instant fire in scheduling order.
        let mut e = engine2(false);
        e.schedule_timer(0, TimeNs::from_millis(5), 100);
        e.schedule_timer(0, TimeNs::from_millis(5), 200);
        e.run_until(TimeNs::from_secs(1));
        let a: &Recorder = e.actor_as(0).unwrap();
        let timer_ids: Vec<u64> = a
            .log
            .iter()
            .filter(|(_, f, _)| *f == usize::MAX)
            .map(|&(_, _, id)| id)
            .collect();
        assert_eq!(timer_ids, vec![100, 200]);
    }

    #[test]
    fn heap_orders_small_keys() {
        assert!(std::mem::size_of::<Key>() <= 24);
    }

    /// Logs every timer and delivery; a timer id of 100 or more also
    /// sends itself to the actor.
    struct Log(Vec<u64>);
    impl Actor<Num> for Log {
        fn on_message(&mut self, _from: ActorId, msg: Num, _ctx: &mut dyn Context<Num>) {
            self.0.push(1000 + msg.0);
        }
        fn on_timer(&mut self, id: u64, ctx: &mut dyn Context<Num>) {
            self.0.push(id);
            if id >= 100 {
                ctx.send(ctx.self_id(), Num(id));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn same_instant_order_survives_slot_reuse() {
        let latency = TimeNs::from_millis(1);
        let mut e = Engine::new(IdealNetwork { latency }, 7);
        e.add_actor(Box::new(Log(Vec::new())));
        // Three timers fill slots 0, 1, 2 and fire, freeing them in that
        // order — so the free list hands them back as 2, 1, 0.
        for id in 1..=3 {
            e.schedule_timer(0, TimeNs::from_millis(1), id);
        }
        e.run_until(TimeNs::from_millis(2));
        assert_eq!(e.core.free, vec![0, 1, 2]);
        // Same instant, scheduled 100, 200, 300: seq ascends while the
        // slots descend. A fourth timer is due when their sends arrive.
        for id in [100, 200, 300] {
            e.schedule_timer(0, TimeNs::from_millis(5), id);
        }
        e.schedule_timer(0, TimeNs::from_millis(6), 4);
        let slots: Vec<u32> = e.core.queue.iter().map(|k| k.0.slot).collect();
        assert!(slots.contains(&0) && slots.contains(&3), "{slots:?}");
        e.run_until(TimeNs::from_secs(1));
        // Schedule order at 5 ms; at 6 ms the timer (scheduled before the
        // sends existed) and then the deliveries in send order.
        let log: &Log = e.actor_as(0).unwrap();
        assert_eq!(log.0, [1, 2, 3, 100, 200, 300, 4, 1100, 1200, 1300]);
        // Nothing pending: every slot is back on the free list.
        assert_eq!(e.core.free.len(), e.core.slab.len());
        assert!(e.core.slab.iter().all(Option::is_none));
    }

    #[test]
    fn multicast_reaches_every_target_in_order() {
        let mut e = engine2(false);
        e.add_actor(Box::new(Recorder {
            log: vec![],
            reply: false,
        }));
        let mut ctx = SimCtx {
            core: &mut e.core,
            self_id: 0,
        };
        ctx.multicast(&[2, 1], Num(9));
        ctx.multicast(&[], Num(1));
        assert_eq!(e.stats().msgs_sent[0], 2);
        let order: Vec<ActorId> = {
            let mut keys: Vec<Key> = e.core.queue.iter().map(|k| k.0).collect();
            keys.sort();
            keys.iter()
                .map(|k| e.core.slab[k.slot as usize].as_ref().unwrap().to)
                .collect()
        };
        assert_eq!(order, [2, 1]);
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let e = engine2(false);
        assert!(e.actor_as::<String>(0).is_none());
        assert!(e.actor_as::<Recorder>(0).is_some());
        assert!(e.actor_as::<Recorder>(99).is_none());
    }
}
