//! The deterministic discrete-event engine.
//!
//! Actors are pure state machines driven by message deliveries and timer
//! firings. All side effects flow through a [`Context`], which schedules
//! future events. Events are totally ordered by `(time, sequence)`, so a
//! run is bit-reproducible given its seed. The same [`Actor`] trait is
//! driven in real time by [`crate::live::LiveRuntime`].
//!
//! # A delivery waits in its stream, a timer in the ordered map
//!
//! Most pending deliveries are already in the order they fire, once they
//! are grouped by recipient. The queue keeps them in FIFO *streams*, each
//! entry a `(time, seq)` key with its payload beside it, moved in once
//! and out once: a delivery (sender, message, size) joins its recipient's
//! stream, except a self-send, which joins the one loopback stream. A
//! small binary heap orders the streams' head keys, one per non-empty
//! stream, so a pop is one sift on a cache-hot heap and a push onto a
//! non-empty stream is an append.
//!
//! Every timer waits in one map ordered by key, and so does a delivery
//! whose key is below its stream's tail; a pop takes the smaller of the
//! heads' top and the map's first key, which the queue keeps beside the
//! map. Timers are at most a few percent of the events a run dispatches
//! (each consensus instance keeps one liveness deadline), so one tree
//! serves them all. A stream is a hint, never a correctness input:
//! events come out in exactly `(time, seq)` order for any [`Network`],
//! and `seq` is unique per scheduled event, so a seeded run is the one a
//! single heap of every key gives. One door, `Queue::schedule`, takes
//! every event, here and in the live runtime's clock thread.
//!
//! Why each stream stays in order, so deliveries stay out of the map:
//!
//! - **Time never goes back.** `now` only moves to a popped event's time
//!   or a `run_until` deadline, and [`Engine::schedule_timer`] moves an
//!   instant in the past up to `now`.
//! - **Deliveries to one recipient.** [`NicNetwork`](crate::NicNetwork)
//!   delivers at `rx_done ≥ rx_free[to]` and then raises `rx_free[to]` to
//!   `rx_done`, so whoever sends, deliveries to one receiver are
//!   scheduled in non-decreasing time. [`IdealNetwork`](crate::IdealNetwork)
//!   adds one constant to `now`.
//! - **Self-sends.** Loopback is a constant 10 µs after `now`.
//! - **Ties.** Equal times within a stream keep schedule order, because
//!   `seq` grows with every push.
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
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

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

/// What an event does to its recipient.
pub(crate) enum EventKind<M> {
    Deliver { from: ActorId, msg: M, bytes: u64 },
    Timer { id: u64 },
}

/// When an event fires: due time, then scheduling sequence. `seq` is
/// unique, so no two keys are equal.
type Key = (TimeNs, u64);

/// What happens when a key comes due.
pub(crate) struct Pending<M> {
    pub(crate) to: ActorId,
    pub(crate) kind: EventKind<M>,
}

/// Pending events: deliveries in FIFO streams merged by their heads,
/// timers in one ordered map (module docs).
pub(crate) struct Queue<M> {
    seq: u64,
    /// Deliveries: self-sends in stream 0, the others to `to` in `1 + to`.
    streams: Vec<VecDeque<(Key, Pending<M>)>>,
    /// The head key of every non-empty stream, with its index
    /// (`Reverse`: earliest on top).
    heads: BinaryHeap<Reverse<(Key, usize)>>,
    /// Timers, and deliveries that would have broken their stream's order.
    ordered: BTreeMap<Key, Pending<M>>,
    /// `ordered`'s first key, kept beside it: every pop compares against
    /// it, and a tree walk there costs the delivery path about a fifth.
    first: Option<Key>,
    /// Deliveries ever sent to `ordered`.
    fallbacks: u64,
}

impl<M> Queue<M> {
    pub(crate) fn new() -> Self {
        Self {
            seq: 0,
            streams: Vec::new(),
            heads: BinaryHeap::new(),
            ordered: BTreeMap::new(),
            first: None,
            fallbacks: 0,
        }
    }

    /// Queues `pending` at `time`, behind everything already scheduled
    /// for that instant. Inlined into each caller: left out of line, the
    /// call costs a one-event-in-flight run about a tenth of its speed.
    #[inline(always)]
    pub(crate) fn schedule(&mut self, time: TimeNs, pending: Pending<M>) {
        self.seq += 1;
        let key = (time, self.seq);
        if let EventKind::Deliver { from, .. } = pending.kind {
            let to = pending.to;
            let s = if from == to { 0 } else { 1 + to };
            if s >= self.streams.len() {
                self.streams.resize_with(s + 1, VecDeque::new);
            }
            let fifo = &mut self.streams[s];
            match fifo.back() {
                Some(&(tail, _)) if key < tail => self.fallbacks += 1,
                tail => {
                    if tail.is_none() {
                        self.heads.push(Reverse((key, s)));
                    }
                    fifo.push_back((key, pending));
                    return;
                }
            }
        }
        if self.first.is_none_or(|f| key < f) {
            self.first = Some(key);
        }
        self.ordered.insert(key, pending);
    }

    /// Due time of the earliest event.
    pub(crate) fn next_time(&self) -> Option<TimeNs> {
        let head = self.heads.peek().map(|Reverse(((time, _), _))| *time);
        let ordered = self.first.map(|(time, _)| time);
        head.into_iter().chain(ordered).min()
    }

    /// Removes the earliest event, if any, with its key.
    pub(crate) fn pop(&mut self) -> Option<(Key, Pending<M>)> {
        let head = self.heads.peek().map(|Reverse((key, _))| *key);
        if self.first.is_some_and(|f| head.is_none_or(|h| f < h)) {
            let popped = self.ordered.pop_first();
            self.first = self.ordered.first_key_value().map(|(key, _)| *key);
            return popped;
        }
        let mut top = self.heads.peek_mut()?;
        let fifo = &mut self.streams[top.0 .1];
        let popped = fifo.pop_front().expect("a stream in `heads` has a head");
        match fifo.front() {
            Some(&(next, _)) => top.0 .0 = next,
            None => {
                PeekMut::pop(top);
            }
        }
        Some(popped)
    }
}

struct EngineCore<M> {
    now: TimeNs,
    queue: Queue<M>,
    net: Box<dyn Network>,
    rng: SimRng,
    stats: NetStats,
    crashed: Vec<bool>,
    /// Per actor, the queue's `seq` when it last restarted: a timer keyed
    /// at or below it was armed by an earlier incarnation.
    restarted_at: Vec<u64>,
    events_processed: u64,
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
                let kind = EventKind::Deliver { from, msg, bytes };
                core.queue.schedule(at, Pending { to, kind });
            }
            None => core.stats.on_drop(self.self_id),
        }
    }

    fn set_timer(&mut self, delay: TimeNs, id: u64) {
        let core = &mut *self.core;
        let (to, kind) = (self.self_id, EventKind::Timer { id });
        core.queue.schedule(core.now + delay, Pending { to, kind });
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
                queue: Queue::new(),
                net: Box::new(net),
                rng: SimRng::new(seed),
                stats: NetStats::default(),
                crashed: Vec::new(),
                restarted_at: Vec::new(),
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
        self.core.restarted_at.push(0);
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
    ///
    /// An `at` already past fires at [`Engine::now`], after the events
    /// already due then: the clock never runs backwards.
    pub fn schedule_timer(&mut self, actor: ActorId, at: TimeNs, id: u64) {
        let kind = EventKind::Timer { id };
        let at = at.max(self.core.now);
        self.core.queue.schedule(at, Pending { to: actor, kind });
    }

    /// Replaces a (typically crashed) actor with a fresh instance and
    /// clears its crashed flag — a process restart. If the run has already
    /// started, the new actor's `on_start` executes at the current
    /// simulated time so it can arm its timers. Timers armed for the
    /// actor before the restart never fire; messages in flight to it
    /// still arrive.
    pub fn restart_actor(&mut self, id: ActorId, actor: Box<dyn Actor<M>>) {
        self.actors[id] = actor;
        self.core.crashed[id] = false;
        self.core.restarted_at[id] = self.core.queue.seq;
        if self.started {
            let mut ctx = SimCtx {
                core: &mut self.core,
                self_id: id,
            };
            self.actors[id].on_start(&mut ctx);
        }
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
        let Some(((time, seq), Pending { to, kind })) = self.core.queue.pop() else {
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
            EventKind::Timer { id } if seq > ctx.core.restarted_at[to] => {
                self.actors[to].on_timer(id, &mut ctx);
            }
            EventKind::Timer { .. } => {} // The previous incarnation's.
        }
        true
    }

    /// Runs until the queue drains or simulated time reaches `deadline`.
    ///
    /// Events at exactly `deadline` are *not* processed, so consecutive
    /// `run_until` calls partition time cleanly.
    pub fn run_until(&mut self, deadline: TimeNs) {
        self.start_if_needed();
        while self.core.queue.next_time().is_some_and(|t| t < deadline) {
            self.step();
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
    use crate::net::{IdealNetwork, NicNetwork};
    use crate::topology::Topology;
    use ladon_types::NetEnv;

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
        /// Crashes actor 1 on its timer, then sends it a message.
        struct Crasher;
        impl Actor<Num> for Crasher {
            fn on_message(&mut self, _: ActorId, _: Num, _: &mut dyn Context<Num>) {}
            fn on_timer(&mut self, id: u64, ctx: &mut dyn Context<Num>) {
                ctx.crash(1);
                ctx.send(1, Num(id));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut e = Engine::new(
            IdealNetwork {
                latency: TimeNs::from_millis(1),
            },
            7,
        );
        e.add_actor(Box::new(Crasher));
        e.add_actor(Box::new(Recorder {
            log: vec![],
            reply: true,
        }));
        e.schedule_timer(0, TimeNs::ZERO, 5);
        e.run_until(TimeNs::from_secs(1));
        let b: &Recorder = e.actor_as(1).unwrap();
        assert!(b.log.is_empty());
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
    fn a_timer_scheduled_in_the_past_fires_now() {
        let mut e = engine2(false);
        e.schedule_timer(0, TimeNs::from_millis(10), 1);
        assert!(e.step());
        // One timer due now, then one already past: the past one fires
        // at 10 ms too, behind the one due then.
        e.schedule_timer(0, TimeNs::from_millis(10), 2);
        e.schedule_timer(0, TimeNs::from_millis(5), 3);
        e.run_until(TimeNs::from_secs(1));
        let a: &Recorder = e.actor_as(0).unwrap();
        let ten = TimeNs::from_millis(10);
        assert_eq!(a.log, [1, 2, 3].map(|id| (ten, usize::MAX, id)));
    }

    fn timer(to: ActorId, id: u64) -> Pending<Num> {
        let kind = EventKind::Timer { id };
        Pending { to, kind }
    }

    fn delivery(from: ActorId, to: ActorId, n: u64) -> Pending<Num> {
        let (msg, bytes) = (Num(n), 8);
        let kind = EventKind::Deliver { from, msg, bytes };
        Pending { to, kind }
    }

    #[test]
    fn the_heap_holds_one_small_key_per_busy_stream() {
        assert!(std::mem::size_of::<Reverse<(Key, usize)>>() <= 24);
        let mut q: Queue<Num> = Queue::new();
        for i in 0..1_000 {
            q.schedule(TimeNs::from_secs(10), timer(i % 4, i as u64));
            q.schedule(TimeNs::from_micros(i as u64), delivery(0, 1 + i % 3, 0));
        }
        q.schedule(TimeNs::from_micros(5), delivery(2, 2, 0));
        // Three recipients and loopback; the timers wait in the map.
        assert_eq!(q.heads.len(), 4);
        assert_eq!(std::iter::from_fn(|| q.pop()).count(), 2_001);
        assert!(q.heads.is_empty());
        assert_eq!(q.fallbacks, 0);
    }

    /// The queue against the order it must reproduce, a heap of `(time,
    /// seq)` keys, over seeded schedules: deliveries to three in-order
    /// recipients, self-sends, a recipient whose times go backwards, and
    /// timers at 40 delays, all in whole milliseconds so that streams and
    /// the map tie; pops interleaved, then a drain.
    #[test]
    fn queue_pops_in_the_reference_heap_order() {
        let ms = TimeNs::from_millis;
        let (mut fallbacks, mut ties) = (0, 0);
        for seed in 0..64 {
            let mut rng = SimRng::new(seed);
            let mut q: Queue<Num> = Queue::new();
            let mut reference: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
            let mut now = TimeNs::ZERO;
            let mut rx_free = [TimeNs::ZERO; 4];
            for step in 0..3_000u64 {
                let draining = step >= 2_000;
                if draining || rng.chance(0.4) {
                    assert_eq!(
                        q.next_time(),
                        reference.peek().map(|Reverse((time, _))| *time)
                    );
                    let Some(Reverse((time, seq))) = reference.pop() else {
                        assert!(q.pop().is_none());
                        continue;
                    };
                    let ((at, _), Pending { kind, .. }) =
                        q.pop().expect("as many events as the reference");
                    let id = match kind {
                        EventKind::Deliver { msg, .. } => msg.0,
                        EventKind::Timer { id } => id,
                    };
                    assert_eq!((at, id), (time, seq), "seed {seed}, step {step}");
                    ties += u64::from(time == now);
                    now = time;
                    continue;
                }
                let seq = q.seq + 1;
                let to = rng.next_below(4) as usize;
                let time = match rng.next_below(4) {
                    0 => {
                        let at = now + ms(rng.next_below(40));
                        q.schedule(at, timer(to, seq));
                        at
                    }
                    1 if to > 0 => {
                        rx_free[to] = rx_free[to].max(now) + ms(rng.next_below(3));
                        q.schedule(rx_free[to], delivery(0, to, seq));
                        rx_free[to]
                    }
                    2 => {
                        q.schedule(now + ms(1), delivery(to, to, seq));
                        now + ms(1)
                    }
                    _ => {
                        let at = now + ms(rng.next_below(20));
                        q.schedule(at, delivery(1, 0, seq));
                        at
                    }
                };
                reference.push(Reverse((time, seq)));
            }
            assert!(q.heads.is_empty() && q.ordered.is_empty());
            fallbacks += q.fallbacks;
        }
        assert!(fallbacks > 1_000 && ties > 1_000, "{fallbacks} {ties}");
    }

    /// Sends every actor, itself included, a message of a random size on
    /// each tick, and keeps two slower timers armed.
    struct Gossip;
    const GOSSIP_TIMERS: [TimeNs; 3] = [
        TimeNs::from_millis(20),
        TimeNs::from_millis(70),
        TimeNs::from_secs(10),
    ];
    impl Actor<Num> for Gossip {
        fn on_start(&mut self, ctx: &mut dyn Context<Num>) {
            for (id, delay) in GOSSIP_TIMERS.into_iter().enumerate() {
                ctx.set_timer(delay, id as u64);
            }
        }
        fn on_message(&mut self, _from: ActorId, _msg: Num, _ctx: &mut dyn Context<Num>) {}
        fn on_timer(&mut self, id: u64, ctx: &mut dyn Context<Num>) {
            ctx.set_timer(GOSSIP_TIMERS[id as usize], id);
            if id == 0 {
                for to in 0..16 {
                    let bytes = 100 + ctx.rng().next_below(20_000);
                    ctx.send_sized(to, Num(0), bytes);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// The stream gate: under the WAN NIC model every delivery arrives in
    /// its stream's order, so none falls back to the ordered map (timers
    /// always wait there). A network-model change that breaks
    /// per-receiver order fails here instead of only slowing the engine
    /// down.
    #[test]
    fn nic_deliveries_and_timers_never_take_the_fallback() {
        let net = NicNetwork::new(Topology::paper(NetEnv::Wan, 16));
        let mut e = Engine::new(net, 7);
        for _ in 0..16 {
            e.add_actor(Box::new(Gossip));
        }
        e.run_until(TimeNs::from_secs(3));
        assert!(e.events_processed() > 30_000, "{}", e.events_processed());
        assert_eq!(e.core.queue.fallbacks, 0);
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
    fn same_instant_order_survives_storage_reuse() {
        let latency = TimeNs::from_millis(1);
        let mut e = Engine::new(IdealNetwork { latency }, 7);
        e.add_actor(Box::new(Log(Vec::new())));
        // Three timers at 0 send themselves: the self-sends fill the
        // loopback stream and arrive at 1 ms, leaving its ring buffer
        // empty with its head three cells in.
        for id in 101..=103 {
            e.schedule_timer(0, TimeNs::ZERO, id);
        }
        e.run_until(TimeNs::from_millis(2));
        let capacity = e.core.queue.streams[0].capacity();
        // Same instant, fired 100, 200, 300: their self-sends reuse those
        // cells and wrap around the buffer's end. A fourth timer is due
        // when they arrive.
        for id in [100, 200, 300] {
            e.schedule_timer(0, TimeNs::from_millis(3), id);
        }
        e.schedule_timer(0, TimeNs::from_millis(4), 4);
        e.run_until(TimeNs::from_millis(3) + TimeNs(1));
        let fifo = &e.core.queue.streams[0];
        assert_eq!(fifo.len(), 3);
        assert_eq!(fifo.capacity(), capacity);
        assert!(!fifo.as_slices().1.is_empty(), "the stream wraps");
        e.run_until(TimeNs::from_secs(1));
        // Schedule order at 3 ms; at 4 ms the timer (scheduled before the
        // sends existed) and then the deliveries in send order.
        let log: &Log = e.actor_as(0).unwrap();
        let first = [101, 102, 103, 1101, 1102, 1103];
        let second = [100, 200, 300, 4, 1100, 1200, 1300];
        assert_eq!(log.0, [&first[..], &second[..]].concat());
        assert!(e.core.queue.heads.is_empty());
        assert_eq!(e.core.queue.fallbacks, 0);
    }

    /// Arms timer `.0` 10 ms after it starts; logs the timers that fire.
    struct Arms(u64, Vec<u64>);
    impl Actor<Num> for Arms {
        fn on_start(&mut self, ctx: &mut dyn Context<Num>) {
            ctx.set_timer(TimeNs::from_millis(10), self.0);
        }
        fn on_message(&mut self, _from: ActorId, _msg: Num, _ctx: &mut dyn Context<Num>) {}
        fn on_timer(&mut self, id: u64, _ctx: &mut dyn Context<Num>) {
            self.1.push(id);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_restarted_actor_never_runs_its_predecessors_timers() {
        let latency = TimeNs::from_millis(1);
        let mut e = Engine::new(IdealNetwork { latency }, 7);
        e.add_actor(Box::new(Arms(1, Vec::new())));
        e.run_until(TimeNs::from_millis(5));
        // Timer 1 is due at 10 ms, the new incarnation's timer 2 at 15.
        e.restart_actor(0, Box::new(Arms(2, Vec::new())));
        e.run_until(TimeNs::from_secs(1));
        let a: &Arms = e.actor_as(0).unwrap();
        assert_eq!(a.1, [2]);
        assert_eq!(e.events_processed(), 2);
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
        let order: Vec<ActorId> = std::iter::from_fn(|| e.core.queue.pop())
            .map(|(_, pending)| pending.to)
            .collect();
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
