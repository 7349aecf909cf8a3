//! Live (threaded, wall-clock) runtime.
//!
//! Drives the same [`Actor`] state machines as the discrete-event engine,
//! but over real threads and `std::sync::mpsc` channels, with message
//! latencies imposed by the same [`Network`] models. One thread per actor
//! processes deliveries and timers; a clock thread holds the engine's own
//! event queue, keyed by wall-clock due time, and hands each event to its
//! actor when it falls due. Used by the `live_cluster` example to
//! demonstrate that the protocol crates are runtime-agnostic.
//!
//! ## Threads
//!
//! A live cluster of `n` nodes runs `n` actor threads + 1 clock thread.
//! A file-backed `MultiBftNode` runs each WAL barrier (one write, one
//! fsync) on its own actor thread; a large acknowledged batch may apply
//! on the process-wide `ladon-state` executor, whose workers every
//! pipeline shares and which the runtime never sees. Shut down the
//! runtime and drop (or inspect, then drop) the returned actors to tear
//! the cluster down.

use crate::engine::{Actor, ActorId, Context, EventKind, Pending, Queue};
use crate::net::Network;
use crate::rng::SimRng;
use crate::trace::NetStats;
use ladon_types::{TimeNs, WireSize};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An event for the clock thread to queue, with its due time.
type Scheduled<M> = (TimeNs, Pending<M>);

/// What an actor thread receives: an event, or `None` to shut down.
type ActorEvent<M> = Option<EventKind<M>>;

struct Shared {
    start: Instant,
    net: Mutex<Box<dyn Network + Send>>,
    stats: Mutex<NetStats>,
    crashed: Mutex<Vec<bool>>,
}

impl Shared {
    fn now(&self) -> TimeNs {
        TimeNs(self.start.elapsed().as_nanos() as u64)
    }
}

struct LiveCtx<M> {
    self_id: ActorId,
    shared: Arc<Shared>,
    clock_tx: Sender<Scheduled<M>>,
    rng: SimRng,
}

impl<M: WireSize + Clone> Context<M> for LiveCtx<M> {
    fn now(&self) -> TimeNs {
        self.shared.now()
    }

    fn self_id(&self) -> ActorId {
        self.self_id
    }

    fn send_sized(&mut self, to: ActorId, msg: M, bytes: u64) {
        let now = self.shared.now();
        self.shared
            .stats
            .lock()
            .unwrap()
            .on_send(self.self_id, bytes);
        let due = {
            let mut net = self.shared.net.lock().unwrap();
            net.delivery_time(now, self.self_id, to, bytes, &mut self.rng)
        };
        match due {
            Some(due) => {
                let kind = EventKind::Deliver {
                    from: self.self_id,
                    msg,
                    bytes,
                };
                let _ = self.clock_tx.send((due, Pending { to, kind }));
            }
            None => self.shared.stats.lock().unwrap().on_drop(self.self_id),
        }
    }

    fn set_timer(&mut self, delay: TimeNs, id: u64) {
        let due = self.shared.now() + delay;
        let (to, kind) = (self.self_id, EventKind::Timer { id });
        let _ = self.clock_tx.send((due, Pending { to, kind }));
    }

    fn crash(&mut self, actor: ActorId) {
        let mut crashed = self.shared.crashed.lock().unwrap();
        if actor < crashed.len() {
            crashed[actor] = true;
        }
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// A running live cluster.
pub struct LiveRuntime<M> {
    actor_handles: Vec<JoinHandle<Box<dyn Actor<M> + Send>>>,
    actor_txs: Vec<SyncSender<ActorEvent<M>>>,
    clock_tx: Sender<Scheduled<M>>,
    clock_handle: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl<M: WireSize + Clone + Send + 'static> LiveRuntime<M> {
    /// Spawns one thread per actor plus a clock thread. `on_start` runs on
    /// each actor thread before its event loop.
    pub fn spawn(
        actors: Vec<Box<dyn Actor<M> + Send>>,
        net: Box<dyn Network + Send>,
        seed: u64,
    ) -> Self {
        let n = actors.len();
        let shared = Arc::new(Shared {
            start: Instant::now(),
            net: Mutex::new(net),
            stats: Mutex::new(NetStats::new(n)),
            crashed: Mutex::new(vec![false; n]),
        });

        let (clock_tx, clock_rx) = channel::<Scheduled<M>>();
        let mut actor_txs = Vec::with_capacity(n);
        let mut actor_rxs: Vec<Receiver<ActorEvent<M>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = sync_channel::<ActorEvent<M>>(100_000);
            actor_txs.push(tx);
            actor_rxs.push(rx);
        }

        // Clock thread: the event queue over wall-clock time.
        let clock_handle = {
            let shared = shared.clone();
            let actor_txs = actor_txs.clone();
            std::thread::spawn(move || {
                clock_loop(clock_rx, actor_txs, shared);
            })
        };

        let mut seed_rng = SimRng::new(seed);
        let mut actor_handles = Vec::with_capacity(n);
        for (id, (mut actor, rx)) in actors.into_iter().zip(actor_rxs).enumerate() {
            let shared = shared.clone();
            let clock_tx = clock_tx.clone();
            let rng = seed_rng.fork();
            // Named so a live cluster's thread tree reads cleanly next to
            // the executor's "ladon-exec-*" workers (see module doc).
            let builder = std::thread::Builder::new().name(format!("ladon-actor-{id}"));
            let handle = builder.spawn(move || {
                let mut ctx = LiveCtx {
                    self_id: id,
                    shared: shared.clone(),
                    clock_tx,
                    rng,
                };
                actor.on_start(&mut ctx);
                while let Ok(Some(kind)) = rx.recv() {
                    if shared.crashed.lock().unwrap()[id] {
                        // Crashed actors drain and ignore everything but
                        // shutdown (so the runtime can still join them).
                        continue;
                    }
                    match kind {
                        EventKind::Deliver { from, msg, bytes } => {
                            shared.stats.lock().unwrap().on_recv(id, bytes);
                            actor.on_message(from, msg, &mut ctx);
                        }
                        EventKind::Timer { id: t } => actor.on_timer(t, &mut ctx),
                    }
                }
                actor
            });
            actor_handles.push(handle.expect("spawn actor thread"));
        }

        Self {
            actor_handles,
            actor_txs,
            clock_tx,
            clock_handle: Some(clock_handle),
            shared,
        }
    }

    /// Elapsed wall-clock time since spawn, as [`TimeNs`].
    pub fn now(&self) -> TimeNs {
        self.shared.now()
    }

    /// Snapshot of network statistics.
    pub fn stats(&self) -> NetStats {
        self.shared.stats.lock().unwrap().clone()
    }

    /// Crashes an actor (it ignores all further events).
    pub fn crash(&self, actor: ActorId) {
        let mut crashed = self.shared.crashed.lock().unwrap();
        if actor < crashed.len() {
            crashed[actor] = true;
        }
    }

    /// Stops all threads and returns the final actor states.
    ///
    /// Actors are stopped first; once they exit, their `clock_tx` clones
    /// drop and the clock thread sees the disconnect and terminates
    /// (discarding any not-yet-due deliveries).
    pub fn shutdown(mut self) -> Vec<Box<dyn Actor<M> + Send>> {
        for tx in &self.actor_txs {
            let _ = tx.send(None);
        }
        let actors: Vec<Box<dyn Actor<M> + Send>> = self
            .actor_handles
            .drain(..)
            .map(|h| h.join().expect("actor thread panicked"))
            .collect();
        drop(self.clock_tx);
        if let Some(h) = self.clock_handle.take() {
            let _ = h.join();
        }
        actors
    }
}

fn clock_loop<M>(
    rx: Receiver<Scheduled<M>>,
    actor_txs: Vec<SyncSender<ActorEvent<M>>>,
    shared: Arc<Shared>,
) {
    let mut queue = Queue::new();
    loop {
        // Deliver everything due.
        let now = shared.now();
        while queue.next_time().is_some_and(|due| due <= now) {
            let (_, Pending { to, kind }) = queue.pop().expect("an event is due");
            let _ = actor_txs[to].send(Some(kind));
        }

        // Wait for the next arrival or the next due instant.
        let timeout = queue.next_time().map_or(Duration::from_millis(50), |due| {
            Duration::from_nanos(due.saturating_sub(shared.now()).0.max(1))
        });
        match rx.recv_timeout(timeout) {
            Ok((due, pending)) => queue.schedule(due, pending),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::IdealNetwork;
    use std::any::Any;

    #[derive(Clone)]
    struct Tick(u64);
    impl WireSize for Tick {
        fn wire_size(&self) -> u64 {
            8
        }
    }

    struct Counter {
        peer_count: usize,
        received: u64,
    }
    impl Actor<Tick> for Counter {
        fn on_start(&mut self, ctx: &mut dyn Context<Tick>) {
            if ctx.self_id() == 0 {
                ctx.set_timer(TimeNs::from_millis(1), 1);
            }
        }
        fn on_message(&mut self, _from: ActorId, msg: Tick, _ctx: &mut dyn Context<Tick>) {
            self.received += msg.0;
        }
        fn on_timer(&mut self, _id: u64, ctx: &mut dyn Context<Tick>) {
            for p in 1..self.peer_count {
                ctx.send(p, Tick(1));
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
    fn live_broadcast_reaches_all_peers() {
        let n = 4;
        let actors: Vec<Box<dyn Actor<Tick> + Send>> = (0..n)
            .map(|_| {
                Box::new(Counter {
                    peer_count: n,
                    received: 0,
                }) as Box<dyn Actor<Tick> + Send>
            })
            .collect();
        let rt = LiveRuntime::spawn(
            actors,
            Box::new(IdealNetwork {
                latency: TimeNs::from_millis(1),
            }),
            3,
        );
        std::thread::sleep(std::time::Duration::from_millis(200));
        let stats = rt.stats();
        let finals = rt.shutdown();
        assert_eq!(stats.msgs_sent[0], 3);
        for a in finals.iter().skip(1) {
            let c = a.as_any().downcast_ref::<Counter>().unwrap();
            assert_eq!(c.received, 1);
        }
    }

    #[test]
    fn crashed_live_actor_ignores_messages() {
        let n = 2;
        let actors: Vec<Box<dyn Actor<Tick> + Send>> = (0..n)
            .map(|_| {
                Box::new(Counter {
                    peer_count: n,
                    received: 0,
                }) as Box<dyn Actor<Tick> + Send>
            })
            .collect();
        let rt = LiveRuntime::spawn(
            actors,
            Box::new(IdealNetwork {
                latency: TimeNs::from_millis(5),
            }),
            3,
        );
        rt.crash(1);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let finals = rt.shutdown();
        let c = finals[1].as_any().downcast_ref::<Counter>().unwrap();
        assert_eq!(c.received, 0);
    }

    /// Arms three timers out of due order; logs them as they fire.
    struct Timers(Vec<u64>);
    impl Actor<Tick> for Timers {
        fn on_start(&mut self, ctx: &mut dyn Context<Tick>) {
            for ms in [30, 10, 20] {
                ctx.set_timer(TimeNs::from_millis(ms), ms);
            }
        }
        fn on_message(&mut self, _from: ActorId, _msg: Tick, _ctx: &mut dyn Context<Tick>) {}
        fn on_timer(&mut self, id: u64, _ctx: &mut dyn Context<Tick>) {
            self.0.push(id);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn live_timers_fire_in_due_order() {
        let actors: Vec<Box<dyn Actor<Tick> + Send>> = vec![Box::new(Timers(Vec::new()))];
        let latency = TimeNs::from_millis(1);
        let rt = LiveRuntime::spawn(actors, Box::new(IdealNetwork { latency }), 3);
        std::thread::sleep(std::time::Duration::from_millis(150));
        let finals = rt.shutdown();
        let t = finals[0].as_any().downcast_ref::<Timers>().unwrap();
        assert_eq!(t.0, [10, 20, 30]);
    }
}
