//! The open-loop client fleet.
//!
//! One aggregate actor models all clients: every generation tick it emits
//! the transactions that arrived during the tick, grouped per bucket, and
//! sends each group to a uniformly chosen *relay* replica (paper step ①:
//! "a client creates a transaction and sends it to some relay replicas";
//! the relay forwards to the bucket's current leader). Transaction ids
//! are globally unique and increase in submission order.

use ladon_core::{ClientTxs, NodeMsg};
use ladon_sim::{Actor, ActorId, Context};
use ladon_types::{TimeNs, TxId};

/// Timer id used for generation ticks.
const T_GEN: u64 = 1;

/// The client fleet actor.
pub struct ClientFleet {
    /// Number of replicas (actor ids `0..n`).
    n: usize,
    /// Number of buckets (one per instance).
    num_buckets: usize,
    /// Offered load, transactions per second.
    tx_rate: f64,
    /// Transaction payload size.
    tx_bytes: u64,
    /// Generation tick.
    tick: TimeNs,
    /// Stop submitting at this time (lets the tail drain).
    stop_at: TimeNs,
    next_tx: u64,
    /// Fractional carry between ticks.
    carry: f64,
    /// Total transactions submitted.
    pub submitted: u64,
}

impl ClientFleet {
    /// Builds a fleet offering `tx_rate` transactions/s across
    /// `num_buckets` buckets until `stop_at`.
    pub fn new(n: usize, num_buckets: usize, tx_rate: f64, tx_bytes: u64, stop_at: TimeNs) -> Self {
        Self {
            n,
            num_buckets,
            tx_rate,
            tx_bytes,
            tick: TimeNs::from_millis(100),
            stop_at,
            next_tx: 0,
            carry: 0.0,
            submitted: 0,
        }
    }
}

impl Actor<NodeMsg> for ClientFleet {
    fn on_start(&mut self, ctx: &mut dyn Context<NodeMsg>) {
        ctx.set_timer(self.tick, T_GEN);
    }

    fn on_message(&mut self, _from: ActorId, _msg: NodeMsg, _ctx: &mut dyn Context<NodeMsg>) {
        // Replies are aggregated post-run from replica metrics; the fleet
        // receives nothing.
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut dyn Context<NodeMsg>) {
        let now = ctx.now();
        if now >= self.stop_at {
            return;
        }
        ctx.set_timer(self.tick, T_GEN);

        // Transactions that arrived this tick.
        let exact = self.tx_rate * self.tick.as_secs_f64() + self.carry;
        let count = exact.floor() as u64;
        self.carry = exact - count as f64;
        if count == 0 {
            return;
        }

        // Split evenly across buckets; arrivals are uniform over the tick,
        // so the mean arrival time is `now - tick/2`.
        let mean_arrival = now.saturating_sub(TimeNs(self.tick.0 / 2));
        let per_bucket = (count / self.num_buckets as u64).max(1);
        let mut remaining = count;
        for b in 0..self.num_buckets as u32 {
            if remaining == 0 {
                break;
            }
            let take = per_bucket.min(remaining) as u32;
            remaining -= take as u64;
            let group = ClientTxs {
                bucket: b,
                first_tx: TxId(self.next_tx),
                count: take,
                payload_bytes: take as u64 * self.tx_bytes,
                arrival_sum_ns: mean_arrival.0 as u128 * take as u128,
                forwarded: false,
            };
            self.next_tx += take as u64;
            self.submitted += take as u64;
            // Uniform relay choice.
            let relay = ctx.rng().next_below(self.n as u64) as usize;
            ctx.send(relay, NodeMsg::ClientTxs(group));
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_sim::{Engine, IdealNetwork};

    /// A sink actor that counts received client transactions.
    struct Sink {
        txs: u64,
    }
    impl Actor<NodeMsg> for Sink {
        fn on_message(&mut self, _f: ActorId, msg: NodeMsg, _c: &mut dyn Context<NodeMsg>) {
            if let NodeMsg::ClientTxs(g) = msg {
                self.txs += g.count as u64;
            }
        }
        fn on_timer(&mut self, _t: u64, _c: &mut dyn Context<NodeMsg>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn fleet_delivers_configured_rate() {
        let mut eng = Engine::new(
            IdealNetwork {
                latency: TimeNs::from_millis(1),
            },
            9,
        );
        let n = 4;
        for _ in 0..n {
            eng.add_actor(Box::new(Sink { txs: 0 }));
        }
        eng.add_actor(Box::new(ClientFleet::new(
            n,
            4,
            10_000.0,
            500,
            TimeNs::from_secs(2),
        )));
        eng.run_until(TimeNs::from_secs(3));
        let total: u64 = (0..n).map(|i| eng.actor_as::<Sink>(i).unwrap().txs).sum();
        // ~10k tps for 2 s, minus the first partial tick.
        assert!(
            (18_000..=20_100).contains(&total),
            "unexpected total {total}"
        );
        let fleet = eng.actor_as::<ClientFleet>(n).unwrap();
        assert_eq!(fleet.submitted, total);
    }

    #[test]
    fn fleet_stops_at_deadline() {
        let mut eng = Engine::new(
            IdealNetwork {
                latency: TimeNs::from_millis(1),
            },
            9,
        );
        eng.add_actor(Box::new(Sink { txs: 0 }));
        eng.add_actor(Box::new(ClientFleet::new(
            1,
            1,
            1000.0,
            500,
            TimeNs::from_millis(500),
        )));
        eng.run_until(TimeNs::from_secs(5));
        let txs = eng.actor_as::<Sink>(0).unwrap().txs;
        assert!(txs <= 500, "submission must stop at the deadline: {txs}");
    }
}
