//! Rotating transaction buckets and the synthetic mempool (§5.1).
//!
//! Client transactions hash into disjoint buckets; buckets are assigned
//! round-robin to instances and the assignment rotates every epoch, which
//! prevents duplicate inclusion across leaders and defeats censoring (a
//! bucket starved by one leader reaches an honest leader after rotation —
//! the liveness argument of Lemma 5).
//!
//! The mempool is synthetic: the workload generator deposits *groups* of
//! transactions (count + arrival-time aggregates) rather than individual
//! 500-byte payloads, matching the batch model in `ladon-types`.

use ladon_types::{Batch, InstanceId, TxId};
use std::collections::VecDeque;

/// The rotating bucket assignment: one bucket per instance, each served
/// by the instance `(bucket + epoch) mod m` — a function of the epoch
/// alone, so every replica that agrees on the epoch agrees on it.
#[derive(Clone, Copy, Debug)]
pub struct RotatingBuckets {
    /// Number of instances (and of buckets).
    m: u64,
}

impl RotatingBuckets {
    /// One bucket per instance.
    pub fn new(m: usize) -> Self {
        Self { m: m as u64 }
    }

    /// The instance serving `bucket` in `epoch`.
    pub fn instance_of(&self, bucket: u32, epoch: u64) -> InstanceId {
        InstanceId(((u64::from(bucket) + epoch % self.m) % self.m) as u32)
    }

    /// The bucket `instance` serves in `epoch` (the inverse of
    /// [`Self::instance_of`]).
    pub fn bucket_served_by(&self, instance: InstanceId, epoch: u64) -> u32 {
        ((u64::from(instance.0) + self.m - epoch % self.m) % self.m) as u32
    }
}

/// A group of transactions deposited together (same bucket, same arrival
/// burst).
#[derive(Clone, Debug)]
pub struct TxGroup {
    /// First transaction id.
    pub first_tx: TxId,
    /// Number of transactions.
    pub count: u32,
    /// Sum of arrival times (ns).
    pub arrival_sum_ns: u128,
}

/// Per-bucket FIFO queues of pending transaction groups.
#[derive(Clone, Debug)]
pub struct Mempool {
    buckets: Vec<VecDeque<TxGroup>>,
    /// Total pending transactions.
    pending: u64,
    tx_bytes: u64,
}

impl Mempool {
    /// A mempool with `num_buckets` queues of `tx_bytes`-sized txs.
    pub fn new(num_buckets: usize, tx_bytes: u64) -> Self {
        Self {
            buckets: (0..num_buckets).map(|_| VecDeque::new()).collect(),
            pending: 0,
            tx_bytes,
        }
    }

    /// Total pending transactions.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Deposits a group into its bucket.
    pub fn deposit(&mut self, bucket: u32, group: TxGroup) {
        self.pending += group.count as u64;
        self.buckets[bucket as usize].push_back(group);
    }

    /// Cuts a batch of up to `max_txs` transactions from `bucket`
    /// (Algorithm 2's `cutBatch`), splitting a group when needed.
    pub fn cut_batch(&mut self, bucket: u32, max_txs: u32) -> Batch {
        let mut batch = Batch::empty(bucket);
        let mut remaining = max_txs;
        let queue = &mut self.buckets[bucket as usize];
        while remaining > 0 {
            let Some(mut g) = queue.pop_front() else {
                break;
            };
            let take = g.count.min(remaining);
            let mean = (g.arrival_sum_ns / g.count.max(1) as u128) as u64;
            if batch.count == 0 {
                batch.first_tx = g.first_tx;
            }
            batch.count += take;
            batch.arrival_sum_ns += mean as u128 * take as u128;
            remaining -= take;
            self.pending -= take as u64;
            if take < g.count {
                // Split: push back the remainder.
                g.first_tx = TxId(g.first_tx.0.wrapping_add(take as u64));
                g.count -= take;
                g.arrival_sum_ns -= mean as u128 * take as u128;
                queue.push_front(g);
                break;
            }
        }
        batch.payload_bytes = batch.count as u64 * self.tx_bytes;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladon_types::TimeNs;

    #[test]
    fn buckets_partition_and_rotate() {
        let rb = RotatingBuckets::new(4);
        // Every bucket maps to exactly one instance; all instances covered.
        let mut seen: Vec<u32> = (0..4).map(|b| rb.instance_of(b, 0).0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        for epoch in [0, 1, 5, u64::MAX] {
            let here = rb.instance_of(0, epoch);
            assert_eq!(rb.bucket_served_by(here, epoch), 0);
            if let Some(next) = epoch.checked_add(1) {
                assert_eq!(rb.instance_of(0, next), InstanceId((here.0 + 1) % 4));
            }
        }
    }

    #[test]
    fn every_bucket_eventually_visits_every_instance() {
        // Lemma 5's engine: over m epochs bucket 0 is assigned to every
        // instance.
        let rb = RotatingBuckets::new(5);
        let visited: std::collections::BTreeSet<u32> =
            (0..5).map(|epoch| rb.instance_of(0, epoch).0).collect();
        assert_eq!(visited.len(), 5);
    }

    #[test]
    fn cut_batch_takes_up_to_max() {
        let mut mp = Mempool::new(2, 500);
        mp.deposit(
            0,
            TxGroup {
                first_tx: TxId(0),
                count: 10,
                arrival_sum_ns: 1000,
            },
        );
        mp.deposit(
            1,
            TxGroup {
                first_tx: TxId(10),
                count: 10,
                arrival_sum_ns: 3000,
            },
        );
        let b = mp.cut_batch(0, 7);
        assert_eq!((b.bucket, b.count), (0, 7));
        assert_eq!(b.payload_bytes, 7 * 500);
        assert_eq!(mp.pending(), 13);
        // The split remainder is still cuttable; other buckets untouched.
        let b2 = mp.cut_batch(0, 100);
        assert_eq!(b2.count, 3);
        assert_eq!(mp.pending(), 10);
        assert_eq!(mp.cut_batch(1, 100).first_tx, TxId(10));
        assert_eq!(mp.pending(), 0);
    }

    #[test]
    fn a_group_split_at_the_top_of_the_id_space_keeps_its_remainder() {
        let mut mp = Mempool::new(1, 500);
        mp.deposit(
            0,
            TxGroup {
                first_tx: TxId(u64::MAX - 1),
                count: 4,
                arrival_sum_ns: 400,
            },
        );
        let head = mp.cut_batch(0, 3);
        let ids: Vec<_> = head.tx_ids().collect();
        assert_eq!(ids, vec![TxId(u64::MAX - 1), TxId(u64::MAX), TxId(0)]);
        let rest = mp.cut_batch(0, 100);
        assert_eq!((rest.first_tx, rest.count), (TxId(1), 1));
        assert_eq!(mp.pending(), 0);
    }

    #[test]
    fn cut_batch_empty_bucket_gives_empty_batch() {
        let mut mp = Mempool::new(1, 500);
        let b = mp.cut_batch(0, 100);
        assert!(b.is_empty());
        assert_eq!(b.payload_bytes, 0);
    }

    #[test]
    fn arrival_means_preserved_through_split() {
        let mut mp = Mempool::new(1, 500);
        mp.deposit(
            0,
            TxGroup {
                first_tx: TxId(0),
                count: 4,
                arrival_sum_ns: 400, // mean 100
            },
        );
        let b1 = mp.cut_batch(0, 2);
        let b2 = mp.cut_batch(0, 2);
        assert_eq!(b1.mean_arrival(), Some(TimeNs(100)));
        assert_eq!(b2.mean_arrival(), Some(TimeNs(100)));
    }
}
