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

use ladon_types::{Batch, InstanceId, TimeNs, TxId};
use std::collections::VecDeque;

/// The rotating bucket assignment.
#[derive(Clone, Debug)]
pub struct RotatingBuckets {
    /// Number of buckets (the paper uses one per instance).
    num_buckets: usize,
    /// Number of instances.
    m: usize,
    /// Rotation offset (incremented each epoch).
    offset: usize,
}

impl RotatingBuckets {
    /// One bucket per instance, unrotated.
    pub fn new(m: usize) -> Self {
        Self {
            num_buckets: m,
            m,
            offset: 0,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// The bucket a transaction hashes into.
    pub fn bucket_of(&self, tx_hash: u64) -> u32 {
        (tx_hash % self.num_buckets as u64) as u32
    }

    /// The instance currently assigned to `bucket`.
    pub fn instance_of(&self, bucket: u32) -> InstanceId {
        InstanceId(((bucket as usize + self.offset) % self.m) as u32)
    }

    /// The buckets currently assigned to `instance`.
    pub fn buckets_of(&self, instance: InstanceId) -> Vec<u32> {
        (0..self.num_buckets as u32)
            .filter(|&b| self.instance_of(b) == instance)
            .collect()
    }

    /// Rotates the assignment (called on epoch advance).
    pub fn rotate(&mut self) {
        self.offset = (self.offset + 1) % self.m;
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
    /// Earliest arrival.
    pub earliest: TimeNs,
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

    /// Cuts a batch of up to `max_txs` transactions from the given buckets
    /// (Algorithm 2's `cutBatch`). Splits groups when needed. The batch's
    /// `bucket` field records the first contributing bucket.
    pub fn cut_batch(&mut self, buckets: &[u32], max_txs: u32) -> Batch {
        let mut batch = Batch::empty(buckets.first().copied().unwrap_or(0));
        let mut remaining = max_txs;
        for &b in buckets {
            while remaining > 0 {
                let Some(mut g) = self.buckets[b as usize].pop_front() else {
                    break;
                };
                let take = g.count.min(remaining);
                let mean = (g.arrival_sum_ns / g.count.max(1) as u128) as u64;
                if batch.count == 0 {
                    batch.first_tx = g.first_tx;
                }
                batch.count += take;
                batch.arrival_sum_ns += mean as u128 * take as u128;
                batch.earliest_arrival = batch.earliest_arrival.min(g.earliest);
                remaining -= take;
                self.pending -= take as u64;
                if take < g.count {
                    // Split: push back the remainder.
                    g.first_tx = TxId(g.first_tx.0.wrapping_add(take as u64));
                    g.count -= take;
                    g.arrival_sum_ns -= mean as u128 * take as u128;
                    self.buckets[b as usize].push_front(g);
                    break;
                }
            }
        }
        batch.payload_bytes = batch.count as u64 * self.tx_bytes;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_and_rotate() {
        let mut rb = RotatingBuckets::new(4);
        // Every bucket maps to exactly one instance; all instances covered.
        let mut seen: Vec<u32> = (0..4).map(|b| rb.instance_of(b).0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        let before = rb.instance_of(0);
        rb.rotate();
        let after = rb.instance_of(0);
        assert_ne!(before, after);
        assert_eq!(after, InstanceId((before.0 + 1) % 4));
    }

    #[test]
    fn every_bucket_eventually_visits_every_instance() {
        // Lemma 5's engine: after m rotations bucket 0 has been assigned
        // to every instance.
        let mut rb = RotatingBuckets::new(5);
        let mut visited = std::collections::BTreeSet::new();
        for _ in 0..5 {
            visited.insert(rb.instance_of(0).0);
            rb.rotate();
        }
        assert_eq!(visited.len(), 5);
    }

    #[test]
    fn bucket_of_is_stable_partition() {
        let rb = RotatingBuckets::new(8);
        for h in 0..1000u64 {
            let b = rb.bucket_of(h);
            assert!(b < 8);
            assert_eq!(b, rb.bucket_of(h));
        }
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
                earliest: TimeNs(50),
            },
        );
        mp.deposit(
            1,
            TxGroup {
                first_tx: TxId(10),
                count: 10,
                arrival_sum_ns: 3000,
                earliest: TimeNs(80),
            },
        );
        let b = mp.cut_batch(&[0, 1], 15);
        assert_eq!(b.count, 15);
        assert_eq!(b.payload_bytes, 15 * 500);
        assert_eq!(mp.pending(), 5);
        // The split remainder is still cuttable.
        let b2 = mp.cut_batch(&[0, 1], 100);
        assert_eq!(b2.count, 5);
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
                earliest: TimeNs(100),
            },
        );
        let head = mp.cut_batch(&[0], 3);
        let ids: Vec<_> = head.tx_ids().collect();
        assert_eq!(ids, vec![TxId(u64::MAX - 1), TxId(u64::MAX), TxId(0)]);
        let rest = mp.cut_batch(&[0], 100);
        assert_eq!((rest.first_tx, rest.count), (TxId(1), 1));
        assert_eq!(mp.pending(), 0);
    }

    #[test]
    fn cut_batch_empty_bucket_gives_empty_batch() {
        let mut mp = Mempool::new(1, 500);
        let b = mp.cut_batch(&[0], 100);
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
                earliest: TimeNs(100),
            },
        );
        let b1 = mp.cut_batch(&[0], 2);
        let b2 = mp.cut_batch(&[0], 2);
        assert_eq!(b1.mean_arrival(), Some(TimeNs(100)));
        assert_eq!(b2.mean_arrival(), Some(TimeNs(100)));
    }
}
