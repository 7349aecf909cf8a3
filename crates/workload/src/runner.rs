//! The experiment runner: an [`ExperimentConfig`] describes a run, the
//! [`Deployment`] assembles it, and [`run_experiment`] drives it through
//! warm-up and measurement and aggregates the paper's metrics.

use crate::deployment::Deployment;
use crate::metrics::{aggregate, Report, RunData};
use ladon_crypto::CryptoCounters;
use ladon_types::{NetEnv, ProtocolKind, SystemConfig, TimeNs};

/// Configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Replica count `n` (instances `m = n` per the paper).
    pub n: usize,
    /// Network environment.
    pub env: NetEnv,
    /// Measurement window length in seconds (after warmup).
    pub duration_s: f64,
    /// Warmup seconds excluded from measurement.
    pub warmup_s: f64,
    /// Number of honest stragglers (replica ids 1, 2, …).
    pub stragglers: usize,
    /// Straggler slowdown factor `k` (proposal rate = normal / k).
    pub straggler_k: f64,
    /// Make stragglers Byzantine rank-minimizers (§6.3.1).
    pub byzantine_stragglers: bool,
    /// Ablation: run all honest leaders without the proposal-time rank
    /// refresh (Algorithm 2 taken literally).
    pub stale_rank_reports: bool,
    /// Crash `(replica, at_seconds)` (Fig. 8).
    pub crash: Option<(usize, f64)>,
    /// Offered load as a fraction of nominal capacity
    /// (`total_block_rate × batch_size`).
    pub load_factor: f64,
    /// Sample the confirmed-tx timeline at this interval (seconds).
    pub sample_interval_s: Option<f64>,
    /// Deterministic seed.
    pub seed: u64,
    /// Override the epoch length `l(e)` (paper default 64).
    pub epoch_length: Option<u64>,
    /// Override the view-change timeout in seconds (paper Fig. 8: 10 s).
    pub view_timeout_s: Option<f64>,
    /// Override the batch size (paper default 4096).
    pub batch_size: Option<u32>,
    /// Explicit straggler replica ids; when non-empty they replace the
    /// `1..=stragglers` convention (see [`Self::with_straggler_ids`]).
    pub straggler_ids: Vec<usize>,
    /// Partition windows `(replica, from_s, until_s)`: the replica is
    /// disconnected from everyone inside the window.
    pub partitions: Vec<(usize, f64, f64)>,
    /// Probability each message is silently dropped (robustness
    /// scenarios; the paper assumes reliable links).
    pub loss_probability: f64,
}

impl ExperimentConfig {
    /// Paper-default configuration for a protocol at scale `n`.
    pub fn new(protocol: ProtocolKind, n: usize, env: NetEnv) -> Self {
        Self {
            protocol,
            n,
            env,
            duration_s: 10.0,
            warmup_s: 5.0,
            stragglers: 0,
            straggler_k: 10.0,
            byzantine_stragglers: false,
            stale_rank_reports: false,
            crash: None,
            load_factor: 1.0,
            sample_interval_s: None,
            seed: 42,
            epoch_length: None,
            view_timeout_s: None,
            batch_size: None,
            straggler_ids: Vec::new(),
            partitions: Vec::new(),
            loss_probability: 0.0,
        }
    }

    /// A scripted scenario rather than a measured experiment: LAN, seed
    /// 7, no warm-up, clients submitting until `submit_until_s`. The
    /// caller builds a [`Deployment`] from it and drives the clock itself
    /// ([`Deployment::run_secs`]), usually past the submission deadline
    /// so the tail drains.
    pub fn scenario(protocol: ProtocolKind, n: usize, submit_until_s: f64) -> Self {
        Self::new(protocol, n, NetEnv::Lan)
            .warmup_secs(0.0)
            .duration_secs(submit_until_s)
            .with_seed(7)
    }

    /// Sets the measurement window.
    pub fn duration_secs(mut self, s: f64) -> Self {
        self.duration_s = s;
        self
    }

    /// Sets the warmup.
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.warmup_s = s;
        self
    }

    /// Adds `count` honest stragglers with factor `k`.
    pub fn with_stragglers(mut self, count: usize, k: f64) -> Self {
        self.stragglers = count;
        self.straggler_k = k;
        self
    }

    /// Slows exactly `replicas` by factor `k` and leaves every detector at
    /// its default — for scenarios about what the protocol does *with* a
    /// straggler in view of its timeouts. [`Self::with_stragglers`] is
    /// the paper's §6.1 setting, which lifts the timeouts out of the way.
    pub fn with_straggler_ids(mut self, replicas: &[usize], k: f64) -> Self {
        self.straggler_ids = replicas.to_vec();
        self.straggler_k = k;
        self
    }

    /// Makes the stragglers Byzantine rank minimizers.
    pub fn byzantine(mut self) -> Self {
        self.byzantine_stragglers = true;
        self
    }

    /// Ablation: disable the proposal-time rank refresh on all leaders.
    pub fn stale_ranks(mut self) -> Self {
        self.stale_rank_reports = true;
        self
    }

    /// Crashes `replica` at `at_s` seconds.
    pub fn with_crash(mut self, replica: usize, at_s: f64) -> Self {
        self.crash = Some((replica, at_s));
        self
    }

    /// Sets the offered-load factor.
    pub fn load(mut self, factor: f64) -> Self {
        self.load_factor = factor;
        self
    }

    /// Enables timeline sampling.
    pub fn sampled(mut self, every_s: f64) -> Self {
        self.sample_interval_s = Some(every_s);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the epoch length.
    pub fn with_epoch_length(mut self, l: u64) -> Self {
        self.epoch_length = Some(l);
        self
    }

    /// Overrides the view-change timeout.
    pub fn with_view_timeout(mut self, s: f64) -> Self {
        self.view_timeout_s = Some(s);
        self
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, b: u32) -> Self {
        self.batch_size = Some(b);
        self
    }

    /// Disconnects `replica` from everyone between `from_s` and `until_s`.
    pub fn with_partition(mut self, replica: usize, from_s: f64, until_s: f64) -> Self {
        self.partitions.push((replica, from_s, until_s));
        self
    }

    /// Drops each message independently with probability `p`.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p;
        self
    }

    /// Applies scale-preset measurement windows, stretching both warmup
    /// and duration when the run has stragglers (call *after*
    /// [`Self::with_stragglers`]). See [`crate::Scale::straggler_duration_s`].
    pub fn scaled_windows(mut self, sc: crate::Scale) -> Self {
        if self.stragglers > 0 {
            let iv = self.straggler_interval_s();
            self.duration_s = sc.straggler_duration_s(iv);
            self.warmup_s = sc.straggler_warmup_s(iv);
        } else {
            self.duration_s = sc.duration_s();
            self.warmup_s = sc.warmup_s();
        }
        self
    }

    /// The interval between a straggling leader's proposals:
    /// `k × m / total_block_rate` (§6.1 fixes straggler proposal rates to
    /// `1/k` of normal leaders').
    pub fn straggler_interval_s(&self) -> f64 {
        let sys = SystemConfig::paper_default(self.n, self.env);
        self.straggler_k * sys.proposal_interval().as_secs_f64()
    }

    /// The system configuration this experiment implies.
    pub fn system(&self) -> SystemConfig {
        let mut sys = SystemConfig::paper_default(self.n, self.env);
        if let Some(l) = self.epoch_length {
            sys.epoch_length = l;
        }
        if let Some(t) = self.view_timeout_s {
            sys.view_change_timeout = TimeNs::from_secs_f64(t);
        } else if self.stragglers > 0 {
            // §6.1: stragglers delay proposals "without triggering
            // timeouts". The view-change timeout is the only detector
            // every protocol has (a baseline's ⊥ and Mir's epoch change
            // both come from a view change), so raise it comfortably
            // above the straggler interval, or every slow round
            // degenerates into view changes and the run stops
            // representing the paper's setting (whose ISS and RCC both
            // lose ≈ 90 % to a straggler).
            let floor = 2.5 * self.straggler_interval_s();
            if sys.view_change_timeout.as_secs_f64() < floor {
                sys.view_change_timeout = TimeNs::from_secs_f64(floor);
            }
        }
        if let Some(b) = self.batch_size {
            sys.batch_size = b;
        }
        sys
    }

    /// Whether replica `r` straggles: one of the explicit ids if any were
    /// given, otherwise ids `1..=stragglers` (replica 0 stays honest so
    /// it can serve as DQBFT's ordering leader and the reference log).
    pub(crate) fn is_straggler(&self, r: usize) -> bool {
        if self.straggler_ids.is_empty() {
            (1..=self.stragglers.min(self.n - 1)).contains(&r)
        } else {
            self.straggler_ids.contains(&r)
        }
    }

    /// `(warmup end, measurement end)`; clients submit until the latter.
    pub(crate) fn window(&self) -> (TimeNs, TimeNs) {
        let warmup = TimeNs::from_secs_f64(self.warmup_s);
        (warmup, warmup + TimeNs::from_secs_f64(self.duration_s))
    }
}

/// Runs one experiment and aggregates its report.
pub fn run_experiment(cfg: &ExperimentConfig) -> Report {
    let mut d = Deployment::build(cfg);
    let n = d.sys.n;
    let f = d.sys.f();
    let (warmup, end) = cfg.window();

    // Warmup, snapshot, measure, snapshot.
    CryptoCounters::reset();
    d.engine.run_until(warmup);
    let stats0 = d.engine.stats().clone();
    let crypto0 = CryptoCounters::snapshot();
    d.engine.run_until(end + TimeNs::from_millis(1));
    let stats1 = d.engine.stats().clone().since(&stats0);
    let crypto1 = CryptoCounters::snapshot().since(&crypto0);

    // Reference replica: first honest, non-straggling, non-crashed.
    let crashed = cfg.crash.map(|(r, _)| r);
    let reference = (0..n)
        .find(|&r| Some(r) != crashed && !cfg.is_straggler(r))
        .unwrap_or(0);

    let nodes: Vec<_> = (0..n).map(|r| d.node(r).metrics.clone()).collect();
    let waiting = d.node(reference).waiting_count();

    let mut report = aggregate(&RunData {
        nodes,
        f,
        window_start: warmup,
        window_end: end,
        reference,
        waiting_blocks: waiting,
    });

    let window = end.saturating_sub(warmup);
    report.bandwidth_mbs = stats1.mean_bandwidth_mbs(n, window);
    // CPU proxy: per-replica crypto cost over the window, as % of a core.
    report.cpu_pct = crypto1.cpu_seconds_proxy() / n as f64 / window.as_secs_f64() * 100.0;
    // Fold the run-level network and crypto counters into the unified
    // snapshot next to the per-replica merge from `aggregate`.
    let mut run_registry = ladon_obs::MetricsRegistry::new();
    ladon_obs::SnapshotInto::snapshot_into(&stats1, &mut run_registry);
    ladon_obs::SnapshotInto::snapshot_into(&crypto1, &mut run_registry);
    report.metrics.merge(&run_registry.snapshot());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test: a small Ladon-PBFT cluster confirms client
    /// transactions under the full stack.
    #[test]
    fn ladon_pbft_smoke() {
        let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
            .duration_secs(3.0)
            .warmup_secs(2.0)
            .with_seed(7);
        let report = run_experiment(&cfg);
        assert!(
            report.committed_txs > 0,
            "no transactions confirmed: {report:?}"
        );
        assert!(report.mean_latency_s > 0.0);
        assert!(report.causal_strength > 0.99);
        // Observability surface: crypto, per-actor network accounting and
        // lifecycle stage latencies all reach the metrics snapshot.
        let m = &report.metrics;
        assert!(
            m.counter("crypto.verifies") + m.counter("crypto.agg_verifies") > 0,
            "a confirming cluster must verify signatures: {report:?}"
        );
        let dropped = m.registry().series("net.dropped_per_actor");
        assert_eq!(
            dropped.map_or(0, |d| d.iter().sum::<u64>()),
            m.counter("net.dropped")
        );
        let confirmed = m
            .registry()
            .histogram("trace.proposed_to_confirmed_ns")
            .expect("lifecycle trace must cover proposed -> confirmed");
        assert!(confirmed.count() > 0 && confirmed.mean() > 0.0);
        assert!(
            report.metrics.counter("pipeline.flush_barriers") > 0,
            "group-commit flushes must be counted: {report:?}"
        );
    }

    #[test]
    fn iss_pbft_smoke() {
        let cfg = ExperimentConfig::new(ProtocolKind::IssPbft, 4, NetEnv::Lan)
            .duration_secs(3.0)
            .warmup_secs(2.0)
            .with_seed(7);
        let report = run_experiment(&cfg);
        assert!(report.committed_txs > 0, "{report:?}");
    }

    /// Pins three seeded runs to what the commit before `Deployment`
    /// existed produced: assembling the cluster in one place moved no
    /// event. The digest covers every deterministic counter, so a change
    /// that adds, renames or moves one re-pins it (print
    /// `report.metrics.deterministic_json()` before and after, and check
    /// the diff is only the counter you meant). Re-pinned eight times
    /// since: the one-chain WAL moved `wal.appends`, `wal.fsyncs`,
    /// `wal.bytes_written` and `wal.segment_opens`; the mask-free record
    /// (8 B shorter) moved `wal.bytes_written` again and the replay
    /// gauge counting touched lanes went with the lane ledger; dropping
    /// votes for decided phases unverified and verifying a certificate
    /// once per replica moved `crypto.{hashes, verifies, agg_verifies,
    /// qc_verify_hits}`; the `node.` key counting pruned sync chunks
    /// (always 0) went with the chunk stash it counted; accepting a
    /// HotStuff vote set under its verified `justify` and dropping moot
    /// votes unverified moved `LadonHotStuff`'s `crypto.{hashes,
    /// verifies}` (4 710 → 3 430, 961 → 321), that run alone; the wave
    /// plan's `exec.{waves, scheduled_ops, cross_lane_edges,
    /// max_wave_ops}` keys went with the plan; the trace's two
    /// same-instant stages went (`trace.{confirmed_to_staged,
    /// flushed_to_applied}_ns` held only zeros, `staged_to_flushed` and
    /// `applied_to_checkpointed` kept their contents as
    /// `confirmed_to_flushed` and `flushed_to_checkpointed`,
    /// `trace.events_recorded` fell) and `node.refused_client_groups`
    /// (0) arrived; a drain applying the batch its own barrier
    /// acknowledged applies each replica's last batch inside the window
    /// (`exec.batches` +1 per replica, `node.executed_txs` up by that
    /// batch), `pipeline.pipelined_submits` and
    /// `pipeline.inflight_records_peak` went with the one-late apply, and
    /// the `flushed` stage, stamped in the confirming handler now, went
    /// with it (`trace.confirmed_to_flushed_ns` and
    /// `flushed_to_checkpointed_ns` became one
    /// `confirmed_to_checkpointed_ns`) — nothing else any time.
    ///
    /// Two more rows pin a Ladon-PBFT run over 16-rank epochs, so its
    /// window crosses checkpoints and compactions (the 64-rank rows
    /// never checkpoint), with and without a 10× straggler.
    #[test]
    fn seeded_runs_match_the_pre_deployment_pins() {
        let short = |protocol| {
            ExperimentConfig::new(protocol, 4, NetEnv::Lan)
                .duration_secs(2.0)
                .warmup_secs(1.0)
                .with_seed(11)
        };
        let checkpointing = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
            .duration_secs(3.0)
            .warmup_secs(2.0)
            .with_epoch_length(16)
            .with_seed(7);
        let pins = [
            (
                short(ProtocolKind::LadonPbft),
                241_661,
                86,
                "2dca9cb3aa38b589d5bd33a3d7cce83ba249c033b5b6e13a94610cea1e2fc3f9",
            ),
            // HotStuff backups commit on the leader's announced QC, so
            // blocks reach f+1 confirmation 30–50 ms sooner and two more
            // confirm before the window opens.
            (
                short(ProtocolKind::LadonHotStuff),
                248_998,
                83,
                "182ede79ff2ec5e54744ed107a8557963604b0287203e6ce4bcd123cef2bea38",
            ),
            (
                short(ProtocolKind::DqbftPbft),
                241_632,
                84,
                "4f4143cef65d391ccd7d399096a4fb1e58442ca8077a59da16824b8bf39d33da",
            ),
            (
                checkpointing.clone(),
                327_657,
                155,
                "6e7591a19239fec687560040c9091df6767fbcec4bd62f5e79928d164d34907d",
            ),
            (
                checkpointing.with_stragglers(1, 10.0),
                136_791,
                80,
                "22e440725e8cd7d65394d9b84d715fa7c2a3b9048f7b71d2dbfc407284759210",
            ),
        ];
        let reports: Vec<_> = pins
            .into_iter()
            .map(|(cfg, committed_txs, confirmed_blocks, sha)| {
                let report = run_experiment(&cfg);
                let run = format!("{:?}, {} stragglers", cfg.protocol, cfg.stragglers);
                assert_eq!(report.committed_txs, committed_txs, "{run}");
                assert_eq!(report.confirmed_blocks, confirmed_blocks, "{run}");
                let digest = ladon_crypto::sha256(report.metrics.deterministic_json().as_bytes());
                let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
                assert_eq!(hex, sha, "{run}");
                report
            })
            .collect();
        // The straggler-free checkpointing run's WAL, summed over
        // replicas: no barrier failed, and an fsync is a barrier's
        // (rolls, rotations and manifest publishes are the amortized
        // rest).
        let metrics = &reports[3].metrics;
        assert_eq!(metrics.counter("pipeline.wal_flush_failures"), 0);
        let (fsyncs, barriers) = (
            metrics.counter("wal.fsyncs"),
            metrics.counter("pipeline.flush_barriers"),
        );
        assert!(
            2 * fsyncs <= 3 * barriers,
            "{fsyncs} fsyncs, {barriers} barriers"
        );
    }

    /// Every stage transition the lifecycle trace records takes time on
    /// the checkpointing pin's run: a histogram whose samples are all 0
    /// (two stages stamped in the same call) carries no information and
    /// has no place in the trace.
    #[test]
    fn every_traced_transition_carries_information() {
        let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
            .duration_secs(3.0)
            .warmup_secs(2.0)
            .with_epoch_length(16)
            .with_seed(7);
        let report = run_experiment(&cfg);
        for pair in ladon_obs::Stage::ALL.windows(2) {
            let name = format!("trace.{}_to_{}_ns", pair[0].name(), pair[1].name());
            let h = report
                .metrics
                .registry()
                .histogram(&name)
                .unwrap_or_else(|| panic!("{name} was never observed"));
            assert!(h.count() > 0 && h.mean() > 0.0, "{name}: {h:?}");
        }
    }

    /// A zero view timeout re-arms at its own instant and the run never
    /// ends; validation refuses it before a cluster is built.
    #[test]
    fn zero_view_timeout_fails_validation() {
        let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan);
        assert!(cfg
            .clone()
            .with_view_timeout(0.0)
            .system()
            .validate()
            .is_err());
        cfg.system().validate().unwrap();
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
            .duration_secs(2.0)
            .warmup_secs(1.0)
            .with_seed(11);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.committed_txs, b.committed_txs);
        assert_eq!(a.confirmed_blocks, b.confirmed_blocks);
        assert!((a.mean_latency_s - b.mean_latency_s).abs() < 1e-12);
    }
}
