//! `repro`: regenerates the paper's figures and tables in-process, one
//! [`ladon_bench::FIGURES`] entry after another, for a complete
//! paper-vs-measured record in one run.
//!
//! ```sh
//! cargo run --release -p ladon-bench --bin repro            # every figure, quick scale
//! cargo run --release -p ladon-bench --bin repro -- --figure fig5_scalability
//! LADON_SCALE=full cargo run --release -p ladon-bench --bin repro
//!
//! # CI mode: in-process seeded experiments, machine-readable output,
//! # determinism self-gate (the suite runs twice and the deterministic
//! # subsets must match byte-for-byte):
//! cargo run --release -p ladon-bench --bin repro -- --smoke --out BENCH_repro.json
//! ```
//!
//! `--figure <name>` may repeat; an unknown name fails and lists the
//! valid ones. `--out` (default `BENCH_repro.json`) applies to
//! `--smoke` only.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ladon_bench::{recovery_figure, snapshot_delta_figure, FIGURES};
use ladon_core::sync::SYNC_QUARANTINE_THRESHOLD;
use ladon_core::{MultiBftNode, NodeMode, NodeMsg};
use ladon_obs::{fields, BenchReport, Json};
use ladon_sim::RecordingCtx;
use ladon_state::{ExecutionPipeline, FaultBackend, FaultPlan, FileBackend, WalOptions};
use ladon_types::{NetEnv, ProtocolKind, ReplicaId};
use ladon_workload::{run_experiment, scale, Deployment, ExperimentConfig, Report};

/// Seed of every smoke-mode experiment. The determinism self-gate runs
/// the whole suite twice with this seed and requires the `wall_`-free
/// subsets to match byte-for-byte.
const SMOKE_SEED: u64 = 7;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_after = |i: usize| args.get(i + 1).map(String::as_str);
    if args.iter().any(|a| a == "--smoke") {
        let out = args.iter().position(|a| a == "--out").and_then(value_after);
        smoke(Path::new(out.unwrap_or("BENCH_repro.json")));
        return;
    }
    let mut selected = Vec::new();
    for (i, _) in args.iter().enumerate().filter(|(_, a)| *a == "--figure") {
        let name = value_after(i).unwrap_or_default();
        let Some(fig) = FIGURES.iter().find(|f| f.name == name) else {
            let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            eprintln!("unknown figure `{name}`; valid: {}", valid.join(", "));
            std::process::exit(2);
        };
        selected.push(fig);
    }
    if selected.is_empty() {
        selected = FIGURES.iter().collect();
    }
    let sc = scale();
    selected.iter().for_each(|fig| fig.print(sc));
}

/// CI smoke mode: small seeded in-process experiments covering every
/// figure the schema requires, written as one `BENCH_*.json` document.
///
/// The determinism self-gate runs the suite twice; anything outside the
/// `wall_*` namespace must come out byte-identical, or the run fails.
fn smoke(out: &Path) {
    println!(
        "repro --smoke: seeded in-process suite -> {}",
        out.display()
    );
    let started = Instant::now();

    let first = run_smoke_suite("a");
    let second = run_smoke_suite("b");
    let (da, db) = (first.deterministic_json(), second.deterministic_json());
    if da != db {
        eprintln!("determinism self-gate FAILED: two seed-{SMOKE_SEED} runs diverged");
        eprintln!("run 1: {da}");
        eprintln!("run 2: {db}");
        std::process::exit(1);
    }
    println!(
        "determinism self-gate: deterministic subset byte-identical across two runs \
         ({} bytes)",
        da.len()
    );

    let mut report = first;
    report.set_meta(
        "wall_total_ms",
        Json::F64(started.elapsed().as_secs_f64() * 1e3),
    );
    if let Err(e) = report.save(out) {
        eprintln!("cannot save {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} figures)", out.display(), report.figures.len());
}

fn run_smoke_suite(pass: &str) -> BenchReport {
    let mut report = BenchReport::new();
    report.set_meta("mode", Json::Str("smoke".into()));
    report.set_meta("seed", Json::U64(SMOKE_SEED));
    report.set_meta("protocol", Json::Str("ladon-pbft".into()));
    report.set_meta("generated_by", Json::Str("repro --smoke".into()));

    // One short LAN deployment is the backbone of most figures: the
    // straggler run reuses its config with one straggler added.
    // The short epoch makes the window cross checkpoint boundaries, so
    // the full lifecycle (through `applied -> checkpointed`) is traced.
    let base_cfg = ExperimentConfig::new(ProtocolKind::LadonPbft, 4, NetEnv::Lan)
        .duration_secs(3.0)
        .warmup_secs(2.0)
        .with_epoch_length(16)
        .with_seed(SMOKE_SEED);
    let base = run_experiment(&base_cfg);
    let straggler = run_experiment(&base_cfg.clone().with_stragglers(1, 10.0));

    report.add_figure(
        "fig5_scalability",
        fields(vec![
            ("n", Json::U64(4)),
            ("env", Json::Str("lan".into())),
            ("throughput_ktps", Json::F64(base.throughput_ktps)),
            ("mean_latency_s", Json::F64(base.mean_latency_s)),
            ("committed_txs", Json::U64(base.committed_txs)),
            ("confirmed_blocks", Json::U64(base.confirmed_blocks)),
            ("causal_strength", Json::F64(base.causal_strength)),
        ]),
    );
    report.add_figure(
        "fig2_straggler_impact",
        fields(vec![
            ("throughput_ktps_0s", Json::F64(base.throughput_ktps)),
            ("throughput_ktps_1s", Json::F64(straggler.throughput_ktps)),
            (
                "throughput_ratio",
                Json::F64(if base.throughput_ktps > 0.0 {
                    straggler.throughput_ktps / base.throughput_ktps
                } else {
                    0.0
                }),
            ),
            ("latency_s_0s", Json::F64(base.mean_latency_s)),
            ("latency_s_1s", Json::F64(straggler.mean_latency_s)),
        ]),
    );
    let counter = |name: &str| base.metrics.counter(name);
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let wal_fsyncs = counter("wal.fsyncs");
    let flush_barriers = counter("pipeline.flush_barriers");
    report.add_figure(
        "fig_wal_group_commit",
        fields(vec![
            ("wal_fsyncs", Json::U64(wal_fsyncs)),
            ("wal_bytes_written", Json::U64(counter("wal.bytes_written"))),
            ("flush_barriers", Json::U64(flush_barriers)),
            (
                "fsyncs_per_block",
                Json::F64(ratio(wal_fsyncs, base.confirmed_blocks)),
            ),
            (
                "wall_wal_flush_ns",
                Json::U64(counter("pipeline.wall_wal_flush_ns")),
            ),
        ]),
    );
    report.add_figure(
        "fig_exec_dag",
        fields(vec![
            ("exec_waves", Json::U64(base.exec_waves)),
            (
                "exec_cross_lane_edges",
                Json::U64(base.exec_cross_lane_edges),
            ),
            ("mean_ops_per_wave", Json::F64(base.mean_ops_per_wave)),
            ("executed_txs", Json::U64(base.executed_txs)),
            ("wall_exec_ns", Json::U64(counter("pipeline.wall_exec_ns"))),
        ]),
    );
    // Pipelined durability: the failure alarm must be silent on a
    // healthy run (a nonzero count is exactly the swallowed-barrier bug
    // this figure exists to catch), and the cross-drain path must have
    // genuinely overlapped barriers with execution.
    let pipelined_submits = counter("pipeline.pipelined_submits");
    assert_eq!(
        base.wal_flush_failures, 0,
        "healthy smoke run reported failed flush barriers"
    );
    assert!(
        pipelined_submits > 0,
        "the pipelined drain never overlapped a barrier"
    );
    // One fsync per barrier; rolls, checkpoint rotations and manifest
    // publishes are the amortized remainder.
    let fsyncs_per_barrier = ratio(wal_fsyncs, flush_barriers);
    assert!(
        fsyncs_per_barrier <= 1.5,
        "fsyncs per flush barrier = {fsyncs_per_barrier}"
    );
    report.add_figure(
        "fig_wal_pipeline",
        fields(vec![
            ("wal_flush_failures", Json::U64(base.wal_flush_failures)),
            ("pipelined_submits", Json::U64(pipelined_submits)),
            ("flush_barriers", Json::U64(flush_barriers)),
            ("fsyncs_per_barrier", Json::F64(fsyncs_per_barrier)),
        ]),
    );
    report.add_figure("trace_lifecycle", lifecycle_fields(&base));
    report.add_figure("fig_recovery_scaling", recovery_figure(pass));
    report.add_figure("fig_snapshot_delta", snapshot_delta_figure());
    report.add_figure("fig_fault_matrix", fault_matrix_fields(pass));
    report
}

/// `fig_fault_matrix`: the durability degradation state machine and
/// responder quarantine, exercised end-to-end in one seeded simulated
/// deployment. Replica 3 journals through a [`FaultPlan`]-driven
/// backend; its disk fills mid-run, it degrades, backoff retries run
/// against the full disk, space frees, it recovers and reconverges.
/// Afterwards the same deployment's checkpointed snapshot drives the
/// responder-health exchange: a stale-but-signed snapshot replayed past
/// the threshold quarantines its sender. All gates are deterministic
/// counts under the smoke seed.
fn fault_matrix_fields(pass: &str) -> Vec<(String, Json)> {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ladon-repro-faults-{pass}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut d = Deployment::build(
        &ExperimentConfig::scenario(ProtocolKind::LadonPbft, 4, 12.0)
            .with_epoch_length(16)
            .with_seed(SMOKE_SEED),
    );
    // Replica 3 journals durably through the fault-injecting backend.
    let plan = FaultPlan::unlimited();
    let backend = FaultBackend::new(
        FileBackend::open_dir(dir.join("wal")).expect("open faulted wal dir"),
        plan.clone(),
    );
    let exec = ExecutionPipeline::recover_backend(
        &dir,
        Box::new(backend),
        d.sys.exec_keyspace,
        d.sys.exec_lanes,
        WalOptions::from(&d.sys),
    )
    .expect("recover faulted pipeline");
    d.swap_replica(3, exec);

    // Healthy warm-up, then the disk fills under live load.
    d.run_secs(4.0);
    let _ = plan.clone().enospc_after(0);
    d.run_secs(9.0);
    assert_eq!(
        d.node(3).mode(),
        NodeMode::Degraded,
        "ENOSPC under load must degrade the replica"
    );
    // Space frees; the next backoff retry repairs and the node recovers.
    plan.free_space();
    d.run_secs(30.0);
    let (degraded_entries, degraded_retries, recovered, flush_failures) = {
        let n3 = d.node(3);
        assert_eq!(n3.mode(), NodeMode::Normal, "replica must recover");
        assert!(n3.metrics.degraded_entries >= 1);
        assert!(n3.metrics.degraded_retries >= 1);
        (
            n3.metrics.degraded_entries,
            n3.metrics.degraded_retries,
            u64::from(n3.mode() == NodeMode::Normal),
            n3.metrics.exec.perf.wal_flush_failures,
        )
    };

    // Responder health: a from-zero requester installs an honest
    // snapshot, then a peer replays the same (now stale, still signed)
    // response past the threshold and is quarantined.
    let responder = d.node(0);
    let mut requester = MultiBftNode::new(d.node_config(3));
    let mut ctx = RecordingCtx::<NodeMsg>::new(3, SMOKE_SEED);
    let req = requester.build_sync_request();
    let honest = responder
        .build_sync_response(&req)
        .expect("checkpointed responder serves a from-zero requester");
    assert!(honest.snapshot.is_some(), "snapshot must be worthwhile");
    let stale = honest.clone();
    requester.on_sync_response(ReplicaId(0), honest, &mut ctx);
    assert_eq!(requester.metrics.snapshot_installs, 1);
    for _ in 0..SYNC_QUARANTINE_THRESHOLD {
        requester.on_sync_response(ReplicaId(1), stale.clone(), &mut ctx);
    }
    assert_eq!(requester.metrics.sync_responders_quarantined, 1);
    let stale_rejections = requester.responder_health()[1].rejected_chunks;
    assert_eq!(stale_rejections, SYNC_QUARANTINE_THRESHOLD as u64);
    let _ = std::fs::remove_dir_all(&dir);

    fields(vec![
        ("degraded_entries", Json::U64(degraded_entries)),
        ("degraded_retries", Json::U64(degraded_retries)),
        ("recovered", Json::U64(recovered)),
        ("wal_flush_failures", Json::U64(flush_failures)),
        ("injected_faults", Json::U64(plan.injected_faults())),
        (
            "responders_quarantined",
            Json::U64(requester.metrics.sync_responders_quarantined),
        ),
        ("stale_rejections", Json::U64(stale_rejections)),
        (
            "verified_chunks",
            Json::U64(requester.metrics.sync_chunks_verified),
        ),
    ])
}

/// Per-transition stage-latency fields, one triple per lifecycle edge.
/// Every edge is emitted (zeros when the short window produced no
/// samples for it) so the schema can require the full set. The two
/// edges inside one simulated handler (`confirmed → staged`,
/// `flushed → applied`) span zero simulated time by construction, so
/// only their counts are reported.
fn lifecycle_fields(report: &Report) -> Vec<(String, Json)> {
    const TRANSITIONS: [(&str, bool); 6] = [
        ("submitted_to_proposed", true),
        ("proposed_to_confirmed", true),
        ("confirmed_to_staged", false),
        ("staged_to_flushed", true),
        ("flushed_to_applied", false),
        ("applied_to_checkpointed", true),
    ];
    let mut out = Vec::new();
    for (t, timed) in TRANSITIONS {
        let sl = report.stage_latencies.iter().find(|s| s.transition == t);
        out.push((format!("{t}_count"), Json::U64(sl.map_or(0, |s| s.count))));
        if timed {
            out.push((
                format!("{t}_mean_ms"),
                Json::F64(sl.map_or(0.0, |s| s.mean_ms)),
            ));
            out.push((
                format!("{t}_p99_ms"),
                Json::F64(sl.map_or(0.0, |s| s.p99_ms)),
            ));
        }
    }
    out
}
