//! One workload, one pass: repetitions, the end-to-end metrics or the
//! per-layer ledger, and the verdict.
//!
//! The end-to-end pass runs with tracing off. Every repetition runs the
//! run's seed, so all of them do the same work: they must agree on every
//! simulated-clock result and exact count (the determinism self-check),
//! and the wall-clock metrics are medians over repetitions of one
//! computation. Seed variety comes from `--seed`. The traced pass runs
//! the seed untraced, traced, untraced: the traced repetition must agree
//! with the other two as well, and its wall time against the mean of its
//! two neighbours gives the tracing overhead.

use crate::alloc;
use crate::drives::{self, Shape};
use crate::durable::{self, DurableRep};
use crate::procstat::{self, ProcUsage};
use crate::sim::{self, SimRep, SimWorkload};
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, min_max, Samples};
use crate::trace::{self, Span};
use ladon_obs::Json;
use std::collections::BTreeMap;

/// A failed percentile (`String`) or failed I/O ends a pass alike.
type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Repetitions per end-to-end pass: at least this many set-ups feed the
/// `setup_s` median.
const MIN_REPS: usize = 2;
/// Upper limit on repetitions, whatever `--seconds` asks for.
const MAX_REPS: usize = 6;
/// Nominal wall seconds one repetition measures for in the 2-core
/// sandbox (4.5 s on `hotstuff_n16` to 9.5 s on `durable_file`): the
/// default `--seconds 20` gives three repetitions.
const NOMINAL_REP_SECONDS: f64 = 6.5;

/// One reported metric: the value plus the smallest and largest
/// per-repetition value behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// The outcome of one workload pass.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub seconds: f64,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics: sample counts, injected
    /// network delay, backlog, refusals.
    pub notes: Vec<(String, Json)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metrics as a JSON object; `spread` adds each metric's smallest
    /// and largest per-repetition value.
    fn metrics_json(&self, spread: bool) -> Json {
        let one = |m: &Metric| {
            let mut fields = vec![
                ("value".into(), Json::F64(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ];
            if spread {
                fields.push(("min".into(), Json::F64(m.min)));
                fields.push(("max".into(), Json::F64(m.max)));
            }
            (m.name.to_string(), Json::Obj(fields))
        };
        Json::Obj(self.metrics.iter().map(one).collect())
    }

    /// The driver's contract line.
    pub fn contract_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::U64(self.attempted.max(1))),
            ("failed".into(), Json::U64(self.failed)),
            ("metrics".into(), self.metrics_json(false)),
        ])
    }

    /// The report-file entry: the contract line plus spread and context.
    pub fn report_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::U64(self.seed)),
            ("trace".into(), Json::U64(self.traced.into())),
            ("seconds".into(), Json::F64(self.seconds)),
            ("reps".into(), Json::U64(self.reps as u64)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::U64(self.attempted)),
            ("failed".into(), Json::U64(self.failed)),
            (
                "violations".into(),
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".into(), self.metrics_json(true)),
            ("notes".into(), Json::Obj(self.notes.clone())),
        ])
    }
}

/// Runs `workload` once: the end-to-end pass, or with `traced` the
/// per-layer pass. `Err` for an unknown name or an I/O failure.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> std::result::Result<RunResult, String> {
    let sim = sim::SIM_WORKLOADS.iter().find(|w| w.name == name);
    match (sim, traced) {
        (Some(w), false) => sim_end_to_end(w, seed, seconds),
        (Some(w), true) => sim_layers(w, seed, seconds),
        (None, false) if name == durable::NAME => durable_end_to_end(seed, seconds),
        (None, true) if name == durable::NAME => durable_layers(seed, seconds),
        (None, _) => Err("unknown workload".into()),
    }
    .map_err(|e| format!("{name}: {e}"))
}

/// Repetitions that cover `seconds` of measured phase. The count depends
/// on the argument alone, so two runs of one command always take the same
/// statistic.
fn rep_count(seconds: f64) -> usize {
    ((seconds / NOMINAL_REP_SECONDS).round() as usize).clamp(MIN_REPS, MAX_REPS)
}

fn metric(name: &'static str, value: f64, per_rep: &[f64]) -> Metric {
    let (min, max) = if per_rep.is_empty() {
        (value, value)
    } else {
        min_max(per_rep)
    };
    Metric {
        name,
        unit: spec::unit_of(name).expect("metric is in the spec"),
        value,
        min,
        max,
    }
}

fn median_metric(name: &'static str, per_rep: &[f64]) -> Metric {
    metric(name, median(per_rep), per_rep)
}

/// Every repetition's violations, tagged with its index, plus the
/// determinism self-check: repetitions of one seed must leave the same
/// fingerprint.
fn rep_violations(reps: &[(&[String], String)]) -> Vec<String> {
    let mut all: Vec<String> = reps
        .iter()
        .enumerate()
        .flat_map(|(i, (v, _))| v.iter().map(move |m| format!("rep {i}: {m}")))
        .collect();
    let first = &reps[0].1;
    for (i, (_, fingerprint)) in reps.iter().enumerate().skip(1) {
        if fingerprint != first {
            all.push(format!(
                "determinism: same seed, different results\n  rep 0: {first}\n  rep {i}: {fingerprint}"
            ));
        }
    }
    all
}

// ---------------------------------------------------------------------
// Simulator workloads
// ---------------------------------------------------------------------

/// Context of a simulator pass; `rep` stands for every repetition, since
/// all of them ran the same seed.
fn sim_notes(w: &SimWorkload, rep: &SimRep) -> Vec<(String, Json)> {
    let (d_min, d_med, d_max) = w.one_way_delay_ms();
    vec![
        ("latency_clock".into(), Json::Str("simulated".into())),
        (
            "latency_samples".into(),
            Json::U64(rep.latency.len() as u64),
        ),
        (
            "one_way_delay_ms_min_median_max".into(),
            Json::Arr(vec![Json::F64(d_min), Json::F64(d_med), Json::F64(d_max)]),
        ),
        ("ops_submitted".into(), Json::U64(rep.submitted)),
        (
            "ops_undelivered".into(),
            Json::U64(rep.submitted - rep.confirmed_at_end),
        ),
        ("commits_at_end".into(), Json::U64(rep.commits_at_end)),
        ("confirms_at_end".into(), Json::U64(rep.confirms_at_end)),
        ("epochs".into(), Json::U64(rep.epochs)),
        (
            "causal_strength".into(),
            Json::F64(rep.report.causal_strength),
        ),
        ("clock_ktps".into(), Json::F64(rep.report.throughput_ktps)),
    ]
}

fn sim_end_to_end(w: &SimWorkload, seed: u64, seconds: f64) -> Result<RunResult> {
    let reps: Vec<SimRep> = (0..rep_count(seconds))
        .map(|_| sim::run_rep(w, seed, false))
        .collect();
    let fingerprints: Vec<String> = reps.iter().map(SimRep::fingerprint).collect();
    let violations = rep_violations(
        &reps
            .iter()
            .zip(fingerprints)
            .map(|(r, f)| (r.violations.as_slice(), f))
            .collect::<Vec<_>>(),
    );
    // Simulated-clock results are the same in every repetition.
    let first = &reps[0];
    let latency = Samples::weighted(first.latency.iter().copied());
    let col = |f: fn(&SimRep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };

    let metrics = vec![
        median_metric("wall_ktps", &col(SimRep::wall_ktps)),
        metric("latency_p50_ms", latency.percentile(50.0)?, &[]),
        metric("latency_p95_ms", latency.percentile(95.0)?, &[]),
        metric("delivered_share", first.delivered_share(), &[]),
        median_metric("cpu_ms_per_ktx", &col(SimRep::cpu_ms_per_ktx)),
        metric("peak_rss_mb", procstat::peak_rss_mb(), &[]),
        median_metric("setup_s", &col(|r| r.setup_s)),
    ];
    Ok(RunResult {
        workload: w.name.into(),
        seed,
        traced: false,
        seconds,
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.submitted).sum(),
        failed: reps.iter().map(|r| r.flush_failures + r.exec_gaps).sum(),
        violations,
        notes: sim_notes(w, first),
        metrics,
    })
}

/// Spans whose direct parent is named `parent_name`.
fn children_of<'a>(spans: &'a [Span], parent_name: &'a str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| {
        s.parent != trace::NO_PARENT && spans[s.parent as usize].name == parent_name
    })
}

fn total_s<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    spans.map(Span::dur_ns).sum::<u64>() as f64 / 1e9
}

/// Percentile for the ledger: 0 when the sample refuses it.
fn pct_or_zero(samples: &Samples, p: f64) -> f64 {
    samples.percentile(p).unwrap_or(0.0)
}

/// What the traced repetition's process-side counters feed.
struct TracedSide {
    spans: Vec<Span>,
    /// Peak of live bytes allocated during the traced repetition.
    peak_live_bytes: u64,
    overhead_share: f64,
    drives: BTreeMap<&'static str, f64>,
}

/// Estimated share of `wall_s` spent in cryptography: counted operations
/// times their driven cost. Sign/verify costs already include their
/// hashes, so only the remaining hashes are charged separately.
fn crypto_est_s(c: &ladon_crypto::CryptoCounters, d: &BTreeMap<&'static str, f64>) -> f64 {
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let hash_ns = get("crypto.drive.hash64_ns").max(1.0);
    let ops_ns = c.signs as f64 * get("crypto.drive.sign_ns")
        + c.verifies as f64 * get("crypto.drive.verify_ns")
        + c.agg_verifies as f64 * get("crypto.drive.agg_verify_ns");
    let loose_hashes = (c.hashes as f64 - ops_ns / hash_ns).max(0.0);
    (ops_ns + loose_hashes * hash_ns) / 1e9
}

/// Builds the per-layer metric list from `(name, value)` pairs: every
/// name in the spec appears, in spec order; a layer the workload does not
/// exercise reports 0.
fn ledger(values: BTreeMap<&'static str, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == *name),
            "{name} is not in the spec"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            Metric {
                name,
                unit,
                value,
                min: value,
                max: value,
            }
        })
        .collect()
}

fn proc_alloc_rows(
    v: &mut BTreeMap<&'static str, f64>,
    usage: &ProcUsage,
    side: &TracedSide,
    measured: &alloc::AllocStats,
    blocks: u64,
    txs: u64,
) {
    v.insert("proc.user_s", usage.user_s);
    v.insert("proc.sys_s", usage.sys_s);
    v.insert("proc.sys_share", usage.sys_s / usage.cpu_s().max(1e-9));
    v.insert("proc.minor_faults", usage.minor_faults as f64);
    v.insert(
        "alloc.count_per_block",
        measured.count as f64 / blocks.max(1) as f64,
    );
    v.insert(
        "alloc.bytes_per_tx",
        measured.bytes as f64 / txs.max(1) as f64,
    );
    v.insert(
        "alloc.peak_live_mb",
        side.peak_live_bytes as f64 / (1024.0 * 1024.0),
    );
    v.insert("trace.overhead_share", side.overhead_share);
}

fn write_trace_file(workload: &str, spans: &[Span]) -> Result<()> {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("trace-{workload}.json")),
        trace::to_json(workload, spans).render_pretty(),
    )?;
    Ok(())
}

/// Wall time of the traced repetition against the mean of the untraced
/// repetitions before and after it, so that a machine that speeds up or
/// slows down steadily over the three cancels out.
fn overhead_share(traced_s: f64, before_s: f64, after_s: f64) -> f64 {
    traced_s / ((before_s + after_s) / 2.0) - 1.0
}

/// Spans recorded in the measured phase × the calibrated cost of
/// recording one ÷ its wall time: what tracing adds, free of the
/// run-to-run noise `trace.overhead_share` carries.
fn span_cost_share(spans: usize, wall_s: f64) -> f64 {
    spans as f64 * trace::span_cost_ns() / 1e9 / wall_s
}

fn sim_layers(w: &SimWorkload, seed: u64, seconds: f64) -> Result<RunResult> {
    let before = sim::run_rep(w, seed, false);
    alloc::start();
    trace::start(before.events_total as usize + 1024);
    let rep = sim::run_rep(w, seed, true);
    let spans = trace::finish();
    let peak_live_bytes = alloc::stop().peak_live_bytes;
    let after = sim::run_rep(w, seed, false);

    let sys = w.system(seed);
    let shape = Shape {
        n: w.n,
        env: w.env,
        batch_size: sys.batch_size,
        straggler_k: w.straggler_k.map(|k| k as u64),
        exec_lanes: sys.exec_lanes,
        keyspace: sys.exec_keyspace,
        seed,
    };
    let side = TracedSide {
        overhead_share: overhead_share(
            rep.window_wall_s,
            before.window_wall_s,
            after.window_wall_s,
        ),
        drives: drives::run_all(&shape, seconds * 0.4)?
            .into_iter()
            .collect(),
        spans,
        peak_live_bytes,
    };
    let all = [&before, &rep, &after];
    let violations = rep_violations(&all.map(|r| (r.violations.as_slice(), r.fingerprint())));

    let wall = rep.window_wall_s;
    let blocks = rep.window_blocks.max(1) as f64;
    let txs = rep.window_txs.max(1) as f64;
    let mut v = side.drives.clone();
    let replica_msgs: u64 = rep.net.msgs_sent.iter().take(w.n).sum();
    let replica_bytes: u64 = rep.net.bytes_sent.iter().take(w.n).sum();
    let slices_s = total_s(side.spans.iter().filter(|s| s.name == "slice"));
    let handlers_s = total_s(children_of(&side.spans, "slice"));
    let dispatch_self_s = slices_s - handlers_s;
    v.insert("sim.events", rep.events_window as f64);
    v.insert("sim.msgs_per_block", replica_msgs as f64 / blocks);
    v.insert("sim.bytes_per_tx", replica_bytes as f64 / txs);
    v.insert("sim.dispatch_self_s", dispatch_self_s);
    v.insert(
        "sim.dispatch_ns_per_event",
        dispatch_self_s * 1e9 / rep.events_window.max(1) as f64,
    );
    for (row, span) in [
        ("core.handler_s.pbft", "node.pbft"),
        ("core.handler_s.hs", "node.hs"),
        ("core.handler_s.client_txs", "node.client_txs"),
        ("core.handler_s.checkpoint", "node.checkpoint"),
        ("core.handler_s.sync", "node.sync"),
        ("core.handler_s.timer", "node.timer"),
    ] {
        v.insert(
            row,
            total_s(children_of(&side.spans, "slice").filter(|s| s.name == span)),
        );
    }
    let handler_us = Samples::new(
        children_of(&side.spans, "slice")
            .filter(|s| s.name.starts_with("node."))
            .map(|s| s.dur_ns() as f64 / 1e3),
    );
    v.insert("core.handler_us_p50", pct_or_zero(&handler_us, 50.0));
    v.insert("core.handler_us_p99", pct_or_zero(&handler_us, 99.0));
    v.insert("core.handler_ms_max", handler_us.max().unwrap_or(0.0) / 1e3);
    v.insert("core.view_changes", rep.view_changes as f64);
    v.insert("core.epochs", rep.epochs as f64);
    v.insert(
        "core.confirm_lag_blocks",
        rep.commits_at_end.saturating_sub(rep.confirms_at_end) as f64,
    );
    v.insert("core.causal_strength", rep.report.causal_strength);
    v.insert("core.ordering.waiting_peak", rep.waiting_peak as f64);
    v.insert("crypto.hashes", rep.crypto.hashes as f64 / blocks);
    v.insert("crypto.signs", rep.crypto.signs as f64 / blocks);
    v.insert("crypto.verifies", rep.crypto.verifies as f64 / blocks);
    v.insert(
        "crypto.agg_verifies",
        rep.crypto.agg_verifies as f64 / blocks,
    );
    let cert_checks = rep.crypto.qc_verify_hits + rep.crypto.agg_verifies;
    v.insert(
        "crypto.qc_cache_hit_ratio",
        rep.crypto.qc_verify_hits as f64 / cert_checks.max(1) as f64,
    );
    let crypto_s = crypto_est_s(&rep.crypto, &side.drives);
    v.insert("crypto.est_share", crypto_s / wall);
    let exec_s = rep.exec_ns_window as f64 / 1e9;
    v.insert("state.kv.exec_share", exec_s / wall);
    v.insert(
        "state.kv.waves_per_batch",
        rep.sched.waves as f64 / rep.sched.batches.max(1) as f64,
    );
    v.insert(
        "state.kv.ops_per_wave",
        rep.sched.scheduled_ops as f64 / rep.sched.waves.max(1) as f64,
    );
    // Σ over replicas, per block confirmed at the reference replica.
    v.insert(
        "state.wal.fsyncs_per_block",
        rep.fsyncs_window as f64 / blocks,
    );
    v.insert("state.wal.bytes_per_tx", rep.wal_bytes_window as f64 / txs);
    v.insert(
        "state.wal.records_per_barrier",
        blocks * w.n as f64 / rep.barriers_window.max(1) as f64,
    );
    v.insert("state.wal.flush_failures", rep.flush_failures as f64);
    v.insert("state.snapshot.bytes", rep.snapshot_bytes as f64);
    v.insert("workload.aggregate_ms", rep.aggregate_ms);
    v.insert("workload.submitted_txs", rep.submitted as f64);
    v.insert("workload.clock_ktps", rep.report.throughput_ktps);
    let latency = Samples::weighted(rep.latency.iter().copied());
    v.insert("workload.latency_p99_ms", pct_or_zero(&latency, 99.0));
    proc_alloc_rows(
        &mut v,
        &rep.rep_usage,
        &side,
        &rep.window_allocs,
        rep.window_blocks,
        rep.window_txs,
    );
    let flush_s = rep.wal_flush_ns_window as f64 / 1e9;
    v.insert(
        "trace.unattributed_share",
        1.0 - (dispatch_self_s + exec_s + flush_s + crypto_s) / wall,
    );

    v.insert(
        "trace.span_cost_share",
        span_cost_share(children_of(&side.spans, "slice").count(), wall),
    );

    write_trace_file(w.name, &side.spans)?;
    let mut notes = sim_notes(w, &rep);
    notes.push(("spans".into(), Json::U64(side.spans.len() as u64)));
    if let Err(why) = latency.percentile(99.0) {
        notes.push(("latency_p99_refused".into(), Json::Str(why)));
    }
    Ok(RunResult {
        workload: w.name.into(),
        seed,
        traced: true,
        seconds,
        reps: all.len(),
        attempted: all.iter().map(|r| r.submitted).sum(),
        failed: all.iter().map(|r| r.flush_failures + r.exec_gaps).sum(),
        violations,
        metrics: ledger(v),
        notes,
    })
}

// ---------------------------------------------------------------------
// durable_file
// ---------------------------------------------------------------------

fn durable_notes(reps: &[DurableRep]) -> Vec<(String, Json)> {
    vec![
        ("latency_clock".into(), Json::Str("wall".into())),
        (
            "latency_samples".into(),
            Json::U64(reps.iter().map(|r| r.latency_ms.len() as u64).sum()),
        ),
        (
            "ops_submitted".into(),
            Json::U64(reps.iter().map(|r| r.attempted_blocks).sum()),
        ),
        (
            "ops_undelivered".into(),
            Json::U64(reps.iter().map(|r| r.failed_blocks).sum()),
        ),
        (
            "scratch_fs".into(),
            Json::Str(crate::meta::filesystem_of(&crate::out_dir())),
        ),
        (
            "storage_ops_per_block".into(),
            Json::F64(
                reps.iter().map(|r| r.storage_ops).sum::<u64>() as f64
                    / reps.iter().map(|r| r.measured_blocks).sum::<u64>().max(1) as f64,
            ),
        ),
    ]
}

fn durable_end_to_end(seed: u64, seconds: f64) -> Result<RunResult> {
    let reps = (0..rep_count(seconds))
        .map(|i| durable::run_rep(seed, i))
        .collect::<std::io::Result<Vec<DurableRep>>>()?;
    // Wall-clock latencies differ between repetitions: exact percentiles
    // over the pooled blocks, each repetition's own as the spread.
    let pooled = Samples::new(reps.iter().flat_map(|r| r.latency_ms.iter().copied()));
    let latency = |name: &'static str, p: f64| -> Result<Metric> {
        let per_rep: Vec<f64> = reps
            .iter()
            .filter_map(|r| {
                Samples::new(r.latency_ms.iter().copied())
                    .percentile(p)
                    .ok()
            })
            .collect();
        Ok(metric(name, pooled.percentile(p)?, &per_rep))
    };
    let col = |f: fn(&DurableRep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let attempted: u64 = reps.iter().map(|r| r.attempted_blocks).sum();
    let failed: u64 = reps.iter().map(|r| r.failed_blocks).sum();

    let metrics = vec![
        median_metric("wall_ktps", &col(DurableRep::wall_ktps)),
        latency("latency_p50_ms", 50.0)?,
        latency("latency_p95_ms", 95.0)?,
        metric(
            "delivered_share",
            1.0 - failed as f64 / attempted as f64,
            &col(DurableRep::delivered_share),
        ),
        median_metric("cpu_ms_per_ktx", &col(DurableRep::cpu_ms_per_ktx)),
        metric("peak_rss_mb", procstat::peak_rss_mb(), &[]),
        median_metric("setup_s", &col(|r| r.setup_s)),
    ];
    Ok(RunResult {
        workload: durable::NAME.into(),
        seed,
        traced: false,
        seconds,
        reps: reps.len(),
        attempted,
        failed,
        violations: rep_violations(
            &reps
                .iter()
                .map(|r| (r.violations.as_slice(), r.fingerprint()))
                .collect::<Vec<_>>(),
        ),
        notes: durable_notes(&reps),
        metrics,
    })
}

fn durable_layers(seed: u64, seconds: f64) -> Result<RunResult> {
    let before = durable::run_rep(seed, 0)?;
    alloc::start();
    trace::start(5 * durable::MEASURED_BLOCKS as usize);
    let rep = durable::run_rep(seed, 1)?;
    let spans = trace::finish();
    let peak_live_bytes = alloc::stop().peak_live_bytes;
    let after = durable::run_rep(seed, 2)?;

    let sys = durable::system();
    let shape = Shape {
        n: sys.n,
        env: sys.env,
        batch_size: durable::BLOCK_TXS,
        straggler_k: None,
        exec_lanes: sys.exec_lanes,
        keyspace: sys.exec_keyspace,
        seed,
    };
    let side = TracedSide {
        overhead_share: overhead_share(
            rep.measured_wall_s,
            before.measured_wall_s,
            after.measured_wall_s,
        ),
        drives: drives::run_all(&shape, seconds * 0.4)?
            .into_iter()
            .collect(),
        spans,
        peak_live_bytes,
    };

    let wall = rep.measured_wall_s;
    let blocks = rep.measured_blocks.max(1) as f64;
    let txs = rep.measured_txs().max(1) as f64;
    let measured =
        |name: &'static str| children_of(&side.spans, "measure").filter(move |s| s.name == name);
    let ms = |name: &'static str| Samples::new(measured(name).map(|s| s.dur_ns() as f64 / 1e6));
    let mut v = side.drives.clone();
    // Small batches execute on the driver thread, where hashes count.
    v.insert("crypto.hashes", rep.hashes as f64 / blocks);
    let exec_s = rep.exec_ns as f64 / 1e9;
    v.insert("state.kv.exec_share", exec_s / wall);
    v.insert(
        "state.kv.waves_per_batch",
        rep.waves as f64 / rep.batches.max(1) as f64,
    );
    v.insert(
        "state.kv.ops_per_wave",
        rep.scheduled_ops as f64 / rep.waves.max(1) as f64,
    );
    v.insert("state.wal.fsyncs_per_block", rep.fsyncs as f64 / blocks);
    v.insert("state.wal.bytes_per_tx", rep.wal_bytes as f64 / txs);
    v.insert(
        "state.wal.records_per_barrier",
        blocks / rep.barriers.max(1) as f64,
    );
    v.insert("state.wal.flush_failures", rep.failed_blocks as f64);
    let stage_us = Samples::new(measured("wal.stage_blocks").map(|s| s.dur_ns() as f64 / 1e3));
    v.insert("state.wal.stage_us_p50", pct_or_zero(&stage_us, 50.0));
    let barrier = ms("wal.submit_staged");
    v.insert("state.wal.barrier_ms_p50", pct_or_zero(&barrier, 50.0));
    v.insert("state.wal.barrier_ms_p99", pct_or_zero(&barrier, 99.0));
    let checkpoint = ms("snapshot.checkpoint");
    v.insert(
        "state.snapshot.checkpoint_ms_p50",
        pct_or_zero(&checkpoint, 50.0),
    );
    v.insert(
        "state.snapshot.checkpoint_ms_max",
        checkpoint.max().unwrap_or(0.0),
    );
    v.insert("state.snapshot.bytes", rep.snapshot_bytes as f64);
    v.insert("state.recover_ms", rep.recover_ms);
    v.insert(
        "state.recover.records_replayed",
        rep.replay.records_replayed as f64,
    );
    v.insert(
        "state.recover.segments_skipped",
        rep.replay.segments_skipped as f64,
    );
    v.insert("workload.submitted_txs", txs);
    v.insert("workload.clock_ktps", rep.wall_ktps());
    let latency = Samples::new(rep.latency_ms.iter().copied());
    v.insert("workload.latency_p99_ms", pct_or_zero(&latency, 99.0));
    proc_alloc_rows(
        &mut v,
        &rep.rep_usage,
        &side,
        &rep.measured_allocs,
        rep.measured_blocks,
        rep.measured_txs(),
    );
    let spans_s = total_s(children_of(&side.spans, "measure"));
    v.insert("trace.unattributed_share", 1.0 - spans_s / wall);
    v.insert(
        "trace.span_cost_share",
        span_cost_share(children_of(&side.spans, "measure").count(), wall),
    );

    write_trace_file(durable::NAME, &side.spans)?;
    let mut notes = durable_notes(std::slice::from_ref(&rep));
    notes.push(("spans".into(), Json::U64(side.spans.len() as u64)));
    // The pipeline spans hold execution too; the rest is WAL and snapshot.
    notes.push((
        "wal_snapshot_span_share".into(),
        Json::F64((spans_s - exec_s) / wall),
    ));
    let all = [&before, &rep, &after];
    Ok(RunResult {
        workload: durable::NAME.into(),
        seed,
        traced: true,
        seconds,
        reps: all.len(),
        attempted: all.iter().map(|r| r.attempted_blocks).sum(),
        failed: all.iter().map(|r| r.failed_blocks).sum(),
        violations: rep_violations(&all.map(|r| (r.violations.as_slice(), r.fingerprint()))),
        metrics: ledger(v),
        notes,
    })
}
