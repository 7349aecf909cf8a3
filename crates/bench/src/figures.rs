//! The paper's figures and tables as data: [`FIGURES`] holds each one
//! once, and `repro` is their only runner.
//!
//! Most are a sweep: a list of cases, each a row's key cells plus the
//! [`ExperimentConfig`] whose report fills the rest of the row. Three are
//! not a sweep of runs and build their rows directly: Fig. 2a (the
//! closed-form model of §2.1), Fig. 8 (the timeline of one run) and
//! Appendix A (one instance driven through the PBFT testkit cluster).
//! Paper-reported values ride in the titles, so the printed output reads
//! as a paper-vs-measured record.

use std::fmt::Display;

use ladon_crypto::CryptoCounters;
use ladon_pbft::testkit::{test_batch, Cluster};
use ladon_pbft::{PbftMsg, RankMode};
use ladon_types::{NetEnv, ProtocolKind, TimeNs, WireSize};
use ladon_workload::{
    analytical, cs_fmt, f2, f3, run_experiment, ExperimentConfig, Report, Scale, Table,
};

/// A row's key cells and the experiment whose report fills the rest.
pub type Case = (Vec<String>, ExperimentConfig);

/// A directly built figure: its rows, and the lines printed under the
/// table.
pub type Built = (Vec<Vec<String>>, Vec<String>);

/// How a figure's rows are made.
pub enum Rows {
    /// One run per case, at the scale's measurement windows. A row is the
    /// case's key cells followed by `cells(report, base)`, where `base`
    /// is the report of the sweep's first case (what a relative column
    /// is read against).
    Sweep {
        cases: fn(Scale) -> Vec<Case>,
        cells: fn(&Report, &Report) -> Vec<String>,
    },
    /// Rows built without a sweep.
    Direct(fn(Scale) -> Built),
}

/// One paper figure or table.
pub struct Figure {
    /// What `repro --figure` selects it by.
    pub name: &'static str,
    /// The table title: the paper's number and the values it reports.
    pub title: &'static str,
    pub headers: &'static [&'static str],
    pub rows: Rows,
}

impl Figure {
    /// Runs the figure at scale `sc` and prints its table, under a banner
    /// naming the scale.
    pub fn print(&self, sc: Scale) {
        println!("\n################################################################");
        println!(
            "# {} (scale = {sc:?}; LADON_SCALE=medium|full widens it)",
            self.name
        );
        println!("################################################################");
        let mut t = Table::new(self.title, self.headers);
        let notes = match self.rows {
            Rows::Sweep { cases, cells } => {
                let mut base = None;
                for (mut row, cfg) in cases(sc) {
                    let r = run_experiment(&cfg.scaled_windows(sc));
                    row.extend(cells(&r, base.get_or_insert_with(|| r.clone())));
                    t.row(row);
                }
                Vec::new()
            }
            Rows::Direct(build) => {
                let (rows, notes) = build(sc);
                rows.into_iter().for_each(|row| t.row(row));
                notes
            }
        };
        t.print();
        notes.iter().for_each(|line| println!("{line}"));
    }
}

/// A row's key cells.
fn key(cells: &[&dyn Display]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// `s` honest stragglers at k = 10, the paper's §6.1 straggler setting.
fn cfg(protocol: ProtocolKind, n: usize, env: NetEnv, s: usize) -> ExperimentConfig {
    ExperimentConfig::new(protocol, n, env).with_stragglers(s, 10.0)
}

/// Every protocol at every replica count of the scale, with 0 and 1
/// straggler, in each environment.
fn scalability(sc: Scale, envs: &[NetEnv], protocols: &[ProtocolKind]) -> Vec<Case> {
    let mut out = Vec::new();
    for &env in envs {
        for s in [0, 1] {
            for &p in protocols {
                for n in sc.replica_counts() {
                    let key = key(&[&format!("{env:?}"), &s, &p.label(), &n]);
                    out.push((key, cfg(p, n, env, s)));
                }
            }
        }
    }
    out
}

/// The PBFT-family protocols at n = 16, WAN, each with 1–5 stragglers.
fn pbft_family_1_to_5_stragglers(_: Scale) -> Vec<Case> {
    let mut out = Vec::new();
    for p in ProtocolKind::PBFT_FAMILY {
        for s in 1..=5 {
            out.push((key(&[&p.label(), &s]), cfg(p, 16, NetEnv::Wan, s)));
        }
    }
    out
}

fn ladon_n16_wan(s: usize) -> ExperimentConfig {
    cfg(ProtocolKind::LadonPbft, 16, NetEnv::Wan, s)
}

/// Throughput and latency, the columns most figures plot, then `more`.
fn tput_lat(r: &Report, more: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut cells = vec![f2(r.throughput_ktps), f3(r.mean_latency_s)];
    cells.extend(more);
    cells
}

/// Every figure and table `repro` regenerates, in the paper's order.
pub const FIGURES: &[Figure] = &[
    // §2.1: queued partially committed blocks and the global-ordering
    // delay of pre-determined ordering both grow linearly with time.
    Figure {
        name: "fig2a_straggler_model",
        title: "Fig 2a — analytical (m = 16, k = 10): R = 1/k + m - 1, R' = m/k",
        headers: &[
            "rounds",
            "partially committed",
            "globally confirmed",
            "waiting blocks",
            "waiting time (rounds)",
        ],
        rows: Rows::Direct(fig2a),
    },
    Figure {
        name: "fig2b_straggler_impact",
        title: "Fig 2b — ISS-PBFT, m = n = 16, WAN, k = 10 \
                (paper: tput -89.7% @1 straggler, -90.2% @3; latency x12 @1, x18 @3)",
        headers: &[
            "stragglers",
            "throughput (ktps)",
            "latency (s)",
            "vs 0-straggler",
            "waiting blocks at end",
        ],
        rows: Rows::Sweep {
            cases: |_| {
                let iss = |s| (key(&[&s]), cfg(ProtocolKind::IssPbft, 16, NetEnv::Wan, s));
                [0, 1, 3].map(iss).into()
            },
            cells: |r, base| {
                let pct = (r.throughput_ktps / base.throughput_ktps - 1.0) * 100.0;
                let rel = if base.throughput_ktps > 0.0 {
                    format!("{pct:+.1}%")
                } else {
                    "-".into()
                };
                tput_lat(r, [rel, r.waiting_blocks.to_string()])
            },
        },
    },
    // At 128 replicas, WAN, 1 straggler, the paper has Ladon at 9.1x /
    // 9.4x / 9.6x the throughput of ISS / RCC / Mir: pre-determined
    // orderers lose ~90% of their no-straggler throughput, Ladon ~9%,
    // DQBFT ~17%. Here RCC has no row of its own in any PBFT-family
    // figure: its lag-based leader removal is not modelled, so it would
    // run ISS's order and print ISS's rows.
    Figure {
        name: "fig5_scalability",
        title: "Fig 5 — WAN and LAN, 0/1 straggler, k = 10 \
                (paper @128 WAN 1s: Ladon ~9x ISS tput, -62% latency; \
                the ISS row stands for RCC: its removal is not modelled, so its order is ISS's)",
        headers: &[
            "env",
            "stragglers",
            "protocol",
            "n",
            "throughput (ktps)",
            "latency (s)",
            "CS",
        ],
        rows: Rows::Sweep {
            cases: |sc| scalability(sc, &[NetEnv::Wan, NetEnv::Lan], &ProtocolKind::PBFT_FAMILY),
            cells: |r, _| tput_lat(r, [cs_fmt(r.causal_strength)]),
        },
    },
    // §6.2.1: performance is bound by the *slowest* straggler, so from 1
    // to 5 stragglers the paper's throughput drops only 10% / 1% / 1% /
    // 2% / 24% (Ladon, ISS, RCC, Mir, DQBFT). §6.4: CS = e^(−N/n), N
    // counting pairs ordered against generation / commit causality; in
    // the paper Mir degrades gently (0.154 → 0.002), and ISS, RCC and
    // DQBFT collapse to ~1e-5 … 1e-16. CS counts every block, empty
    // straggler blocks included; the tx-only variant is the §4.3
    // front-running exposure. Ladon's all-blocks residual below 1.0 comes
    // entirely from empty straggler cap blocks tying at maxRank(e). One
    // sweep fills both: each run's throughput, latency and both CS cells.
    Figure {
        name: "fig6_tab2_straggler_count",
        title: "Fig 6 + Table 2 (left) — n = 16, WAN, k = 10 \
                (paper: largely flat vs straggler count; Ladon CS 1.0 everywhere, \
                ISS ~1e-5 @1 straggler; \
                the ISS row stands for RCC: its removal is not modelled, so its order is ISS's)",
        headers: &[
            "protocol",
            "stragglers",
            "throughput (ktps)",
            "latency (s)",
            "CS",
            "CS (tx-only)",
        ],
        rows: Rows::Sweep {
            cases: pbft_family_1_to_5_stragglers,
            cells: |r, _| tput_lat(r, [cs_fmt(r.causal_strength), cs_fmt(r.causal_strength_tx)]),
        },
    },
    // §4.4: certification bounds rank manipulation, so rank-minimizing
    // Byzantine stragglers cost little.
    Figure {
        name: "fig7_byzantine_stragglers",
        title: "Fig 7 — Ladon-PBFT, n = 16, WAN, k = 10 \
                (paper: Byz ~90% of honest tput, +12.5% latency @5 stragglers)",
        headers: &["stragglers", "variant", "throughput (ktps)", "latency (s)"],
        rows: Rows::Sweep {
            cases: |_| {
                let mut out = Vec::new();
                for s in 0..=5 {
                    out.push((key(&[&s, &"honest"]), ladon_n16_wan(s)));
                    out.push((key(&[&s, &"byzantine"]), ladon_n16_wan(s).byzantine()));
                }
                out
            },
            cells: |r, _| tput_lat(r, []),
        },
    },
    // Throughput drops to ~0 at the crash, the view change completes at
    // ~21 s and a new epoch starts shortly after; later dips are epoch
    // changes.
    Figure {
        name: "fig8_crash_recovery",
        title: "Fig 8 — Ladon-PBFT, n = 16, WAN, crash at 11 s, timeout 10 s",
        headers: &["t (s)", "throughput (ktps)"],
        rows: Rows::Direct(fig8),
    },
    // Appendix D. HotStuff's 3-chain commit makes a slow instance commit
    // even more slowly than under PBFT, so the straggler penalty is
    // larger; without stragglers the two are comparable.
    Figure {
        name: "fig10_hotstuff",
        title: "Fig 10 — chained HotStuff instances, WAN, 0/1 straggler \
                (paper @128 1s: Ladon-HS 2.7x ISS-HS tput, -22.9% latency)",
        headers: &[
            "env",
            "stragglers",
            "protocol",
            "n",
            "throughput (ktps)",
            "latency (s)",
        ],
        rows: Rows::Sweep {
            cases: |sc| {
                let hs = [ProtocolKind::LadonHotStuff, ProtocolKind::IssHotStuff];
                scalability(sc, &[NetEnv::Wan], &hs)
            },
            cells: |r, _| tput_lat(r, []),
        },
    },
    // Both drop with one straggler (less traffic flows), but Ladon stays
    // busier than ISS because dynamic ordering keeps confirming. CPU is
    // the crypto-op proxy `CryptoCounters::cpu_seconds_proxy`, so what
    // carries over is the relative ordering, not the percentages.
    Figure {
        name: "tab1_resources",
        title: "Table 1 — CPU and bandwidth per replica, n = 16 at quick scale, else 32 \
                (paper n=32: ISS-WAN-0s 319%/85MB/s, Ladon-WAN-0s 350%/99MB/s, \
                ISS-WAN-1s 132%/25MB/s, Ladon-WAN-1s 195%/54MB/s)",
        headers: &[
            "protocol",
            "env",
            "stragglers",
            "n",
            "block rate",
            "CPU proxy (%)",
            "bandwidth (MB/s)",
        ],
        rows: Rows::Sweep {
            cases: |sc| {
                let n = if sc == Scale::Quick { 16 } else { 32 };
                let mut out = Vec::new();
                for p in [ProtocolKind::IssPbft, ProtocolKind::LadonPbft] {
                    for env in [NetEnv::Wan, NetEnv::Lan] {
                        for s in [0, 1] {
                            let c = cfg(p, n, env, s);
                            let rate = format!("{} b/s", c.system().total_block_rate);
                            out.push((key(&[&p.label(), &format!("{env:?}"), &s, &n, &rate]), c));
                        }
                    }
                }
                out
            },
            cells: |r, _| vec![f2(r.cpu_pct), f2(r.bandwidth_mbs)],
        },
    },
    // Normal leaders propose 1 b/s at m = n = 16 WAN, so a straggler
    // proposing at rate r has k = 1/r.
    Figure {
        name: "tab2_causality_rate",
        title: "Table 2 (right) — CS vs straggler proposal rate, 1 straggler, n = 16, WAN \
                (paper: Mir 0.241→0.154; ISS 0.078→1e-5; Ladon 1.0; \
                the ISS row stands for RCC: its removal is not modelled, so its order is ISS's)",
        headers: &["protocol", "rate (b/s)", "CS"],
        rows: Rows::Sweep {
            cases: |_| {
                let mut out = Vec::new();
                for p in ProtocolKind::PBFT_FAMILY {
                    for rate in [0.5f64, 0.4, 0.3, 0.2, 0.1] {
                        let c = ExperimentConfig::new(p, 16, NetEnv::Wan)
                            .with_stragglers(1, 1.0 / rate);
                        out.push((key(&[&p.label(), &rate]), c));
                    }
                }
                out
            },
            cells: |r, _| vec![cs_fmt(r.causal_strength)],
        },
    },
    // Algorithm 2 collects rank reports during the *previous* round's
    // commit phase, so a slow leader's reports are up to one pacing
    // interval stale when it finally proposes. The implementation
    // refreshes the leader's own report at proposal time; the ablation
    // runs the literal algorithm and measures what stale maxima cost in
    // causal strength.
    Figure {
        name: "ablation_rank_refresh",
        title: "Ablation (a) — proposal-time rank refresh, Ladon-PBFT, n = 16, WAN, \
                1 straggler k = 10",
        headers: &[
            "variant",
            "throughput (ktps)",
            "latency (s)",
            "CS",
            "CS (tx-only)",
        ],
        rows: Rows::Sweep {
            cases: |_| {
                vec![
                    (key(&[&"refreshed (ours)"]), ladon_n16_wan(1)),
                    (
                        key(&[&"stale (Alg. 2 literal)"]),
                        ladon_n16_wan(1).stale_ranks(),
                    ),
                ]
            },
            cells: |r, _| tput_lat(r, [cs_fmt(r.causal_strength), cs_fmt(r.causal_strength_tx)]),
        },
    },
    // Shorter epochs checkpoint more often (a nearer recovery horizon,
    // more frequent bucket rotation) but stall every instance at each
    // boundary waiting for the slowest one.
    Figure {
        name: "ablation_epoch_length",
        title: "Ablation (b) — epoch length l(e), Ladon-PBFT, n = 16, WAN, no stragglers \
                (paper uses l(e) = 64)",
        headers: &["l(e)", "throughput (ktps)", "latency (s)", "epoch advances"],
        rows: Rows::Sweep {
            cases: |_| {
                [16, 64, 256, 1024]
                    .map(|l| (key(&[&l]), ladon_n16_wan(0).with_epoch_length(l)))
                    .into()
            },
            cells: |r, _| tput_lat(r, [r.epoch_times.len().to_string()]),
        },
    },
    // Boundaries synchronize on the slowest instance, so short epochs
    // amplify a straggler's cost even for Ladon.
    Figure {
        name: "ablation_epoch_length_straggler",
        title: "Ablation (b') — epoch length under 1 straggler (k = 10), Ladon-PBFT, \
                n = 16, WAN",
        headers: &["l(e)", "throughput (ktps)", "latency (s)"],
        rows: Rows::Sweep {
            cases: |_| {
                [16, 64, 256]
                    .map(|l| (key(&[&l]), ladon_n16_wan(1).with_epoch_length(l)))
                    .into()
            },
            cells: |r, _| tput_lat(r, []),
        },
    },
    // Ladon-PBFT raises the pre-prepare from O(n) to O(n²) (the
    // 2f+1-entry rank set goes to n replicas); Ladon-opt condenses the set
    // into one aggregate signature, restoring O(n).
    Figure {
        name: "appendix_complexity",
        title: "Appendix A — per-round traffic of one instance \
                (paper: pre-prepare O(n) PBFT, O(n^2) Ladon, O(n) Ladon-opt)",
        headers: &[
            "mode",
            "n",
            "preprep bytes/round",
            "preprep bytes/round/n",
            "votes/round",
            "rank msgs/round",
            "auth ops/round",
        ],
        rows: Rows::Direct(appendix_a),
    },
];

fn fig2a(_: Scale) -> Built {
    let rows = [10, 20, 40, 80, 160].map(|rounds| {
        let p = analytical::straggler_series(16, 10.0, rounds)
            .pop()
            .expect("non-empty series");
        vec![
            rounds.to_string(),
            f2(p.partially_committed),
            f2(p.globally_confirmed),
            f2(p.waiting_blocks),
            f2(p.waiting_time_rounds),
        ]
    });
    let fraction = format!(
        "throughput fraction R'/R = {:.3} (paper: \"about 1/k of ideal\", 1/k = 0.1)",
        analytical::throughput_fraction(16, 10.0)
    );
    (rows.into(), vec![fraction])
}

/// One 40 s run, sampled every second, with replica 3 crashing at 11 s.
fn fig8(_: Scale) -> Built {
    let r = run_experiment(
        &ExperimentConfig::new(ProtocolKind::LadonPbft, 16, NetEnv::Wan)
            .duration_secs(40.0)
            .warmup_secs(0.0)
            .with_crash(3, 11.0)
            .with_view_timeout(10.0)
            .sampled(1.0),
    );
    let rows = r
        .timeline
        .iter()
        .map(|&(ts, ktps)| vec![format!("{ts:.0}"), f2(ktps)])
        .collect();
    let notes = [
        (
            "view changes started at",
            &r.view_change_times,
            " (paper: ~21 s completion)",
        ),
        ("new views installed at", &r.new_view_times, ""),
        (
            "epoch advances at",
            &r.epoch_times,
            " (paper: new epoch at ~26 s)",
        ),
    ]
    .map(|(what, at, paper)| {
        let at: Vec<String> = at.iter().map(|s| format!("{s:.1}s")).collect();
        format!("{what}: {at:?}{paper}")
    });
    (rows, notes.into())
}

/// Drives `rounds` proposals of one instance over `n` replicas and
/// returns its traffic per round: pre-prepare bytes, votes, rank
/// messages and authenticator operations.
fn per_round_traffic(n: usize, mode: RankMode, rounds: u64) -> [u64; 4] {
    let mut c = Cluster::new(n, mode, u64::MAX);
    let [mut preprepare_bytes, mut votes, mut ranks] = [0u64; 3];
    CryptoCounters::reset();
    let before = CryptoCounters::snapshot();
    for r in 0..rounds {
        // Drive one proposal; intercept the queue to classify traffic.
        c.now += TimeNs::from_millis(10);
        let actions = c.nodes[0].propose(test_batch(r * 10, 16), c.now, &mut c.cur_ranks[0]);
        c.absorb(0, actions);
        while let Some((to, from, msg)) = c.queue.pop_front() {
            match &msg {
                PbftMsg::PrePrepare(pp) => preprepare_bytes += pp.wire_size(),
                PbftMsg::Vote(_) => votes += 1,
                PbftMsg::Rank(_) => ranks += 1,
                _ => {}
            }
            let who = to.as_usize();
            let acts = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
            c.absorb(who, acts);
        }
    }
    let auth_ops = CryptoCounters::snapshot()
        .since(&before)
        .authenticator_ops();
    [preprepare_bytes, votes, ranks, auth_ops].map(|total| total / rounds)
}

fn appendix_a(sc: Scale) -> Built {
    let sizes: &[usize] = match sc {
        Scale::Quick => &[4, 16, 31],
        Scale::Medium => &[4, 16, 31, 64],
        Scale::Full => &[4, 16, 31, 64, 127],
    };
    let mut rows = Vec::new();
    for (label, mode) in [
        ("PBFT", RankMode::None),
        ("Ladon", RankMode::Plain),
        ("Ladon-opt", RankMode::Opt),
    ] {
        for &n in sizes {
            let [bytes, votes, ranks, auth_ops] = per_round_traffic(n, mode, 8);
            // Batch payload is constant; subtract it to expose the rank
            // overhead scaling.
            let payload = 16u64 * 500 + 16;
            let recipients = n as u64 - 1;
            let overhead = bytes.saturating_sub(recipients * payload) / recipients.max(1);
            let mut row = vec![label.to_string(), n.to_string()];
            row.extend([bytes, overhead, votes, ranks, auth_ops].map(|v| v.to_string()));
            rows.push(row);
        }
    }
    let guide = "reading guide: 'preprep bytes/round/n' is the per-recipient rank overhead — \
                 it grows with n for Ladon (O(n) rank set per message) but stays ~constant \
                 for PBFT and Ladon-opt, matching Appendix A."
        .to_string();
    (rows, vec![guide])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every sweep case is a valid system at every scale and fills its
    /// row exactly, checked without running anything: a width mismatch
    /// would otherwise panic in `Table::row` only after minutes of
    /// simulation.
    #[test]
    fn every_figure_is_well_formed_at_every_scale() {
        let mut names = BTreeSet::new();
        let blank = Report::default();
        for fig in FIGURES {
            assert!(names.insert(fig.name), "duplicate figure `{}`", fig.name);
            let Rows::Sweep { cases, cells } = fig.rows else {
                continue;
            };
            for sc in [Scale::Quick, Scale::Medium, Scale::Full] {
                let cases = cases(sc);
                assert!(!cases.is_empty(), "{}: no cases at {sc:?}", fig.name);
                for (key, cfg) in cases {
                    if let Err(e) = cfg.system().validate() {
                        panic!("{} {key:?} at {sc:?}: {e:?}", fig.name);
                    }
                    let width = key.len() + cells(&blank, &blank).len();
                    assert_eq!(width, fig.headers.len(), "{} {key:?}", fig.name);
                }
            }
        }
    }
}
