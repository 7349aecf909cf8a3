//! Golden transcripts: the instance's output bytes are pinned.
//!
//! How an instance *stores* votes, shares certificates and queues
//! messages is free to change; what it *emits* is not. Each scenario
//! drives a `testkit::Cluster` through 20 rounds under a seeded shuffle
//! of the delivery order — votes overtake their pre-prepare, quorums
//! form from different subsets on different replicas, the last `n − q`
//! votes of every phase arrive after it is decided — plus a duplicated
//! vote every 23 deliveries and an equivocating prepare vote in three
//! rounds. The digest covers every emitted action, field by field, in
//! emission order, and a SHA-256 over every field of every certificate a
//! replica formed or holds at the end ([`cert_digest`]: the encoding the
//! cert cache was once keyed by, kept here so the pins never move). The
//! pinned values were printed by the commit before the vote tally, the
//! `Arc`-shared messages and the replica-wide cert cache went in.
//!
//! A second scenario pins the view-change path the same way
//! ([`view_change_transcript`]).

use ladon_crypto::{QuorumCert, RankCert, Sha256, Signature};
use ladon_pbft::msg::DOMAIN_RANK;
use ladon_pbft::testkit::{test_batch, Cluster};
use ladon_pbft::{
    Action, PbftMsg, Phase, PhaseVote, RankBody, RankMode, RankProof, RankReport, SignedRank,
    ViewChange,
};
use ladon_types::{Block, Digest, InstanceId, Rank, ReplicaId, Round, TimeNs, View};

const ROUNDS: u64 = 20;

/// splitmix64: the shuffle must not depend on anything but the seed.
struct Shuffle(u64);

impl Shuffle {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// A certificate's every certified field and its signature material,
/// hashed in one fixed layout.
fn cert_digest(qc: &QuorumCert) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"ladon/qc-cache/v1");
    h.update(&qc.view.0.to_le_bytes());
    h.update(&qc.round.0.to_le_bytes());
    h.update(&qc.instance.0.to_le_bytes());
    h.update(&qc.digest.0);
    h.update(&qc.rank.0.to_le_bytes());
    h.update(&[qc.domain as u8]);
    h.update(&qc.agg.n.to_le_bytes());
    h.update(&qc.agg.combined);
    h.update(&(qc.agg.signers.len() as u32).to_le_bytes());
    for (replica, key_idx) in &qc.agg.signers {
        h.update(&replica.0.to_le_bytes());
        h.update(&key_idx.to_le_bytes());
    }
    h.finalize()
}

struct Transcript(Sha256);

impl Transcript {
    fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    fn sig(&mut self, s: &Signature) {
        self.u64(s.pk.replica.0.into());
        self.u64(s.pk.key_idx.into());
        self.0.update(&s.tag);
    }

    fn cert(&mut self, qc: Option<&QuorumCert>) {
        match qc {
            Some(qc) => self.0.update(&cert_digest(qc)),
            None => self.0.update(&[0]),
        }
    }

    fn rank_cert(&mut self, rc: &RankCert) {
        self.u64(rc.rank.0);
        self.cert(rc.cert.as_deref());
    }

    fn block(&mut self, b: &Block) {
        self.u64(b.header.index.0.into());
        self.u64(b.header.round.0);
        self.u64(b.header.rank.0);
        self.0.update(&b.header.payload_digest.0);
        self.u64(b.batch.first_tx.0);
        self.u64(b.batch.count.into());
        self.u64(b.batch.payload_bytes);
        self.u64(b.proposed_at.0);
    }

    fn view_change(&mut self, vc: &ViewChange) {
        self.u64(vc.new_view.0);
        self.u64(vc.last_committed.0);
        for e in &vc.prepared {
            self.u64(e.block.header.round.0);
            self.0.update(&e.block.header.payload_digest.0);
            self.u64(e.block.header.rank.0);
            self.cert(Some(&*e.qc));
        }
        self.sig(&vc.sig);
    }

    fn msg(&mut self, m: &PbftMsg) {
        match m {
            PbftMsg::PrePrepare(pp) => {
                self.0.update(b"pp");
                let (h, b) = (&pp.block.header, &pp.block);
                for v in [pp.view.0, h.round.0, h.index.0.into(), h.rank.0] {
                    self.u64(v);
                }
                self.0.update(&h.payload_digest.0);
                self.u64(b.batch.first_tx.0);
                self.u64(b.batch.count.into());
                self.u64(b.batch.payload_bytes);
                self.u64(b.proposed_at.0);
                match &pp.rank_proof {
                    RankProof::None => self.0.update(b"none"),
                    RankProof::FirstRound(rc) => {
                        self.0.update(b"first");
                        self.rank_cert(rc);
                    }
                    RankProof::Plain { rank_set, max_cert } => {
                        self.0.update(b"plain");
                        for sr in rank_set {
                            self.0.update(&sr.body.bytes());
                            self.sig(&sr.sig);
                        }
                        self.rank_cert(max_cert);
                    }
                    RankProof::Opt { agg, base } => {
                        self.0.update(b"opt");
                        for &(r, k) in &agg.signers {
                            self.u64(r.0.into());
                            self.u64(k.into());
                        }
                        self.0.update(&agg.combined);
                        self.u64(agg.n.into());
                        self.u64(base.0);
                    }
                }
                self.sig(&pp.sig);
            }
            PbftMsg::Vote(v) => {
                self.0.update(match v.phase {
                    Phase::Prepare => b"vp",
                    Phase::Commit => b"vc",
                });
                self.0.update(&v.signing_bytes());
                self.sig(&v.sig);
            }
            PbftMsg::Rank(r) => {
                self.0.update(b"rk");
                self.0.update(&r.signed.body.bytes());
                self.sig(&r.signed.sig);
                self.cert(r.qc.as_deref());
            }
            PbftMsg::ViewChange(vc) => {
                self.0.update(b"vw");
                self.view_change(vc);
            }
            PbftMsg::NewView(nv) => {
                self.0.update(b"nv");
                self.u64(nv.view.0);
                for vc in &nv.vcs {
                    self.view_change(vc);
                }
                self.sig(&nv.sig);
            }
        }
    }

    fn actions(&mut self, who: usize, actions: &[Action]) {
        for a in actions {
            self.u64(who as u64);
            match a {
                Action::Broadcast(m) => {
                    self.0.update(b"B");
                    self.msg(m);
                }
                Action::Send(to, m) => {
                    self.0.update(b"S");
                    self.u64(to.0.into());
                    self.msg(m);
                }
                Action::Committed(b) => {
                    self.0.update(b"C");
                    self.block(b);
                }
                Action::ViewChangeStarted { view } => {
                    self.0.update(b"W");
                    self.u64(view.0);
                }
                Action::NewViewInstalled { view } => {
                    self.0.update(b"N");
                    self.u64(view.0);
                }
            }
        }
    }
}

/// Drives the scenario and returns the transcript digest in hex.
fn transcript(n: usize, mode: RankMode) -> String {
    let mut c = Cluster::new(n, mode, u64::MAX / 2);
    let mut t = Transcript(Sha256::new());
    let mut shuffle = Shuffle(0x1ad0 + n as u64);
    let mut delivered = 0u64;
    for round in 1..=ROUNDS {
        c.now += TimeNs::from_millis(10);
        assert!(c.nodes[0].can_propose(), "round {round} cannot start");
        let batch = test_batch(round * 100, 8);
        let actions = c.nodes[0].propose(batch, c.now, &mut c.cur_ranks[0]);
        t.actions(0, &actions);
        c.absorb(0, actions);

        // An equivocating prepare from the last replica, addressed to
        // everyone else: same round, another digest. Whichever of its two
        // votes a receiver sees last is the one it counts.
        if round % 7 == 3 {
            let byz = ReplicaId(n as u32 - 1);
            let (view, rank) = (c.nodes[0].view(), Rank(round));
            let digest = Digest([0xee; 32]);
            let sig = QuorumCert::sign_share(
                &c.registry.signer(byz),
                view,
                Round(round),
                &digest,
                InstanceId(0),
                rank,
            );
            let vote = PhaseVote {
                phase: Phase::Prepare,
                view,
                round: Round(round),
                instance: InstanceId(0),
                digest,
                rank,
                sig,
            };
            for to in 0..n as u32 - 1 {
                c.queue.push_back((ReplicaId(to), byz, PbftMsg::Vote(vote)));
            }
        }

        while !c.queue.is_empty() {
            let (to, from, msg) = c
                .queue
                .swap_remove_back(shuffle.below(c.queue.len()))
                .expect("index below len");
            delivered += 1;
            if delivered.is_multiple_of(23) && matches!(msg, PbftMsg::Vote(_)) {
                c.queue.push_back((to, from, msg.clone()));
            }
            let who = to.as_usize();
            let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
            t.actions(who, &actions);
            c.absorb(who, actions);
        }
    }

    for r in 0..n {
        assert_eq!(c.committed[r].len() as u64, ROUNDS, "replica {r}");
        assert_eq!(c.nodes[r].rejected, 0, "replica {r}");
        for e in c.nodes[r].committed_entries_from(Round(0), ROUNDS as usize) {
            t.block(&e.block);
            t.cert(Some(&*e.qc));
        }
        t.rank_cert(&c.cur_ranks[r]);
    }
    t.0.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn emitted_bytes_match_the_pinned_transcripts() {
    let pins = [
        (
            4,
            RankMode::Plain,
            "8a6256630d5a5f3845655964e675f691d1a8209934117ed5567c8c32684cba35",
        ),
        (
            4,
            RankMode::Opt,
            "ba583e6105c045f7e7b30172a534468259459bba4e9902614bf6b558ee63a706",
        ),
        (
            7,
            RankMode::Plain,
            "56d1366b2995e9856ec4f04fbc2d93e17fbea05d38a24859936b0fb687742b87",
        ),
        (
            7,
            RankMode::Opt,
            "78b4d2a717d95efd6c8c384cd4c7e2b2c7e1251eebaafa13283799db10dfb797",
        ),
        (
            16,
            RankMode::Plain,
            "5e0d576b98afaa069737ea542cbef154947008164694c40349c21e5fd2242e48",
        ),
        (
            16,
            RankMode::Opt,
            "cb80a50d673363c865fdf28af59de36e8ac91da05e0175bdaadb6ce8dd721482",
        ),
    ];
    for (n, mode, pin) in pins {
        assert_eq!(transcript(n, mode), pin, "n = {n}, {mode:?}");
    }
}

/// Has `leader` propose its next round, recording what it emits.
fn propose(c: &mut Cluster, t: &mut Transcript, leader: usize, first_tx: u64) {
    c.now += TimeNs::from_millis(10);
    assert!(
        c.nodes[leader].can_propose(),
        "replica {leader} cannot propose"
    );
    let batch = test_batch(first_tx, 8);
    let actions = c.nodes[leader].propose(batch, c.now, &mut c.cur_ranks[leader]);
    t.actions(leader, &actions);
    c.absorb(leader, actions);
}

/// Expires `who`'s liveness deadline, recording what it emits.
fn timeout(c: &mut Cluster, t: &mut Transcript, who: usize) {
    assert!(c.nodes[who].liveness_since().is_some(), "replica {who}");
    let actions = c.nodes[who].on_timeout(c.now, &mut c.cur_ranks[who]);
    t.actions(who, &actions);
    c.absorb(who, actions);
}

/// Delivers the queue until it is empty, dropping what `keep` refuses and
/// recording every action. A `NewView` waits while anything else is
/// queued, so the new leader's votes of the new view reach each backup
/// before the view does and are replayed from its view buffer.
fn deliver(c: &mut Cluster, t: &mut Transcript, keep: impl Fn(ReplicaId, &PbftMsg) -> bool) {
    while !c.queue.is_empty() {
        let next = c
            .queue
            .iter()
            .position(|(_, _, m)| !matches!(m, PbftMsg::NewView(_)))
            .unwrap_or(0);
        let (to, from, msg) = c.queue.remove(next).expect("index below len");
        let who = to.as_usize();
        if c.crashed[who] || !keep(to, &msg) {
            continue;
        }
        let actions = c.nodes[who].on_message(from, msg, c.now, &mut c.cur_ranks[who]);
        t.actions(who, &actions);
        c.absorb(who, actions);
    }
}

fn is_vote(m: &PbftMsg, phase: Phase) -> bool {
    matches!(m, PbftMsg::Vote(v) if v.phase == phase)
}

/// The view-change scenario, in one FIFO order, returning the transcript
/// digest in hex. Replica 0 leads view 0 and replica 1 view 1:
///
/// 1. rounds 1–2 commit everywhere;
/// 2. round 3 prepares everywhere and commits nowhere (a certified
///    re-proposal);
/// 3. round 4's prepares reach only the leader, and `2f` backups report a
///    rank for it anyway, so the leader may propose round 5 — a round
///    below a certified one that no view-change member can certify (the
///    nil-filled gap; under at most `f` faults this cannot happen, which is
///    why the reports are injected);
/// 4. round 5 prepares everywhere and commits nowhere;
/// 5. the leader crashes; `2f` backups' round-3 deadlines expire, and
///    the new leader's own view change, from its own expiry, completes
///    the quorum;
/// 6. the new view's votes reach the backups before the new view does;
/// 7. the new leader proposes rounds 6 and 7.
fn view_change_transcript(n: usize, mode: RankMode) -> String {
    let mut c = Cluster::new(n, mode, u64::MAX / 2);
    let mut t = Transcript(Sha256::new());
    let f = (n - 1) / 3;
    let all = |_: ReplicaId, _: &PbftMsg| true;
    let no_commits = |_: ReplicaId, m: &PbftMsg| !is_vote(m, Phase::Commit);

    for round in 1..=2 {
        propose(&mut c, &mut t, 0, round * 100);
        deliver(&mut c, &mut t, all);
    }
    propose(&mut c, &mut t, 0, 300);
    deliver(&mut c, &mut t, no_commits);

    propose(&mut c, &mut t, 0, 400);
    let leader = ReplicaId(0);
    deliver(&mut c, &mut t, |to, m| {
        !is_vote(m, Phase::Commit) && (!is_vote(m, Phase::Prepare) || to == leader)
    });
    let cert = c.cur_ranks[0].clone();
    assert_eq!(cert.rank, Rank(4), "the leader certified round 4");
    for r in n - 2 * f..n {
        let from = ReplicaId(r as u32);
        let body = RankBody {
            view: View(0),
            round: Round(4),
            instance: InstanceId(0),
            rank: cert.rank,
        };
        let sig = Signature::sign(&c.registry.signer(from), DOMAIN_RANK, &body.bytes());
        let report = RankReport {
            signed: SignedRank { body, sig },
            qc: cert.cert.clone(),
        };
        c.queue.push_back((leader, from, PbftMsg::Rank(report)));
    }
    deliver(&mut c, &mut t, all);

    propose(&mut c, &mut t, 0, 500);
    deliver(&mut c, &mut t, no_commits);

    c.crashed[0] = true;
    c.now += TimeNs::from_millis(10);
    for who in 2..2 + 2 * f {
        timeout(&mut c, &mut t, who);
    }
    deliver(&mut c, &mut t, all);
    c.now += TimeNs::from_millis(10);
    timeout(&mut c, &mut t, 1);
    deliver(&mut c, &mut t, all);

    for round in 6..=7 {
        propose(&mut c, &mut t, 1, round * 100);
        deliver(&mut c, &mut t, all);
    }

    for r in 1..n {
        assert_eq!(c.nodes[r].view(), View(1), "replica {r}");
        let entries = c.nodes[r].committed_entries_from(Round(0), 7);
        let first_txs: Vec<u64> = entries.iter().map(|e| e.block.batch.first_tx.0).collect();
        assert_eq!(first_txs, [100, 200, 300, 0, 500, 600, 700], "replica {r}");
        assert!(entries[3].block.is_nil(), "replica {r}");
        assert_eq!(c.nodes[r].rejected, 0, "replica {r}");
        for e in entries {
            t.block(&e.block);
            t.cert(Some(&*e.qc));
        }
        t.rank_cert(&c.cur_ranks[r]);
    }
    t.0.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn view_change_bytes_match_the_pinned_transcripts() {
    let pins = [
        (
            4,
            RankMode::Plain,
            "a9291ca6ac9fde5e4003bcf3927b2986b61e2cdae59d0441922d9f561f28a38d",
        ),
        (
            4,
            RankMode::Opt,
            "2c7219d377ee8068804df6d9869ed4701527c7042bf12c7229ab3ec780e6d80c",
        ),
        (
            7,
            RankMode::Plain,
            "49da8a4806b6098026095db695c2b4ed5349690d92e80ab03ff230a7e51b2fc0",
        ),
        (
            7,
            RankMode::Opt,
            "c1d804404b0916b5f68a1a6a693baf76429934f458ef552f8eec0dea77f4cc1a",
        ),
    ];
    let got: Vec<String> = pins
        .iter()
        .map(|&(n, mode, _)| view_change_transcript(n, mode))
        .collect();
    for ((n, mode, pin), got) in pins.into_iter().zip(got) {
        assert_eq!(got, pin, "n = {n}, {mode:?}");
    }
}
