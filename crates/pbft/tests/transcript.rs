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
//! emission order, and the `cache_key` of every certificate a replica
//! formed or holds at the end. The pinned values were printed by the
//! commit before the vote tally, the `Arc`-shared messages and the
//! replica-wide cert cache went in.

use ladon_crypto::{QuorumCert, RankCert, Sha256, Signature};
use ladon_pbft::testkit::{test_batch, Cluster};
use ladon_pbft::{Action, PbftMsg, Phase, PhaseVote, RankMode, RankProof, ViewChange};
use ladon_types::{Block, Digest, InstanceId, Rank, ReplicaId, Round, TimeNs};

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
            Some(qc) => self.0.update(&qc.cache_key()),
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
            self.u64(e.round.0);
            self.0.update(&e.digest.0);
            self.u64(e.rank.0);
            self.cert(Some(&*e.qc));
        }
        self.sig(&vc.sig);
    }

    fn msg(&mut self, m: &PbftMsg) {
        match m {
            PbftMsg::PrePrepare(pp) => {
                self.0.update(b"pp");
                for v in [pp.view.0, pp.round.0, pp.instance.0.into(), pp.rank.0] {
                    self.u64(v);
                }
                self.0.update(&pp.digest.0);
                self.u64(pp.batch.first_tx.0);
                self.u64(pp.batch.count.into());
                self.u64(pp.batch.payload_bytes);
                self.u64(pp.proposed_at.0);
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
                Action::StartRoundTimer { round, view } => {
                    self.0.update(b"T");
                    self.u64(round.0);
                    self.u64(view.0);
                }
                Action::StartViewChangeTimer { view } => {
                    self.0.update(b"V");
                    self.u64(view.0);
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
        for (block, qc) in c.nodes[r].committed_entries_from(Round(0), ROUNDS as usize) {
            t.block(&block);
            t.cert(Some(&*qc));
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
            "91e9b797d2e42b6de56365675a5becca305807bf46d35c5e9f6ebbe7b6c763a5",
        ),
        (
            4,
            RankMode::Opt,
            "aae0c030b9ce3bedd3451677407ee24ad0cc8cd3c5f9041ff0c0b8ed61fad0a9",
        ),
        (
            7,
            RankMode::Plain,
            "84a935f49a986ff2c391f7548e9d3ec4e379cec49aa4b5973da5adb9be496cda",
        ),
        (
            7,
            RankMode::Opt,
            "99ed1996195d99792d4a170573c8e8b9aa5e941aebd56d1dfe19d275e8b9b3f8",
        ),
        (
            16,
            RankMode::Plain,
            "e1f30d3f0893669fe94808c55b338dc833cf3c4dae84ec0d9965f423f2ad4e43",
        ),
        (
            16,
            RankMode::Opt,
            "afd1c6eee66ca92965beca324a7fd7757f31ea642f476953e1bf8586766a9459",
        ),
    ];
    for (n, mode, pin) in pins {
        assert_eq!(transcript(n, mode), pin, "n = {n}, {mode:?}");
    }
}
