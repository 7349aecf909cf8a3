//! Causality audit (§4.3, §6.4): measures the inter-block causal strength
//! of ISS, Mir and DQBFT vs Ladon under a straggler and explains the
//! front-running window that pre-determined ordering opens. The ISS row
//! stands for RCC too: RCC's lag-based leader removal is not modelled, so
//! its order is ISS's.
//!
//! A front-runner watches partially committed blocks. Under ISS, a
//! straggler's block is *assigned its global position before creation*, so
//! a transaction placed in it executes ahead of transactions that were
//! committed long before it existed — the attacker sees a victim's buy
//! order in a committed block and front-runs it from the straggler's slot.
//! Ladon's monotonic ranks force later-generated blocks after committed
//! ones, closing the window (CS = 1.0).
//!
//! ```sh
//! cargo run --release --example frontrunning_audit
//! ```

use ladon::types::{NetEnv, ProtocolKind};
use ladon::workload::{cs_fmt, run_experiment, ExperimentConfig};

fn main() {
    println!("n = 16, WAN, one straggler at 0.1 blocks/s (k = 10)\n");
    println!(
        "{:<10} {:>16} {:>24}",
        "protocol", "causal strength", "front-running exposure"
    );
    for proto in [
        ProtocolKind::IssPbft,
        ProtocolKind::MirPbft,
        ProtocolKind::DqbftPbft,
        ProtocolKind::LadonPbft,
    ] {
        let r = run_experiment(
            &ExperimentConfig::new(proto, 16, NetEnv::Wan)
                .duration_secs(10.0)
                .warmup_secs(5.0)
                .with_stragglers(1, 10.0),
        );
        // CS = e^(-N/n): recover the violation count per confirmed block.
        let violations_per_block = -r.causal_strength.ln();
        let exposure = if r.causal_strength >= 0.999 {
            "none (no violation pairs)".to_string()
        } else {
            format!("{violations_per_block:.2} violation pairs/block")
        };
        println!(
            "{:<10} {:>16} {:>24}",
            proto.label(),
            cs_fmt(r.causal_strength),
            exposure
        );
    }

    println!(
        "\nInterpretation: every violation pair is a block ordered *before* a block\n\
         that was already committed when it was generated — exactly the window a\n\
         front-runner needs (paper Fig. 1: block 4 executes before blocks 5-9).\n\
         Ladon's MR-Monotonicity makes the window empty by construction."
    );
}
