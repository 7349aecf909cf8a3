//! `repro`: regenerates the paper's figures and tables in-process, one
//! [`ladon_bench::FIGURES`] entry after another, for a complete
//! paper-vs-measured record in one run.
//!
//! ```sh
//! cargo run --release -p ladon-bench --bin repro            # every figure, quick scale
//! cargo run --release -p ladon-bench --bin repro -- --figure fig5_scalability
//! LADON_SCALE=full cargo run --release -p ladon-bench --bin repro
//! ```
//!
//! `--figure <name>` may repeat; an unknown name fails and lists the
//! valid ones.

use ladon_bench::FIGURES;
use ladon_workload::scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    for (i, _) in args.iter().enumerate().filter(|(_, a)| *a == "--figure") {
        let name = args.get(i + 1).map(String::as_str).unwrap_or_default();
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
