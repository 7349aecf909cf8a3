//! `ladon-benchmark`: the repo's wall-clock benchmark.
//!
//! ```text
//! ladon-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! ladon-benchmark compare A B
//! ```
//!
//! `run --workload W` measures one workload in this process and prints
//! every metric by name with its unit; its last line of standard output
//! is the result as one JSON object. Without `--workload` every workload
//! runs, each in a fresh child process of this binary (clean allocator,
//! clean `VmHWM`): the end-to-end pass, then the traced pass, unless
//! `--trace` picks one. See `README.md` beside the manifest.

mod alloc;
mod check;
mod compare;
mod drives;
mod durable;
mod meta;
mod procstat;
mod run;
mod sim;
mod spec;
mod stats;
mod trace;

use ladon_obs::Json;
use run::RunResult;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where trace files, scratch WAL directories and child reports go:
/// `out/` beside the manifest, inside the checkout and git-ignored.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage:
  ladon-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
  ladon-benchmark compare A B    (each a report file or a directory of report files)";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: both passes (all-workloads mode) or the end-to-end pass.
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a file")?)),
            "--trace" => {
                parsed.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if let Some(w) = &parsed.workload {
        if !spec::WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    Ok(parsed)
}

fn print_result(r: &RunResult) {
    println!(
        "== {} seed {} {} ({} repetitions)",
        r.workload,
        r.seed,
        if r.traced {
            "per-layer, traced"
        } else {
            "end-to-end"
        },
        r.reps
    );
    for m in &r.metrics {
        if m.min == m.max {
            println!("{:<42} {:>16.6} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "{:<42} {:>16.6} {:<7} (repetitions {:.6} .. {:.6})",
                m.name, m.value, m.unit, m.min, m.max
            );
        }
    }
    for (k, v) in &r.notes {
        println!("   {k}: {}", v.render());
    }
    println!(
        "   ops_attempted: {}  ops_failed: {}",
        r.attempted, r.failed
    );
    for v in &r.violations {
        println!("VIOLATION {v}");
    }
}

fn write_report(path: &Path, seed: u64, seconds: f64, runs: Vec<Json>) -> Result<(), String> {
    let doc = Json::Obj(vec![
        ("meta".into(), meta::meta(seed, seconds)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process. The last line printed is the result.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let result = run::run_workload(workload, args.seed, args.seconds, args.trace == Some(true))?;
    print_result(&result);
    if let Some(out) = &args.out {
        write_report(out, args.seed, args.seconds, vec![result.report_json()])?;
    }
    println!("{}", result.contract_json().render());
    Ok(result.correct())
}

/// Every workload, each pass in a fresh child process of this binary.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &traced in passes {
        for &(workload, _) in spec::WORKLOADS {
            let part = out_dir().join(format!("part-{}-{workload}.json", std::process::id()));
            let status = Command::new(&exe)
                .args(["run", "--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&part);
            let _ = std::fs::remove_file(&part);
            let doc = Json::parse(&text.map_err(|e| format!("{workload} wrote no report: {e}"))?)?;
            runs.extend(
                doc.get("runs")
                    .and_then(Json::items)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
        }
    }
    if let Some(out) = &args.out {
        write_report(out, args.seed, args.seconds, runs)?;
        println!("report written to {}", out.display());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&a, &w),
            None => run_all(&a),
        }),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
