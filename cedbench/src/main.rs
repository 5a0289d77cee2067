//! `cedbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the root of a checkout and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`. The line before it records what was measured
//! (source hash, git state, sample counts). Exits non-zero without a
//! result line when the run cannot be set up.

use ced_runtime::Json;
use cedbench::metrics::result_line;
use cedbench::stamp::stamp;
use cedbench::workloads::{run, Sizes, Workload};
use std::path::Path;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or("--seconds needs a positive integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cedbench: {e}");
            eprintln!("usage: cedbench --workload table1-batch|edit-loop|serve-mix --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let root = Path::new(".");
    // One scratch directory per workload, emptied before set-up, so
    // every run starts from the same state and disk use stays bounded.
    let dir = root.join(".bench_run").join(args.workload.name());
    if let Err(e) = clear(&dir) {
        eprintln!("cedbench: cannot empty {}: {e}", dir.display());
        std::process::exit(1);
    }
    let outcome = run(
        args.workload,
        args.seed,
        &Sizes::for_seconds(args.seconds),
        args.trace,
        &dir,
    );
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("cedbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    if let Some(trace) = &out.trace {
        let path = dir.join(format!("trace-{}.json", args.seed));
        if let Err(e) = std::fs::write(&path, trace.render()) {
            eprintln!("cedbench: cannot write {}: {e}", path.display());
        }
    }
    let mut info = vec![
        ("schema".to_string(), Json::str("cedbench-run/1")),
        ("workload".to_string(), Json::str(args.workload.name())),
        ("seed".to_string(), Json::UInt(args.seed)),
        ("seconds".to_string(), Json::UInt(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("tree".to_string(), stamp(root)),
    ];
    info.extend(out.notes.iter().cloned());
    println!("{}", Json::Object(info).render());
    println!(
        "{}",
        result_line(
            out.tally.failed == 0,
            out.tally.attempted,
            out.tally.failed,
            &out.values
        )
    );
}

/// Removes `dir` and everything under it, then creates it empty. The
/// removal is committed to disk (an fsync of the parent directory)
/// before returning, so its disk work does not spill into the run.
fn clear(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(dir)?;
    let parent = dir.parent().unwrap_or(Path::new("."));
    std::fs::File::open(parent)?.sync_all()
}
