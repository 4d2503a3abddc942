//! The Weaver benchmark: two workloads against `weaver-engine`,
//! `weaver-core` and a real `weaverd`, timed end to end (`--trace 0`) or
//! split across the repository's layers (`--trace 1`).
//!
//! ```text
//! weaver-benchmark --workload sweep-cold|serve-hot --seed N
//!                  --seconds S --trace 0|1 [--weaverd PATH]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run's context (cores, build profile, seeds, sample counts,
//! quality values and step counts). The exit code is non-zero when any
//! output fails its correctness check.

mod daemon;
mod inputs;
mod layers;
mod quality;
mod report;
mod serve;
mod stats;
mod sweep;
mod verify;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "sweep-cold",
        "the paper's compile sweep without baselines, cache off: passes, printing, checker and simulator do the work; cache, store and server do none",
    ),
    (
        "serve-hot",
        "weaverd requests that are all in-memory hits: parse, key, lookup, record encoding and the socket dominate; the passes do no work",
    ),
];

/// Settings shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub weaverd: PathBuf,
    /// Per-run scratch directory inside the checkout (sockets, stores).
    pub work: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut weaverd = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--weaverd" => weaverd = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let weaverd = weaverd.unwrap_or_else(|| {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        Path::new(&target).join("release").join("weaverd")
    });
    let work = PathBuf::from(".bench_build").join(format!("wb-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        weaverd,
        work,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir<'a>(&'a Path);

impl Drop for WorkDir<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("weaver-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!(
            "weaver-benchmark: cannot create {}: {e}",
            ctx.work.display()
        );
        return ExitCode::from(2);
    }
    let _cleanup = WorkDir(&ctx.work);
    let result: Result<Report, String> = match (ctx.workload.as_str(), ctx.trace) {
        ("sweep-cold", false) => sweep::run(&ctx),
        ("serve-hot", false) => serve::run_hot(&ctx),
        (_, true) => layers::run(&ctx),
        _ => unreachable!("workload validated in parse_args"),
    };
    match result {
        Ok(report) => {
            report.print(&ctx);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("weaver-benchmark: {}: {e}", ctx.workload);
            ExitCode::from(2)
        }
    }
}
