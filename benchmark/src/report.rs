//! The result of one run and its two output lines.

use crate::Ctx;
use std::collections::BTreeMap;
use weaver_engine::jsonl::{escape, JsonObject};

/// Failures kept verbatim for the log; the rest are only counted.
const KEEP_FAILURES: usize = 20;

#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in output order.
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// Context recorded on the line before the result.
    info: BTreeMap<String, String>,
    /// Wall seconds of each stage, in run order.
    stages: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one checked operation; `Err` is a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(e);
            }
        }
    }

    /// Records a context value (already JSON-encoded).
    pub fn info(&mut self, key: &str, json: String) {
        self.info.insert(key.to_string(), json);
    }

    /// Records how long an untimed or timed stage of the run took.
    pub fn stage(&mut self, name: &str, since: std::time::Instant) {
        self.stages
            .push((name.to_string(), since.elapsed().as_secs_f64()));
    }

    pub fn merge_counts(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(f);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    pub fn print(&self, ctx: &Ctx) {
        for f in &self.failures {
            eprintln!("weaver-benchmark: FAILED: {f}");
        }
        let why = crate::WORKLOADS
            .iter()
            .find(|(name, _)| *name == ctx.workload)
            .map_or("", |(_, why)| why);
        let mut info = JsonObject::new()
            .str("workload", &ctx.workload)
            .str("why", why)
            .u64("seed", ctx.seed)
            .raw("seconds", &num(ctx.seconds))
            .bool("trace", ctx.trace)
            .u64("nproc", ctx.nproc as u64)
            .str(
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            )
            .str(
                "commit",
                &std::env::var("WEAVER_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
            )
            .raw(
                "failed_ratio",
                &num(self.failed as f64 / self.attempted.max(1) as f64),
            );
        info = info.raw(
            "stage_seconds",
            &num_map(self.stages.iter().map(|(k, v)| (k.as_str(), *v))),
        );
        for (key, json) in &self.info {
            info = info.raw(key, json);
        }
        let units = self
            .metrics
            .iter()
            .map(|(name, _, unit)| format!("\"{}\":\"{unit}\"", escape(name)))
            .collect::<Vec<_>>()
            .join(",");
        info = info.raw("units", &format!("{{{units}}}"));
        println!(
            "{}",
            JsonObject::new()
                .raw("weaver_benchmark", &info.finish())
                .finish()
        );

        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    escape(name),
                    num(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (never valid) print as 0 and fail the run via
/// [`Report::correct`].
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON object of numbers.
pub fn num_map<'a>(entries: impl IntoIterator<Item = (&'a str, f64)>) -> String {
    let body = entries
        .into_iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), num(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

/// A JSON array of numbers.
pub fn num_list(values: &[f64]) -> String {
    format!(
        "[{}]",
        values.iter().map(|v| num(*v)).collect::<Vec<_>>().join(",")
    )
}
