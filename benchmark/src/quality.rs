//! Output quality of a fixed, seed-derived set of jobs, and the
//! determinism check on it: the same job must give exactly the same
//! wQasm, quality values and pass step counts however often, and by
//! whichever path (in-process or `weaverd`), it is compiled.
//!
//! The set is four instances of every slice plus 32 instances of
//! `fpqa_20`. EPS is taken at 20 FPQA variables only: the program's EPS
//! is a product of gate fidelities in `f64` and reads exactly 0 at 250
//! FPQA variables and at 50 or more `sc:eagle` variables, and above 20
//! variables one instance's EPS differs from the next by orders of
//! magnitude, so no geometric mean over them is steady from seed to
//! seed. `sc:eagle` quality is therefore the SWAP count routing adds.

use crate::inputs::{slice_index, Item, Kind, SLICES};
use crate::report::{num_map, Report};
use crate::stats::geomean;
use crate::verify::check_result;
use std::collections::BTreeMap;
use std::sync::Arc;
use weaver_engine::{Artifact, Engine, EngineConfig};

/// Instance stream of the quality set.
const STREAM_QUALITY: u64 = 3;
/// Instances per slice in the set.
const PER_SLICE: u64 = 4;
/// `fpqa_20` instances behind `fpqa_eps_geomean`.
const EPS_INSTANCES: u64 = 32;

/// The quality set of a run.
pub fn items(seed: u64) -> Vec<Item> {
    let fpqa_20 = slice_index("fpqa_20");
    let mut items = Vec::new();
    for (si, _) in SLICES.iter().enumerate() {
        let n = if si == fpqa_20 {
            EPS_INSTANCES
        } else {
            PER_SLICE
        };
        items.extend((0..n).map(|i| Item::new(seed, STREAM_QUALITY, si, i)));
    }
    items
}

/// What must repeat exactly for one job.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub slice: usize,
    pub exec_us: f64,
    pub eps: f64,
    pub swaps: Option<usize>,
    /// `(pass name, steps)` in execution order.
    pub steps: Vec<(String, u64)>,
    /// Content hash of the wQasm text.
    pub wqasm: u64,
}

impl Fingerprint {
    pub fn of(slice: usize, artifact: &Artifact) -> Fingerprint {
        Fingerprint {
            slice,
            exec_us: artifact.metrics.execution_micros,
            eps: artifact.metrics.eps,
            swaps: artifact.swap_count,
            steps: artifact
                .passes
                .iter()
                .map(|p| (p.name.clone(), p.steps))
                .collect(),
            wqasm: crate::verify::content_hash(artifact.wqasm.as_bytes()),
        }
    }
}

#[derive(Default)]
pub struct Quality {
    items: BTreeMap<String, Fingerprint>,
}

impl Quality {
    pub fn add(&mut self, name: &str, fingerprint: Fingerprint) {
        self.items.insert(name.to_string(), fingerprint);
    }

    /// `pick` over the first `limit` instances of the slices `slice` accepts.
    fn values(
        &self,
        slice: impl Fn(usize) -> bool,
        limit: u64,
        pick: impl Fn(&Fingerprint) -> f64,
    ) -> Vec<f64> {
        self.items
            .iter()
            .filter(|(name, f)| slice(f.slice) && index_of(name) < limit)
            .map(|(_, f)| pick(f))
            .collect()
    }

    pub fn fpqa_exec_us_geomean(&self) -> f64 {
        geomean(&self.values(|s| SLICES[s].kind == Kind::Fpqa, PER_SLICE, |f| f.exec_us))
    }

    pub fn fpqa_eps_geomean(&self) -> f64 {
        let fpqa_20 = slice_index("fpqa_20");
        geomean(&self.values(|s| s == fpqa_20, EPS_INSTANCES, |f| f.eps))
    }

    pub fn sc_eagle_swaps_geomean(&self) -> f64 {
        geomean(&self.values(
            |s| SLICES[s].kind == Kind::ScEagle,
            PER_SLICE,
            |f| f.swaps.unwrap_or(0) as f64,
        ))
    }

    /// Compares against a second compile of the same set; every job
    /// counts as one checked operation.
    pub fn compare(&self, again: &Quality, what: &str, report: &mut Report) {
        for (name, first) in &self.items {
            report.check(match again.items.get(name) {
                Some(second) if second == first => Ok(()),
                Some(second) => Err(format!("{name} differs {what}: {first:?} then {second:?}")),
                None => Err(format!("{name} missing {what}")),
            });
        }
    }

    /// Records the quality values and the step counts summed per slice
    /// and pass in the run's context line.
    pub fn record(&self, report: &mut Report) {
        let mut steps: BTreeMap<String, f64> = BTreeMap::new();
        for f in self.items.values() {
            for (pass, n) in &f.steps {
                *steps
                    .entry(format!("{}.{pass}", SLICES[f.slice].name))
                    .or_default() += *n as f64;
            }
        }
        let sc_20 = slice_index("sc_eagle_20");
        report.info("quality_set_size", self.items.len().to_string());
        report.info(
            "quality",
            num_map([
                ("fpqa_exec_us_geomean", self.fpqa_exec_us_geomean()),
                ("fpqa_eps_geomean", self.fpqa_eps_geomean()),
                ("sc_eagle_swaps_geomean", self.sc_eagle_swaps_geomean()),
                (
                    "sc_eagle_20_eps_geomean",
                    geomean(&self.values(|s| s == sc_20, PER_SLICE, |f| f.eps)),
                ),
            ]),
        );
        report.info(
            "steps",
            num_map(steps.iter().map(|(k, v)| (k.as_str(), *v))),
        );
    }

    /// The three quality metrics, in output order.
    pub fn emit(&self, report: &mut Report) {
        report.metric("fpqa_exec_us_geomean", self.fpqa_exec_us_geomean(), "us");
        report.metric("fpqa_eps_geomean", self.fpqa_eps_geomean(), "probability");
        report.metric(
            "sc_eagle_swaps_geomean",
            self.sc_eagle_swaps_geomean(),
            "count",
        );
    }
}

/// The instance index encoded in an item name (`<slice>-s<stream>-i<index>`).
fn index_of(name: &str) -> u64 {
    name.rsplit_once("-i")
        .and_then(|(_, i)| i.parse().ok())
        .unwrap_or(u64::MAX)
}

/// Compiles `items` in-process with the artifact cache off, checks every
/// output, and returns their quality with the artifacts in item order.
pub fn compile(
    nproc: usize,
    items: &[Item],
    report: &mut Report,
) -> (Quality, Vec<Option<Arc<Artifact>>>) {
    let engine = Engine::new(EngineConfig {
        jobs: nproc,
        use_cache: false,
        ..EngineConfig::default()
    });
    let batch = engine.run(items.iter().map(Item::job).collect());
    let mut quality = Quality::default();
    let mut artifacts = Vec::with_capacity(items.len());
    for (r, item) in batch.results.iter().zip(items) {
        let artifact = check_result(item, r, report);
        if let Some(a) = artifact {
            quality.add(&item.name, Fingerprint::of(item.slice, a));
        }
        artifacts.push(artifact.cloned());
    }
    (quality, artifacts)
}
