//! The batch-compilation job model: what to compile ([`JobSource`]), for
//! which backend ([`Target`]), under which options ([`JobOptions`]) — and
//! what came back ([`JobResult`]).

use std::fmt;
use std::path::PathBuf;
use weaver_core::cache::{fingerprint_fpqa_params, Digest, Fingerprint, COMPILER_VERSION};
use weaver_core::{CodegenOptions, Metrics, Weaver, Workload};
use weaver_fpqa::FpqaParams;
use weaver_sat::qaoa::QaoaParams;
use weaver_sat::Formula;

/// Compilation backend of a job: the canonical
/// [`weaver_core::backend::BackendRegistry`] name of a target. Built only
/// by [`Target::parse`] (or [`Target::default`], `fpqa`), which resolves
/// names and aliases through the registry, the whole `sc:*` device family
/// included (built-in devices and parameterized `sc:grid:<w>x<h>`
/// lattices), so two spellings of one target are always equal. The name is
/// the whole target identity: it selects the backend, and it participates
/// in the artifact key (see [`CompileJob::artifact_key`]), so two targets
/// never share a cache entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Target(String);

impl Target {
    /// CLI / JSONL name (the registry's primary key).
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Parses a CLI / manifest target name or alias into its canonical
    /// registry name; `sc:*` names (aliases like `sc:washington` included,
    /// and parameterized grids) canonicalize through their device spec.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.starts_with(weaver_superconducting::device::FAMILY_PREFIX) {
            // Canonicalize via the declarative spec alone — resolving
            // through the registry would mint a whole backend (whose
            // constructor eagerly builds the coupling map's all-pairs
            // distance table) just to read its name.
            let spec = weaver_superconducting::DeviceSpec::resolve(s)?;
            return Ok(Target(spec.full_name()));
        }
        let registry = weaver_core::BackendRegistry::global();
        let backend = registry
            .get(s)
            .ok_or_else(|| registry.unknown_target(s).message)?;
        Ok(Target(backend.info().name))
    }

    /// Feeds this target into an artifact key: `fpqa`, `superconducting`
    /// and `simulator` as the bare tags 1–3, every other name as tag 4
    /// followed by the name. Stored artifacts are keyed by these bytes, so
    /// the mapping must not change.
    fn fingerprint(&self, fp: &mut Fingerprint) {
        match self.name() {
            "fpqa" => fp.tag(1),
            "superconducting" => fp.tag(2),
            "simulator" => fp.tag(3),
            name => fp.tag(4).str(name),
        };
    }
}

impl Default for Target {
    fn default() -> Self {
        Target("fpqa".to_string())
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Checks a CCZ fidelity override: a probability, so in `[0, 1]`. Every
/// place a value enters (manifest lines, `weaverd` requests, `weaverc`
/// flags) checks it, so an out-of-range value is a typed input error and
/// never reaches [`FpqaParams::with_ccz_fidelity`]'s assertion.
///
/// # Errors
///
/// A message naming the value, for the caller to prefix with the field.
pub fn check_ccz_fidelity(value: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(format!("`{value}` is outside [0, 1]"))
    }
}

/// Per-job compiler options — the batch equivalent of the `weaverc` flags.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOptions {
    /// 3-qubit gate compression (§5.4).
    pub compression: bool,
    /// Parallel shuttle batching (Algorithm 2).
    pub parallel_shuttling: bool,
    /// DSatur clause coloring (off ⇒ first-fit greedy).
    pub dsatur: bool,
    /// CCZ fidelity override, in `[0, 1]` (see [`check_ccz_fidelity`]).
    pub ccz_fidelity: Option<f64>,
    /// QAOA γ.
    pub gamma: f64,
    /// QAOA β.
    pub beta: f64,
    /// Run the wChecker on FPQA output.
    pub check: bool,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            compression: true,
            parallel_shuttling: true,
            dsatur: true,
            ccz_fidelity: None,
            gamma: 0.7,
            beta: 0.3,
            check: false,
        }
    }
}

impl JobOptions {
    /// The FPQA parameters these options select.
    ///
    /// # Panics
    ///
    /// Panics if [`JobOptions::ccz_fidelity`] is outside `[0, 1]`.
    pub fn fpqa_params(&self) -> FpqaParams {
        let params = FpqaParams::default();
        match self.ccz_fidelity {
            Some(f) => params.with_ccz_fidelity(f),
            None => params,
        }
    }

    /// The compiler these options configure — the one mapping from job
    /// options to [`CodegenOptions`] and [`FpqaParams`], shared by the
    /// batch engine and `weaverc`'s single-shot mode so both emit the same
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if [`JobOptions::ccz_fidelity`] is outside `[0, 1]`.
    pub fn weaver(&self) -> Weaver {
        Weaver::new()
            .with_fpqa_params(self.fpqa_params())
            .with_options(CodegenOptions {
                compression: self.compression,
                parallel_shuttling: self.parallel_shuttling,
                dsatur: self.dsatur,
                qaoa: QaoaParams::single(self.gamma, self.beta),
                measure: true,
                ..CodegenOptions::default()
            })
    }
}

/// Where a job's workload comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSource {
    /// A workload file on disk, in any registered frontend format
    /// (`.cnf`/`.wcnf` DIMACS, `.mc` edge lists, `.wq` circuits, …).
    Path(PathBuf),
    /// An in-memory workload text (name is for reporting only). The format
    /// is resolved like a file's: [`CompileJob::frontend`] first, then
    /// content sniffing.
    Inline {
        /// Display name.
        name: String,
        /// Workload text in any registered frontend format.
        text: String,
    },
    /// An already parsed formula (name is for reporting only).
    Formula {
        /// Display name.
        name: String,
        /// The workload.
        formula: Formula,
    },
    /// An already parsed frontend workload (name is for reporting only).
    Workload {
        /// Display name.
        name: String,
        /// The workload.
        workload: Workload,
    },
}

/// One unit of batch work: workload source × target × options.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileJob {
    /// The workload.
    pub source: JobSource,
    /// Frontend to parse [`JobSource::Path`]/[`JobSource::Inline`] text
    /// with — a [`weaver_core::FrontendRegistry`] name or alias. `None`
    /// infers the format from the file extension, then content sniffing.
    pub frontend: Option<String>,
    /// The backend.
    pub target: Target,
    /// Compiler options.
    pub options: JobOptions,
}

impl CompileJob {
    /// An FPQA job for a workload file with default options.
    pub fn from_path(path: impl Into<PathBuf>) -> Self {
        CompileJob {
            source: JobSource::Path(path.into()),
            frontend: None,
            target: Target::default(),
            options: JobOptions::default(),
        }
    }

    /// An FPQA job for an in-memory formula with default options.
    pub fn from_formula(name: impl Into<String>, formula: Formula) -> Self {
        CompileJob {
            source: JobSource::Formula {
                name: name.into(),
                formula,
            },
            frontend: None,
            target: Target::default(),
            options: JobOptions::default(),
        }
    }

    /// An FPQA job for an already parsed frontend workload with default
    /// options (circuit workloads additionally need a circuit-capable
    /// [`Target`]).
    pub fn from_workload(name: impl Into<String>, workload: Workload) -> Self {
        CompileJob {
            source: JobSource::Workload {
                name: name.into(),
                workload,
            },
            frontend: None,
            target: Target::default(),
            options: JobOptions::default(),
        }
    }

    /// Display name used in results and JSONL records.
    pub fn name(&self) -> String {
        match &self.source {
            JobSource::Path(p) => p.display().to_string(),
            JobSource::Inline { name, .. }
            | JobSource::Formula { name, .. }
            | JobSource::Workload { name, .. } => name.clone(),
        }
    }

    /// Content-addressed artifact key of this job for `workload`:
    /// BLAKE2s-256 over the canonicalized workload, the target and its
    /// parameters, every option that can influence the artifact, and the
    /// compiler version. Targets other than the three core ones
    /// additionally hash their canonical name (which for devices encodes
    /// the topology, `sc:grid:4x5` included), so `sc:eagle` and `sc:heron`
    /// can never collide.
    ///
    /// # Panics
    ///
    /// Panics if [`JobOptions::ccz_fidelity`] is outside `[0, 1]`; the
    /// engine derives keys inside its panic boundary, so a job with such a
    /// value fails with a `compile` error instead. The
    /// workload *source* (file path vs inline) and the *frontend* that
    /// parsed it deliberately do not participate — identical content hits
    /// regardless of origin or format (a formula fed as `.cnf` and the
    /// same formula fed programmatically share one artifact).
    pub fn artifact_key(&self, workload: &Workload) -> Digest {
        let mut fp = Fingerprint::new();
        fp.tag(0xA7).str(COMPILER_VERSION);
        fp.bytes(&workload.canonical_bytes());
        self.target.fingerprint(&mut fp);
        fingerprint_fpqa_params(&mut fp, &self.options.fpqa_params());
        fp.bool(self.options.compression)
            .bool(self.options.parallel_shuttling)
            .bool(self.options.dsatur)
            .f64(self.options.gamma)
            .f64(self.options.beta)
            .bool(self.options.check);
        fp.digest()
    }
}

/// How the artifact cache participated in a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory tier.
    MemoryHit,
    /// Served from the on-disk tier.
    DiskHit,
    /// Compiled fresh and stored.
    Miss,
    /// Caching disabled for this run.
    Bypass,
}

impl CacheOutcome {
    /// JSONL name.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::MemoryHit => "memory_hit",
            CacheOutcome::DiskHit => "disk_hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }

    /// Whether the artifact was served without recompiling.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::MemoryHit | CacheOutcome::DiskHit)
    }
}

/// Wall-clock seconds spent in each stage of one job.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Reading + DIMACS parsing.
    pub parse_seconds: f64,
    /// Compilation (zero on a cache hit).
    pub compile_seconds: f64,
    /// wChecker verification (zero on a cache hit or when not requested).
    pub check_seconds: f64,
    /// End-to-end job time, including cache lookups.
    pub total_seconds: f64,
}

/// One lowering pass of the producing compile, with its wall-clock time and
/// work-step count, so cached artifacts round-trip through the disk tier.
///
/// This is the canonical [`weaver_obs::PassRecord`] under the engine's
/// historical name — the owned mirror of
/// [`weaver_core::backend::PassStat`] (which converts via `From<&PassStat>`)
/// with identical field names, keeping the `weaver-artifact` disk format
/// byte-stable.
pub type PassTiming = weaver_obs::PassRecord;

/// The cacheable output of one successful job. Wall-clock metrics inside
/// refer to the compile that produced the artifact, not to the lookup that
/// may have served it.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// The printed wQasm program.
    pub wqasm: String,
    /// Evaluation metrics of the producing compile.
    pub metrics: Metrics,
    /// Per-pass timing of the producing compile, in execution order (the
    /// `CompileOutput::passes` trace; preserved verbatim on cache hits).
    pub passes: Vec<PassTiming>,
    /// SWAPs inserted (superconducting only).
    pub swap_count: Option<usize>,
    /// Colors used by the clause coloring (FPQA only).
    pub num_colors: Option<usize>,
    /// wChecker verdict, when the job requested `--check`.
    pub check_passed: Option<bool>,
    /// wChecker findings (empty when passed or not checked).
    pub check_errors: Vec<String>,
}

/// Failure classification for structured one-line diagnostics. A wChecker
/// rejection is *not* a [`JobError`]: the compile produced an artifact, so
/// it flows through [`Artifact::check_passed`] `== Some(false)` instead
/// (and [`JobResult::succeeded`] reports it as a failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The workload file could not be read.
    Io,
    /// No registered frontend claims the workload (unknown `frontend=`
    /// name, unrecognized extension, and content sniffing failed).
    UnknownFormat,
    /// The workload text did not parse under its resolved frontend.
    Parse,
    /// The workload kind is one the target structurally rejects (a circuit
    /// sent to a formula-only backend like the FPQA wOptimizer).
    UnsupportedWorkload,
    /// Compilation failed (including internal panics, which the engine
    /// contains instead of aborting the batch).
    Compile,
}

impl JobErrorKind {
    /// JSONL / diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            JobErrorKind::Io => "io",
            JobErrorKind::UnknownFormat => "unknown-format",
            JobErrorKind::Parse => "parse",
            JobErrorKind::UnsupportedWorkload => "unsupported-workload",
            JobErrorKind::Compile => "compile",
        }
    }
}

/// A structured job failure.
#[derive(Clone, Debug, PartialEq)]
pub struct JobError {
    /// What went wrong.
    pub kind: JobErrorKind,
    /// One-line description.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.message)
    }
}

impl std::error::Error for JobError {}

/// Outcome of one job in a batch.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Index of the job in the submitted batch (results are returned in
    /// this order regardless of completion order).
    pub index: usize,
    /// Display name of the workload.
    pub name: String,
    /// The backend compiled for.
    pub target: Target,
    /// Hex artifact key (empty when the workload never parsed or the key
    /// could not be derived).
    pub key: String,
    /// Cache participation.
    pub cache: CacheOutcome,
    /// Per-stage wall-clock timings of *this* run.
    pub timings: StageTimings,
    /// The artifact (shared with the cache — a hit is served without
    /// copying the program text), or a structured error.
    pub artifact: Result<std::sync::Arc<Artifact>, JobError>,
}

impl JobResult {
    /// Whether the job produced an artifact (and, if checked, passed).
    pub fn succeeded(&self) -> bool {
        match &self.artifact {
            Ok(a) => a.check_passed != Some(false),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_sat::generator;

    #[test]
    fn artifact_key_is_content_addressed() {
        let f = generator::instance(20, 1);
        let w = Workload::MaxSat(f.clone());
        let by_formula = CompileJob::from_formula("a", f.clone());
        let by_inline = CompileJob {
            source: JobSource::Inline {
                name: "b".into(),
                text: weaver_sat::dimacs::to_string(&f),
            },
            ..by_formula.clone()
        };
        assert_eq!(
            by_formula.artifact_key(&w),
            by_inline.artifact_key(&w),
            "source origin must not affect the key"
        );
        let mut explicit = by_formula.clone();
        explicit.frontend = Some("dimacs".into());
        assert_eq!(
            by_formula.artifact_key(&w),
            explicit.artifact_key(&w),
            "the parsing frontend must not affect the key"
        );
    }

    #[test]
    fn artifact_key_separates_every_input() {
        let f = generator::instance(20, 1);
        let w = Workload::MaxSat(f.clone());
        let base = CompileJob::from_formula("a", f.clone());
        let key = base.artifact_key(&w);
        let other = Workload::MaxSat(generator::instance(20, 2));
        assert_ne!(key, base.artifact_key(&other));
        let mut sc = base.clone();
        sc.target = Target::parse("superconducting").unwrap();
        assert_ne!(key, sc.artifact_key(&w));
        let mut opts = base.clone();
        opts.options.gamma += 1e-12;
        assert_ne!(key, opts.artifact_key(&w));
        let mut ccz = base.clone();
        ccz.options.ccz_fidelity = Some(0.97);
        assert_ne!(key, ccz.artifact_key(&w));
        let mut check = base.clone();
        check.options.check = true;
        assert_ne!(key, check.artifact_key(&w));
    }

    #[test]
    fn artifact_key_separates_workload_kinds() {
        // A circuit and a formula can never share an artifact, even if
        // their canonical texts were to coincide byte-for-byte upstream.
        let f = generator::instance(10, 1);
        let job = CompileJob::from_formula("k", f.clone());
        let formula_key = job.artifact_key(&Workload::MaxSat(f));
        let program = weaver_wqasm::parse("qreg q[2];\nh q[0];\ncx q[0], q[1];\n").unwrap();
        let circuit_key = job.artifact_key(&Workload::Circuit(program));
        assert_ne!(formula_key, circuit_key);
    }

    #[test]
    fn target_parses_cli_names() {
        for (input, canonical) in [
            ("fpqa", "fpqa"),
            ("sc", "superconducting"),
            ("superconducting", "superconducting"),
            ("simulator", "simulator"),
            ("sim", "simulator"),
        ] {
            assert_eq!(Target::parse(input).unwrap().name(), canonical, "{input}");
        }
        assert_eq!(Target::default(), Target::parse("fpqa").unwrap());
        let err = Target::parse("ion-trap").unwrap_err();
        assert!(
            err.contains("known targets: fpqa, superconducting, simulator"),
            "{err}"
        );
    }

    #[test]
    fn target_parses_device_family_names() {
        for (input, canonical) in [
            ("sc:line", "sc:line"),
            ("sc:grid", "sc:grid"),
            ("sc:eagle", "sc:eagle"),
            ("sc:washington", "sc:eagle"),
            ("sc:heron", "sc:heron"),
            ("sc:grid:4x5", "sc:grid:4x5"),
        ] {
            let target = Target::parse(input).unwrap();
            assert_eq!(target.name(), canonical, "{input}");
            assert_eq!(target, Target::parse(canonical).unwrap());
        }
        for bad in ["sc:osprey", "sc:grid:0x4", "sc:grid:"] {
            let err = Target::parse(bad).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn artifact_key_separates_every_device() {
        let f = generator::instance(10, 1);
        let w = Workload::MaxSat(f.clone());
        let mut keys = std::collections::HashSet::new();
        for name in [
            "sc:line",
            "sc:grid",
            "sc:eagle",
            "sc:heron",
            "sc:grid:4x5",
            "sc:grid:5x4",
            "superconducting",
        ] {
            let target = Target::parse(name).unwrap();
            let mut job = CompileJob::from_formula("t", f.clone());
            job.target = target.clone();
            assert!(keys.insert(job.artifact_key(&w)), "{target} key collides");
        }
    }

    #[test]
    fn artifact_key_separates_all_targets() {
        let f = generator::instance(10, 1);
        let w = Workload::MaxSat(f.clone());
        let mut keys = std::collections::HashSet::new();
        for name in ["fpqa", "superconducting", "simulator"] {
            let target = Target::parse(name).unwrap();
            let mut job = CompileJob::from_formula("t", f.clone());
            job.target = target.clone();
            assert!(keys.insert(job.artifact_key(&w)), "{target} key collides");
        }
    }
}
