//! # Weaver — a retargetable compiler framework for FPQA quantum architectures
//!
//! Rust implementation of the CGO'25 paper *"Weaver: A Retargetable Compiler
//! Framework for FPQA Quantum Architectures"* (Kırmemiş, Romão, Giortamis,
//! Bhatotia). This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`circuit`] | `weaver-circuit` | circuit IR, gate library, native synthesis |
//! | [`simulator`] | `weaver-simulator` | state vectors, unitaries, equivalence |
//! | [`wqasm`] | `weaver-wqasm` | the wQasm language (OpenQASM + FPQA annotations) |
//! | [`sat`] | `weaver-sat` | Max-3SAT workloads and QAOA construction |
//! | [`fpqa`] | `weaver-fpqa` | neutral-atom device model, pulses, noise |
//! | [`superconducting`] | `weaver-superconducting` | coupling maps, SABRE transpiler |
//! | [`core`] | `weaver-core` | wOptimizer, wQasm codegen, wChecker, pipeline |
//! | [`engine`] | `weaver-engine` | parallel batch compilation + artifact cache |
//! | [`obs`] | `weaver-obs` | span tracing, metrics registry, structured logging |
//! | [`baselines`] | `weaver-baselines` | Geyser, Atomique, DPQA baselines |
//!
//! # Quickstart
//!
//! Compile a Max-3SAT benchmark for an FPQA, verify it, and compare with the
//! superconducting path:
//!
//! ```
//! use weaver::prelude::*;
//!
//! // ≈ SATLIB uf20-01
//! let formula = Workload::MaxSat(weaver::sat::generator::instance(20, 1));
//! let compiler = Weaver::new();
//!
//! // FPQA path: wOptimizer + wQasm codegen, checked by the wChecker.
//! let fpqa = compiler.compile_workload_cached("fpqa", &formula, None).unwrap();
//! assert!(compiler.verify_workload(&fpqa, &formula, None).unwrap().passed());
//!
//! // Superconducting path: SABRE onto the 127-qubit IBM Washington model.
//! let sc = compiler
//!     .compile_workload_cached("superconducting", &formula, None)
//!     .unwrap();
//!
//! // The paper's headline: higher fidelity on the FPQA path.
//! assert!(fpqa.metrics.eps > sc.metrics.eps);
//! ```

#![warn(missing_docs)]

pub use weaver_baselines as baselines;
pub use weaver_circuit as circuit;
pub use weaver_core as core;
pub use weaver_engine as engine;
pub use weaver_fpqa as fpqa;
pub use weaver_obs as obs;
pub use weaver_sat as sat;
pub use weaver_simulator as simulator;
pub use weaver_superconducting as superconducting;
pub use weaver_wqasm as wqasm;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use weaver_baselines::{Atomique, BaselineOutput, Dpqa, FpqaCompiler, Geyser, Timeout};
    pub use weaver_circuit::{Circuit, Gate, NativeBasis};
    pub use weaver_core::{
        Backend, BackendRegistry, CacheHandle, CheckReport, CodegenOptions, CompileOutput,
        CompiledArtifact, Frontend, FrontendRegistry, Metrics, Weaver, Workload, WorkloadKind,
    };
    pub use weaver_engine::{CompileJob, Engine, EngineConfig};
    pub use weaver_fpqa::{FpqaDevice, FpqaParams, PulseOp, PulseSchedule};
    pub use weaver_sat::{generator, qaoa::QaoaParams, Formula};
    pub use weaver_superconducting::{CouplingMap, DeviceSpec, SuperconductingParams};
}
