//! Differential suite for the `Backend` trait refactor (ISSUE 4 acceptance
//! criteria): trait-dispatched compilation through the `BackendRegistry`
//! must be byte-identical to the pre-refactor direct call paths for both
//! original targets — the wQasm text for FPQA, the routed circuit's program
//! text for superconducting — and identical in every deterministic
//! `Metrics` field. The pre-refactor paths are reconstructed inline here
//! from the same building blocks the pre-registry FPQA and superconducting
//! compile bodies used.

use weaver::core::backend::{BackendRegistry, CompileOutput, CompiledArtifact};
use weaver::core::{codegen, coloring, compress, plan, CodegenOptions, Metrics, Weaver, Workload};
use weaver::sat::{generator, qaoa, Formula};
use weaver::superconducting::CouplingMap;

/// The deterministic `Metrics` fields (everything but wall-clock time).
fn stable_metrics(m: &Metrics) -> (u64, u64, usize, usize, u64) {
    (
        m.execution_micros.to_bits(),
        m.eps.to_bits(),
        m.pulses,
        m.motion_ops,
        m.steps,
    )
}

/// The pre-refactor FPQA path, inlined: layout from device parameters, the
/// §5.4 compression profitability gate, the coloring the options select,
/// then direct codegen.
fn direct_fpqa(weaver: &Weaver, formula: &Formula) -> (String, Metrics) {
    let mut options = weaver.options.clone();
    options.layout = plan::SiteLayout::for_params(&weaver.fpqa_params);
    let typical_move = options.layout.home_spacing;
    if options.compression && !compress::compression_beneficial(&weaver.fpqa_params, typical_move) {
        options.compression = false;
    }
    let coloring = if options.dsatur {
        coloring::color_clauses(formula)
    } else {
        coloring::greedy_first_fit(&coloring::conflict_graph(formula))
    };
    let compiled = codegen::compile_formula_with_coloring_cached(
        formula,
        &weaver.fpqa_params,
        &options,
        coloring,
        None,
    );
    let metrics = Metrics::for_schedule(
        &compiled.schedule,
        &weaver.fpqa_params,
        formula.num_vars(),
        0.0,
        compiled.steps,
    );
    (weaver::wqasm::print(&compiled.program), metrics)
}

/// The pre-refactor superconducting path, inlined: QAOA lowering + SABRE
/// transpilation, program text via the circuit converter.
/// Compiles `formula` for `target` through the registry.
fn compile(weaver: &Weaver, target: &str, formula: &Formula) -> CompileOutput {
    weaver
        .compile_workload_cached(target, &Workload::MaxSat(formula.clone()), None)
        .unwrap_or_else(|e| panic!("{target}: {e}"))
}

fn direct_superconducting(weaver: &Weaver, formula: &Formula) -> (String, usize, Metrics) {
    let circuit = qaoa::build_circuit(formula, &weaver.options.qaoa, weaver.options.measure);
    let result = weaver::superconducting::transpile(
        &circuit,
        &CouplingMap::ibm_washington(),
        &weaver.superconducting_params,
    )
    .expect("washington holds the uf20 workloads");
    let program = weaver::wqasm::convert::circuit_to_program(&result.circuit);
    let metrics = Metrics::for_transpiled(&result, 0.0);
    (weaver::wqasm::print(&program), result.swap_count, metrics)
}

#[test]
fn fpqa_dispatch_is_byte_identical_to_direct_path() {
    for variant in 1..=3 {
        let formula = generator::instance(20, variant);
        let weaver = Weaver::new();
        let (expected_qasm, expected_metrics) = direct_fpqa(&weaver, &formula);
        let output = compile(&weaver, "fpqa", &formula);
        let CompiledArtifact::Fpqa(compiled) = &output.artifact else {
            panic!("fpqa artifact expected");
        };
        assert_eq!(
            weaver::wqasm::print(&compiled.program),
            expected_qasm,
            "uf20-{variant:02}: registry wQasm must match the direct path byte for byte"
        );
        assert_eq!(
            stable_metrics(&output.metrics),
            stable_metrics(&expected_metrics),
            "uf20-{variant:02}"
        );
    }
}

#[test]
fn fpqa_dispatch_matches_under_nondefault_options() {
    let formula = generator::instance(20, 4);
    let weaver = Weaver::new()
        .with_fpqa_params(weaver::fpqa::FpqaParams::default().with_ccz_fidelity(0.90))
        .with_options(CodegenOptions {
            compression: true, // gated off by the low CCZ fidelity
            dsatur: false,
            qaoa: qaoa::QaoaParams::single(0.9, 0.2),
            ..CodegenOptions::default()
        });
    let (expected_qasm, expected_metrics) = direct_fpqa(&weaver, &formula);
    let output = compile(&weaver, "fpqa", &formula);
    let CompiledArtifact::Fpqa(compiled) = &output.artifact else {
        panic!("fpqa artifact expected");
    };
    assert_eq!(weaver::wqasm::print(&compiled.program), expected_qasm);
    assert_eq!(
        stable_metrics(&output.metrics),
        stable_metrics(&expected_metrics)
    );
}

#[test]
fn superconducting_dispatch_is_byte_identical_to_direct_path() {
    for variant in 1..=3 {
        let formula = generator::instance(20, variant);
        let weaver = Weaver::new();
        let (expected_qasm, expected_swaps, expected_metrics) =
            direct_superconducting(&weaver, &formula);
        let output = compile(&weaver, "superconducting", &formula);
        let CompiledArtifact::Superconducting {
            circuit,
            swap_count,
        } = &output.artifact
        else {
            panic!("superconducting artifact expected");
        };
        let program = weaver::wqasm::convert::circuit_to_program(circuit);
        assert_eq!(
            weaver::wqasm::print(&program),
            expected_qasm,
            "uf20-{variant:02}: registry circuit must match the direct path byte for byte"
        );
        assert_eq!(*swap_count, expected_swaps, "uf20-{variant:02}");
        assert_eq!(
            stable_metrics(&output.metrics),
            stable_metrics(&expected_metrics),
            "uf20-{variant:02}"
        );
    }
}

#[test]
fn simulator_target_compiles_through_the_registry() {
    let formula = generator::instance(10, 1);
    let weaver = Weaver::new();
    let output = compile(&weaver, "simulator", &formula);
    let CompiledArtifact::Simulator(run) = &output.artifact else {
        panic!("simulator artifact expected");
    };
    assert!(run.optimal_probability > 0.0 && run.optimal_probability <= 1.0);
    assert_eq!(output.metrics.eps, run.optimal_probability);
    assert!(run.max_satisfied <= formula.num_clauses() as u64);
    // The alias resolves to the same backend and the run is deterministic.
    let aliased = compile(&weaver, "sim", &formula);
    assert_eq!(
        stable_metrics(&aliased.metrics),
        stable_metrics(&output.metrics)
    );
    // The emitted program is plain OpenQASM (no pulse annotations).
    let program = output.artifact.to_program();
    assert_eq!(program.pulse_count(), 0);
    let text = weaver::wqasm::print(&program);
    assert!(text.contains("OPENQASM"));
    // The ideal EPS matches an independent exhaustive computation.
    let circuit = qaoa::build_circuit(&formula, &weaver.options.qaoa, false);
    let state = circuit.statevector();
    let best = (0..state.dim())
        .map(|i| formula.count_satisfied_by_index(i))
        .max()
        .unwrap();
    let expected: f64 = state
        .probabilities()
        .iter()
        .enumerate()
        .filter(|(i, _)| formula.count_satisfied_by_index(*i) == best)
        .map(|(_, p)| p)
        .sum();
    assert_eq!(run.max_satisfied, best as u64);
    assert!((run.optimal_probability - expected).abs() < 1e-12);
}

#[test]
fn every_pass_is_named_and_instrumented() {
    let formula = generator::instance(10, 2);
    let weaver = Weaver::new();
    let registry = BackendRegistry::global();
    for backend in registry.backends() {
        let declared = backend.passes();
        let output = backend.compile(&weaver, &formula, None).unwrap();
        let ran: Vec<&str> = output.passes.iter().map(|p| p.name).collect();
        assert_eq!(ran, declared, "{}", backend.info().name);
        assert!(
            output.passes.iter().any(|p| p.steps > 0),
            "{}: at least one pass reports steps",
            backend.info().name
        );
    }
}

#[test]
fn unknown_targets_are_structured_errors() {
    let formula = Workload::MaxSat(generator::instance(10, 1));
    let err = Weaver::new()
        .compile_workload_cached("ion-trap", &formula, None)
        .unwrap_err();
    assert_eq!(
        err.kind,
        weaver::core::backend::BackendErrorKind::UnknownTarget
    );
    assert!(
        err.message
            .contains("known targets: fpqa, superconducting, simulator"),
        "{}",
        err.message
    );
}
