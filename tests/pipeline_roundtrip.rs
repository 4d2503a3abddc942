//! Cross-crate integration: formula → QAOA → Weaver FPQA compilation →
//! wQasm print/parse → wChecker → unitary equivalence, end to end.

use weaver::core::CompiledFpqa;
use weaver::prelude::*;
use weaver::sat::{qaoa, Clause, Formula, Lit};

/// Compiles `formula` down the FPQA path, returning the output and its
/// FPQA artifact.
fn fpqa(weaver: &Weaver, formula: &Workload) -> (CompileOutput, CompiledFpqa) {
    let output = weaver
        .compile_workload_cached("fpqa", formula, None)
        .expect("fpqa accepts every formula");
    let CompiledArtifact::Fpqa(compiled) = output.artifact.clone() else {
        panic!("fpqa emits FPQA artifacts");
    };
    (output, compiled)
}

/// Runs the wChecker on an FPQA output.
fn check(weaver: &Weaver, output: &CompileOutput, formula: &Workload) -> CheckReport {
    weaver
        .verify_workload(output, formula, None)
        .expect("fpqa has a checker")
}

fn paper_formula() -> Formula {
    // The running example of paper Fig. 5.
    Formula::new(
        6,
        vec![
            Clause::new(vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)]),
            Clause::new(vec![Lit::pos(3), Lit::neg(4), Lit::pos(5)]),
            Clause::new(vec![Lit::pos(2), Lit::pos(4), Lit::neg(5)]),
        ],
    )
}

#[test]
fn fpqa_compile_verify_roundtrip() {
    let formula = paper_formula();
    let weaver = Weaver::new();
    let (_, result) = fpqa(&weaver, &Workload::MaxSat(formula.clone()));

    // Printing and reparsing is stable after one round (the parser may
    // legally re-attach standalone setup annotations to the next gate) and
    // passes static semantics.
    let text = weaver::wqasm::print(&result.program);
    let reparsed = weaver::wqasm::parse(&text).expect("reparse");
    let text2 = weaver::wqasm::print(&reparsed);
    let reparsed2 = weaver::wqasm::parse(&text2).expect("reparse twice");
    assert_eq!(reparsed2, reparsed, "print/parse must be idempotent");
    assert_eq!(reparsed.pulse_count(), result.program.pulse_count());
    assert_eq!(reparsed.motion_count(), result.program.motion_count());
    assert!(weaver::wqasm::semantics::validate(&reparsed, &Default::default()).is_empty());

    // wChecker accepts the reparsed text program too.
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let report = weaver::core::checker::check(&reparsed, &FpqaParams::default(), Some(&reference));
    assert!(report.passed(), "{:?}", report.errors);
    assert!(report.unitary_checked);
}

#[test]
fn logical_circuit_equals_qaoa_reference() {
    let formula = paper_formula();
    let weaver = Weaver::new();
    let (_, result) = fpqa(&weaver, &Workload::MaxSat(formula.clone()));
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    // Drop measurements for the unitary comparison.
    let logical = &result.logical;
    let e = weaver::simulator::equiv::compare(&logical.unitary(), &reference.unitary(), 1e-8);
    assert!(e.is_equivalent(), "{e:?}");
}

#[test]
fn retargeting_both_paths_same_workload() {
    let formula = Workload::MaxSat(generator::instance(20, 5));
    let weaver = Weaver::new();
    let (fpqa, _) = fpqa(&weaver, &formula);
    // `superconducting` routes onto the IBM Washington heavy-hex map.
    let sc = weaver
        .compile_workload_cached("superconducting", &formula, None)
        .unwrap();
    // Paper headline directions at 20 variables.
    assert!(fpqa.metrics.eps > sc.metrics.eps, "FPQA fidelity advantage");
    assert!(
        sc.metrics.execution_micros < fpqa.metrics.execution_micros,
        "superconducting gates are faster"
    );
    assert!(check(&weaver, &fpqa, &formula).passed());
}

#[test]
fn all_uf20_variants_compile_and_check() {
    let weaver = Weaver::new();
    for variant in 1..=10 {
        let formula = Workload::MaxSat(generator::instance(20, variant));
        let (result, _) = fpqa(&weaver, &formula);
        let report = check(&weaver, &result, &formula);
        assert!(
            report.passed(),
            "uf20-{variant:02} failed: {:?}",
            report.errors
        );
        assert!(result.metrics.eps > 0.0);
    }
}

#[test]
fn larger_sizes_compile_without_check_reference() {
    let weaver = Weaver::new();
    for &size in &[50usize, 75] {
        let formula = Workload::MaxSat(generator::instance(size, 1));
        let (result, _) = fpqa(&weaver, &formula);
        // Pulse/motion-level verification still runs (no unitary at 50+).
        let report = check(&weaver, &result, &formula);
        assert!(report.passed(), "size {size}: {:?}", report.errors);
        assert!(!report.unitary_checked);
    }
}

#[test]
fn ablation_directions_hold() {
    let formula = Workload::MaxSat(generator::instance(20, 1));
    let (base, base_compiled) = fpqa(&Weaver::new(), &formula);

    // Sequential shuttles cost execution time.
    let (seq, _) = fpqa(
        &Weaver::new().with_options(CodegenOptions {
            parallel_shuttling: false,
            ..CodegenOptions::default()
        }),
        &formula,
    );
    assert!(seq.metrics.execution_micros > base.metrics.execution_micros);

    // First-fit coloring never uses fewer colors than DSatur.
    let (_, greedy) = fpqa(
        &Weaver::new().with_options(CodegenOptions {
            dsatur: false,
            ..CodegenOptions::default()
        }),
        &formula,
    );
    assert!(greedy.coloring.num_colors >= base_compiled.coloring.num_colors);

    // Disabling compression removes all CCZ pulses.
    let (_, ladder) = fpqa(
        &Weaver::new().with_options(CodegenOptions {
            compression: false,
            ..CodegenOptions::default()
        }),
        &formula,
    );
    let has_ccz =
        ladder.schedule.ops().iter().any(
            |o| matches!(o, PulseOp::Rydberg { groups } if groups.iter().any(|g| g.len() == 3)),
        );
    assert!(!has_ccz);
}
