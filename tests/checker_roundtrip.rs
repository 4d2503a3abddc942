//! The wChecker workflow of paper Fig. 9, plus randomized fault injection:
//! every mutation of a valid program must either be caught by the checker
//! or be semantically harmless (which the unitary check decides).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weaver::core::{checker, CompiledFpqa};
use weaver::prelude::*;
use weaver::sat::{qaoa, Formula};
use weaver::wqasm::{Annotation, Statement};

/// Compiles `formula` down the FPQA path.
fn compile_fpqa_program(formula: &Formula) -> CompiledFpqa {
    let output = Weaver::new()
        .compile_workload_cached("fpqa", &Workload::MaxSat(formula.clone()), None)
        .expect("fpqa accepts every formula");
    let CompiledArtifact::Fpqa(compiled) = output.artifact else {
        panic!("fpqa emits FPQA artifacts");
    };
    compiled
}

fn compile_small(variant: usize) -> (Formula, CompiledFpqa) {
    // 8 variables keeps the full unitary check in play.
    let formula = weaver::sat::generator::instance(8, variant);
    let compiled = compile_fpqa_program(&formula);
    (formula, compiled)
}

#[test]
fn fig9_style_reconstruction() {
    let (formula, result) = compile_small(1);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let report = checker::check(&result.program, &FpqaParams::default(), Some(&reference));
    assert!(report.passed(), "{:?}", report.errors);

    // Pulse-to-gate output contains the CZ/CCZ gates the Rydberg pulses
    // implement, reconstructed purely from simulated atom positions.
    let reconstructed = report.reconstructed.expect("reconstruction");
    let ccz_count = reconstructed
        .instructions()
        .filter(|i| i.gate == weaver::circuit::Gate::Ccz)
        .count();
    let three_lit_clauses = formula
        .clauses()
        .iter()
        .filter(|c| c.lits().len() == 3)
        .count();
    assert_eq!(
        ccz_count,
        2 * three_lit_clauses,
        "two CCZ per 3-literal clause (the compression gadget)"
    );
}

#[test]
fn random_angle_perturbations_are_caught() {
    let (formula, result) = compile_small(2);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let mut rng = StdRng::seed_from_u64(11);
    let mut caught = 0;
    let mut attempts = 0;
    for _ in 0..12 {
        let mut program = result.program.clone();
        // Pick a random raman-local annotation and perturb one angle.
        let mut raman_positions = Vec::new();
        for (si, stmt) in program.statements.iter().enumerate() {
            if let Statement::GateCall { annotations, .. } = stmt {
                for (ai, a) in annotations.iter().enumerate() {
                    if matches!(a, Annotation::RamanLocal { .. }) {
                        raman_positions.push((si, ai));
                    }
                }
            }
        }
        if raman_positions.is_empty() {
            break;
        }
        let (si, ai) = raman_positions[rng.gen_range(0..raman_positions.len())];
        let delta = rng.gen_range(0.2..1.0_f64) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        if let Statement::GateCall { annotations, .. } = &mut program.statements[si] {
            if let Annotation::RamanLocal { x, .. } = &mut annotations[ai] {
                *x += delta;
            }
        }
        attempts += 1;
        let report = checker::check(&program, &FpqaParams::default(), Some(&reference));
        if !report.passed() {
            caught += 1;
        }
    }
    assert!(attempts > 0);
    assert_eq!(
        caught, attempts,
        "every angle perturbation ≥ 0.2 rad must be caught"
    );
}

#[test]
fn transfer_index_corruption_is_caught() {
    let (formula, result) = compile_small(3);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let mut program = result.program.clone();
    let mut corrupted = false;
    for stmt in &mut program.statements {
        if let Statement::GateCall { annotations, .. } = stmt {
            for a in annotations {
                if let Annotation::Transfer { slm_index, .. } = a {
                    *slm_index += 1; // wrong trap
                    corrupted = true;
                    break;
                }
            }
        }
        if corrupted {
            break;
        }
    }
    assert!(corrupted);
    let report = checker::check(&program, &FpqaParams::default(), Some(&reference));
    assert!(!report.passed());
}

#[test]
fn swapped_rydberg_operands_still_pass() {
    // CZ/CCZ are symmetric: permuting operand order in the *statement* must
    // NOT trip the checker (sets are compared, not sequences).
    let (formula, result) = compile_small(4);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let mut program = result.program.clone();
    for stmt in &mut program.statements {
        if let Statement::GateCall { name, qubits, .. } = stmt {
            if (name == "cz" || name == "ccz") && qubits.len() >= 2 {
                qubits.reverse();
            }
        }
    }
    let report = checker::check(&program, &FpqaParams::default(), Some(&reference));
    assert!(report.passed(), "{:?}", report.errors);
}

#[test]
fn checker_complexity_matches_program_size() {
    // §6: O(N²·M) — more clauses means proportionally more checks, and the
    // checker must stay fast enough to run on every compilation.
    let small = compile_fpqa_program(&weaver::sat::generator::instance(8, 1));
    let large = compile_fpqa_program(&weaver::sat::generator::instance(20, 1));
    let r_small = checker::check(&small.program, &FpqaParams::default(), None);
    let r_large = checker::check(&large.program, &FpqaParams::default(), None);
    assert!(r_small.passed() && r_large.passed());
    assert!(r_large.pulses_checked > r_small.pulses_checked);
    assert!(r_large.motions_checked > r_small.motions_checked);
}
