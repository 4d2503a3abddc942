//! wChecker in action (paper §6, Fig. 9): verify a compiled program, then
//! inject faults — a perturbed Raman angle, a corrupted shuttle offset, a
//! dropped Rydberg annotation — and watch the checker catch each one.
//!
//! ```text
//! cargo run --release --example equivalence_audit
//! ```

use weaver::core::checker;
use weaver::prelude::*;
use weaver::sat::qaoa;
use weaver::wqasm::{Annotation, Statement};

fn main() {
    let formula = generator::instance(8, 1);
    let weaver = Weaver::new();
    let output = weaver
        .compile_workload_cached("fpqa", &Workload::MaxSat(formula.clone()), None)
        .expect("fpqa accepts every formula");
    let CompiledArtifact::Fpqa(compiled) = &output.artifact else {
        unreachable!("fpqa emits FPQA artifacts");
    };
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let params = FpqaParams::default();

    // 1. The pristine program passes, including the full unitary check.
    let report = checker::check(&compiled.program, &params, Some(&reference));
    println!(
        "pristine program : {} ({} pulses, {} motions checked, unitary={})",
        verdict(report.passed()),
        report.pulses_checked,
        report.motions_checked,
        report.unitary_checked
    );
    assert!(report.passed());

    // 2. Perturb one Raman angle: the pulse no longer implements its u3.
    let mut mutated = compiled.program.clone();
    'outer: for stmt in &mut mutated.statements {
        if let Statement::GateCall { annotations, .. } = stmt {
            for a in annotations {
                if let Annotation::RamanLocal { z, .. } = a {
                    *z += 0.31;
                    break 'outer;
                }
            }
        }
    }
    let report = checker::check(&mutated, &params, Some(&reference));
    println!(
        "raman angle +0.31: {} — {}",
        verdict(!report.passed()),
        first_error(&report)
    );
    assert!(!report.passed());

    // 3. Corrupt a shuttle offset: atoms land on the wrong traps, so a
    //    later transfer or Rydberg group check must fail.
    let mut mutated = compiled.program.clone();
    'outer2: for stmt in &mut mutated.statements {
        if let Statement::GateCall { annotations, .. } = stmt {
            for a in annotations {
                if let Annotation::Shuttle { offset, .. } = a {
                    *offset += 12.0;
                    break 'outer2;
                }
            }
        }
    }
    let report = checker::check(&mutated, &params, Some(&reference));
    println!(
        "shuttle +12 µm   : {} — {}",
        verdict(!report.passed()),
        first_error(&report)
    );
    assert!(!report.passed());

    // 4. Drop a @rydberg annotation: its logical gate loses its physical
    //    realization.
    let mut mutated = compiled.program.clone();
    for stmt in &mut mutated.statements {
        if let Statement::GateCall { annotations, .. } = stmt {
            let before = annotations.len();
            annotations.retain(|a| !matches!(a, Annotation::Rydberg));
            if annotations.len() != before {
                break;
            }
        }
    }
    let report = checker::check(&mutated, &params, Some(&reference));
    println!(
        "dropped @rydberg : {} — {}",
        verdict(!report.passed()),
        first_error(&report)
    );
    assert!(!report.passed());

    println!("\nall three injected faults were caught by the wChecker");
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "detected as expected"
    } else {
        "NOT DETECTED"
    }
}

fn first_error(report: &weaver::core::CheckReport) -> String {
    report
        .errors
        .first()
        .map(|e| e.to_string())
        .unwrap_or_else(|| "no error recorded".to_string())
}
