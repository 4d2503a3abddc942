//! Quickstart: compile a SATLIB-style Max-3SAT benchmark for an FPQA,
//! verify the compiled program with the wChecker, and print the compiled
//! wQasm together with the paper's three metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use weaver::prelude::*;

fn main() {
    // uf20-01: 20 variables, 91 clauses at the SATLIB phase-transition
    // ratio (see weaver::sat::generator for the substitution note).
    let formula = generator::instance(20, 1);
    println!(
        "benchmark: uf20-01 — {} variables, {} clauses",
        formula.num_vars(),
        formula.num_clauses()
    );

    // Compile down the FPQA path: clause coloring → color shuttling →
    // 3-qubit gate compression → wQasm + pulse schedule.
    let weaver = Weaver::new();
    let workload = Workload::MaxSat(formula);
    let result = weaver
        .compile_workload_cached("fpqa", &workload, None)
        .expect("fpqa accepts every formula");
    let CompiledArtifact::Fpqa(compiled) = &result.artifact else {
        unreachable!("fpqa emits FPQA artifacts");
    };

    println!("\n--- metrics -------------------------------------------");
    println!(
        "compilation time : {:.4} s",
        result.metrics.compilation_seconds
    );
    println!(
        "execution time   : {:.4} s",
        result.metrics.execution_micros * 1e-6
    );
    println!("EPS              : {:.4}", result.metrics.eps);
    println!("laser pulses     : {}", result.metrics.pulses);
    println!("motion ops       : {}", result.metrics.motion_ops);
    println!("colors (stages)  : {}", compiled.coloring.num_colors);

    // Verify with the wChecker: every annotation is re-simulated on a fresh
    // device model and pulses are translated back to logical gates.
    let report = weaver
        .verify_workload(&result, &workload, None)
        .expect("fpqa has a checker");
    println!("\n--- wChecker ------------------------------------------");
    println!("pulses checked   : {}", report.pulses_checked);
    println!("motions checked  : {}", report.motions_checked);
    println!(
        "verdict          : {}",
        if report.passed() { "PASS" } else { "FAIL" }
    );
    assert!(report.passed(), "checker found: {:?}", report.errors);

    // The compiled program is ordinary wQasm text.
    let text = weaver::wqasm::print(&compiled.program);
    let head: String = text.lines().take(12).collect::<Vec<_>>().join("\n");
    println!(
        "\n--- compiled wQasm (first 12 lines of {}) ----",
        text.lines().count()
    );
    println!("{head}\n...");
}
