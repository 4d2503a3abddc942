//! Retargeting one workload to every backend: the superconducting path
//! (SABRE onto IBM Washington) and four FPQA compilers (Weaver, Atomique,
//! Geyser, DPQA) — a miniature of the paper's evaluation tables.
//!
//! ```text
//! cargo run --release --example retarget_compare
//! ```

use weaver::prelude::*;

fn main() {
    let formula = generator::instance(20, 1);
    let workload = Workload::MaxSat(formula.clone());
    println!(
        "workload: uf20-01 ({} vars, {} clauses)\n",
        formula.num_vars(),
        formula.num_clauses()
    );
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "system", "compile [s]", "execute [s]", "EPS", "pulses", "motion"
    );

    let weaver = Weaver::new();

    // Every target is reached the same way: by name, through the
    // registry-dispatched pipeline.
    let compile = |target: &str| {
        weaver
            .compile_workload_cached(target, &workload, None)
            .unwrap_or_else(|e| panic!("{target}: {e}"))
    };

    // Superconducting path.
    let sc = compile("superconducting");
    print_row("Superconducting", &sc.metrics);
    println!(
        "    (SABRE inserted {} SWAPs on the heavy-hex map)",
        sc.artifact.swap_count().unwrap_or_default()
    );

    // Weaver's FPQA path.
    let fpqa = compile("fpqa");
    print_row("Weaver", &fpqa.metrics);
    let checked = weaver
        .verify_workload(&fpqa, &workload, None)
        .is_some_and(|report| report.passed());
    println!(
        "    ({} colors, wChecker: {})",
        fpqa.artifact.num_colors().unwrap_or_default(),
        if checked { "PASS" } else { "FAIL" }
    );

    // The ideal simulator target.
    match weaver.compile_workload_cached("simulator", &workload, None) {
        Ok(ideal) => {
            print_row("Simulator", &ideal.metrics);
            if let CompiledArtifact::Simulator(run) = &ideal.artifact {
                println!(
                    "    (ideal: {} of 2^{} basis states satisfy {} clauses)",
                    run.num_optimal,
                    formula.num_vars(),
                    run.max_satisfied
                );
            }
        }
        Err(e) => println!("{:<16} {}", "Simulator", e),
    }

    // Baselines.
    let params = FpqaParams::default();
    let baselines: Vec<Box<dyn FpqaCompiler>> = vec![
        Box::new(Atomique::new(params.clone())),
        Box::new(Geyser::new(params.clone())),
        Box::new(Dpqa::new(params.clone())),
    ];
    for compiler in &baselines {
        match compiler.compile(&formula) {
            Ok(out) => print_row(out.name, &out.metrics),
            Err(timeout) => println!("{:<16} {}", compiler.name(), timeout),
        }
    }

    // The paper's headline numbers for this workload size.
    let speedup = sc.metrics.compilation_seconds / fpqa.metrics.compilation_seconds;
    println!(
        "\nWeaver compiles {speedup:.1}x faster than the superconducting baseline \
         and reaches {:.1}x its EPS.",
        fpqa.metrics.eps / sc.metrics.eps.max(1e-300)
    );
}

fn print_row(name: &str, m: &Metrics) {
    println!(
        "{:<16} {:>12.4} {:>12.4} {:>10.2e} {:>8} {:>8}",
        name,
        m.compilation_seconds,
        m.execution_micros * 1e-6,
        m.eps,
        m.pulses,
        m.motion_ops
    );
}
