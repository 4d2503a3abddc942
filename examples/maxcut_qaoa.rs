//! The paper's Fig. 1 worked example: solve max-cut on a small graph with
//! QAOA, end to end — ingest the graph through the `maxcut` frontend,
//! compile for the FPQA, simulate the logical circuit, and read the cut
//! out of the measurement distribution.
//!
//! ```text
//! cargo run --release --example maxcut_qaoa
//! ```

use weaver::prelude::*;
use weaver::sat::qaoa;

fn main() {
    // The 6-vertex graph of Fig. 1: a–b, a–c, b–d, c–d, c–e, d–f, e–f —
    // written exactly as a `.mc` edge-list file (1-based vertices). The
    // frontend lowers each edge (u, v) to the two clauses (u ∨ v) and
    // (¬u ∨ ¬v): a cut edge satisfies both, an uncut edge exactly one, so
    // maximizing satisfied clauses maximizes the cut.
    let vertices = ["a", "b", "c", "d", "e", "f"];
    let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)];
    let graph = "p mc 6 7\n1 2\n1 3\n2 4\n3 4\n3 5\n4 6\n5 6\n";

    let frontend = FrontendRegistry::global()
        .get("maxcut")
        .expect("the maxcut frontend is registered");
    let workload = frontend.parse(graph).expect("a well-formed edge list");
    let Workload::MaxSat(formula) = &workload else {
        panic!("the maxcut frontend produces formulas");
    };

    // Scan a small (γ, β) grid, exactly simulating the QAOA circuit.
    let mut best = (QaoaParams::single(0.7, 0.3), f64::MIN);
    for gi in 1..10 {
        for bi in 1..10 {
            let params = QaoaParams::single(gi as f64 * 0.15, bi as f64 * 0.15);
            let circuit = qaoa::build_circuit(formula, &params, false);
            let expectation = qaoa::expected_satisfied(formula, &circuit);
            if expectation > best.1 {
                best = (params, expectation);
            }
        }
    }
    let (params, expectation) = best;
    println!(
        "best (γ, β) = ({:.2}, {:.2}) with E[satisfied] = {:.3} of {}",
        params.layers[0].0,
        params.layers[0].1,
        expectation,
        formula.num_clauses()
    );

    // Read the most likely bitstring from the output distribution (Fig. 1c).
    let circuit = qaoa::build_circuit(formula, &params, false);
    let state = circuit.statevector();
    let probabilities = state.probabilities();
    let (bitstring, p) = probabilities
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty distribution");
    let n = formula.num_vars();
    let side_of = |v: usize| (bitstring >> (n - 1 - v)) & 1;
    let cut: usize = edges
        .iter()
        .filter(|&&(u, v)| side_of(u) != side_of(v))
        .count();
    println!(
        "most likely outcome: {bitstring:06b} (p = {p:.4}) cutting {cut} of {} edges",
        edges.len()
    );
    let partition: Vec<&str> = vertices
        .iter()
        .enumerate()
        .filter(|&(v, _)| side_of(v) == 1)
        .map(|(_, name)| *name)
        .collect();
    println!(
        "partition (Fig. 1d): {{{}}} vs the rest",
        partition.join(", ")
    );

    // And the same workload through the actual Weaver FPQA pipeline, via
    // the workload-level entry point.
    let weaver = Weaver::new();
    let output = weaver
        .compile_workload_cached("fpqa", &workload, None)
        .expect("the FPQA backend accepts any formula");
    let report = weaver
        .verify_workload(&output, &workload, None)
        .expect("the FPQA backend has a checker");
    println!(
        "\nFPQA compilation: {} pulses, {:.1} ms estimated execution, EPS {:.4}, checker: {}",
        output.metrics.pulses,
        output.metrics.execution_micros / 1000.0,
        output.metrics.eps,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    assert!(report.passed());
}
