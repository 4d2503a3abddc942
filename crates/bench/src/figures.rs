//! Figure and table regeneration (paper §8, Figs. 8–12 + Table 2).
//!
//! Every function renders one figure's data as an aligned text table whose
//! rows/series match the paper's plots; the `figures` binary prints them.
//!
//! The size-sweep figures (8, 10a/b, 11, 12) read their points from a
//! precompiled [`SizeSweep`] — one engine batch over the whole evaluation —
//! so regenerating several figures never recompiles a point twice and the
//! sweep parallelizes under `--jobs N`. The modes that need per-point
//! parameter or workload variations (`fig10c`'s fidelity sweep, `weighted`,
//! `graphs`, `devices`, `ablation`) still compile inline.

use crate::harness::{run_compiler, CompilerId, RunOutcome, Suite};
use crate::sweep::SizeSweep;
use weaver_core::{compress, BackendRegistry, CompiledArtifact, Weaver};
use weaver_fpqa::FpqaParams;
use weaver_sat::{generator, Formula};
use weaver_superconducting::DeviceSpec;

fn render_table(title: &str, header: Vec<String>, rows: Vec<Vec<String>>) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            line.push_str(cell);
            line.push_str(&" ".repeat(pad + 2));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(&header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(&row, &widths));
        out.push('\n');
    }
    out
}

fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (0.01..10_000.0).contains(&v.abs()) {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

/// Fig. 8a — compilation time in seconds for the ten fixed-size (20-variable)
/// benchmarks plus their mean.
pub fn fig8a(sweep: &SizeSweep) -> String {
    let suite = sweep.suite();
    let mut rows = Vec::new();
    let mut sums: Vec<(f64, usize)> = vec![(0.0, 0); CompilerId::ALL.len()];
    for variant in 1..=suite.variants {
        let mut row = vec![generator::instance_name(20, variant)];
        for (ci, id) in CompilerId::ALL.into_iter().enumerate() {
            let out = sweep.outcome(id, 20, variant);
            if let Some(m) = out.metrics() {
                sums[ci].0 += m.compilation_seconds.max(1e-300).ln();
                sums[ci].1 += 1;
            }
            row.push(out.cell(|m| sci(m.compilation_seconds)));
        }
        rows.push(row);
    }
    let mut mean = vec!["Mean".to_string()];
    for (acc, count) in sums {
        mean.push(if count == 0 {
            "✗".to_string()
        } else {
            sci((acc / count as f64).exp())
        });
    }
    rows.push(mean);
    let header = std::iter::once("benchmark".to_string())
        .chain(CompilerId::ALL.iter().map(|c| c.name().to_string()))
        .collect();
    render_table(
        "Figure 8(a): Compilation time [seconds], fixed-size 20-variable suite",
        header,
        rows,
    )
}

/// Fig. 8b — compilation time in seconds vs number of variables.
pub fn fig8b(sweep: &SizeSweep) -> String {
    metric_vs_size(
        sweep,
        "Figure 8(b): Compilation time [seconds] vs circuit size",
        &CompilerId::ALL,
        |m| m.compilation_seconds,
    )
}

/// Fig. 11a — execution time in seconds, fixed 20-variable suite.
pub fn fig11a(sweep: &SizeSweep) -> String {
    let mut rows = Vec::new();
    for variant in 1..=sweep.suite().variants {
        let mut row = vec![generator::instance_name(20, variant)];
        for id in CompilerId::ALL {
            let out = sweep.outcome(id, 20, variant);
            row.push(out.cell(|m| sci(m.execution_micros * 1e-6)));
        }
        rows.push(row);
    }
    let header = std::iter::once("benchmark".to_string())
        .chain(CompilerId::ALL.iter().map(|c| c.name().to_string()))
        .collect();
    render_table(
        "Figure 11(a): Execution time [seconds], fixed-size 20-variable suite",
        header,
        rows,
    )
}

/// Fig. 11b — execution time in seconds vs number of variables.
pub fn fig11b(sweep: &SizeSweep) -> String {
    metric_vs_size(
        sweep,
        "Figure 11(b): Execution time [seconds] vs circuit size",
        &CompilerId::ALL,
        |m| m.execution_micros * 1e-6,
    )
}

/// Fig. 12a — EPS, fixed 20-variable suite (Geyser excluded as in the
/// paper: its block approximation makes EPS computation unfair).
pub fn fig12a(sweep: &SizeSweep) -> String {
    let systems = [CompilerId::Atomique, CompilerId::Weaver, CompilerId::Dpqa];
    let mut rows = Vec::new();
    for variant in 1..=sweep.suite().variants {
        let mut row = vec![generator::instance_name(20, variant)];
        for id in systems {
            let out = sweep.outcome(id, 20, variant);
            row.push(out.cell(|m| sci(m.eps)));
        }
        rows.push(row);
    }
    let header = std::iter::once("benchmark".to_string())
        .chain(systems.iter().map(|c| c.name().to_string()))
        .collect();
    render_table(
        "Figure 12(a): Estimated probability of success, 20-variable suite",
        header,
        rows,
    )
}

/// Fig. 12b — EPS vs number of variables (all systems).
pub fn fig12b(sweep: &SizeSweep) -> String {
    metric_vs_size(
        sweep,
        "Figure 12(b): Estimated probability of success vs circuit size",
        &CompilerId::ALL,
        |m| m.eps,
    )
}

/// Fig. 10b — mean number of pulses vs size (FPQA systems only).
pub fn fig10b(sweep: &SizeSweep) -> String {
    let systems = [
        CompilerId::Atomique,
        CompilerId::Weaver,
        CompilerId::Geyser,
        CompilerId::Dpqa,
    ];
    metric_vs_size(
        sweep,
        "Figure 10(b): Number of pulses vs circuit size",
        &systems,
        |m| m.pulses as f64,
    )
}

/// Fig. 10a — compilation complexity: measured work steps vs size next to
/// the analytic classes of Table 2.
pub fn fig10a(sweep: &SizeSweep) -> String {
    let mut rows = Vec::new();
    for &size in &sweep.suite().sizes {
        let f = generator::instance(size, 1);
        let k = weaver_sat::qaoa::build_circuit(&f, &Default::default(), false).gate_count();
        let mut row = vec![size.to_string(), k.to_string()];
        for id in CompilerId::ALL {
            let out = sweep.outcome(id, size, 1);
            row.push(out.cell(|m| sci(m.steps as f64)));
        }
        // Analytic curves of Table 2 (up to constants).
        let n = size as f64;
        let kf = k as f64;
        row.push(sci(n * n * n)); // Qiskit / Atomique O(N³)
        row.push(sci(n * n)); // Weaver O(N²)
        row.push(sci(kf * kf)); // Geyser O(K²)
        row.push(format!("2^{k}")); // DPQA O(2^K)
        rows.push(row);
    }
    let header: Vec<String> = [
        "N",
        "K(gates)",
        "SC steps",
        "Atomique steps",
        "Weaver steps",
        "DPQA steps",
        "Geyser steps",
        "O(N^3)",
        "O(N^2)",
        "O(K^2)",
        "O(2^K)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    render_table(
        "Figure 10(a)/Table 2: Compilation complexity — measured steps and analytic classes",
        header,
        rows,
    )
}

/// Fig. 10c — EPS of each system at 20 variables as the hardware CCZ
/// fidelity sweeps upward; reports the threshold where Weaver overtakes
/// every baseline (paper: 0.9916).
pub fn fig10c(suite: &Suite) -> String {
    let sweep: Vec<f64> = (0..=19).map(|i| 0.980 + i as f64 * 0.001).collect();
    let systems = [
        CompilerId::Weaver,
        CompilerId::Atomique,
        CompilerId::Superconducting,
        CompilerId::Dpqa,
    ];
    let mut rows = Vec::new();
    let mut threshold: Option<f64> = None;
    for &fid in &sweep {
        let params = FpqaParams::default().with_ccz_fidelity(fid);
        let mut row = vec![format!("{fid:.4}")];
        let mut eps: Vec<Option<f64>> = Vec::new();
        for id in systems {
            // Mean EPS over the first 3 variants keeps the sweep fast while
            // preserving the crossover shape.
            let mut acc = 0.0;
            let mut count = 0;
            for variant in 1..=3.min(suite.variants) {
                let f = generator::instance(20, variant);
                if let RunOutcome::Done(m) = run_compiler(id, &f, &params) {
                    acc += m.eps.max(1e-300).ln();
                    count += 1;
                }
            }
            let value = (count > 0).then(|| (acc / count as f64).exp());
            eps.push(value);
            row.push(value.map_or("✗".into(), sci));
        }
        if threshold.is_none() {
            if let (Some(weaver), rest) = (eps[0], &eps[1..]) {
                if rest.iter().flatten().all(|&b| weaver > b) {
                    threshold = Some(fid);
                }
            }
        }
        rows.push(row);
    }
    let header = std::iter::once("CCZ fidelity".to_string())
        .chain(systems.iter().map(|c| c.name().to_string()))
        .collect();
    let mut out = render_table(
        "Figure 10(c): EPS vs CCZ gate fidelity (20-variable mean)",
        header,
        rows,
    );
    out.push_str(&match threshold {
        Some(t) => {
            format!("Weaver surpasses all baselines above CCZ fidelity ≈ {t:.4} (paper: 0.9916)\n")
        }
        None => "Weaver did not overtake every baseline within the sweep\n".to_string(),
    });
    out
}

/// Device-family comparison: the same 20-variable workloads routed onto
/// every `sc:*` device, reporting mean SWAP count, routed depth, 2-qubit
/// gate count, and EPS per device — how much each topology pays for its
/// connectivity under the identical QAOA lowering.
pub fn devices(suite: &Suite) -> String {
    let registry = BackendRegistry::global();
    let weaver = Weaver::new();
    let mut rows = Vec::new();
    for spec in DeviceSpec::builtin() {
        let backend = registry
            .resolve(&spec.full_name())
            .expect("built-in devices are registered");
        let (mut swaps, mut depth, mut gates2q, mut eps_ln) = (0usize, 0usize, 0usize, 0.0f64);
        let mut done = 0usize;
        for variant in 1..=suite.variants {
            let f = generator::instance(20, variant);
            let out = match backend.compile(&weaver, &f, None) {
                Ok(out) => out,
                Err(_) => continue,
            };
            if let CompiledArtifact::Superconducting {
                circuit,
                swap_count,
            } = &out.artifact
            {
                swaps += swap_count;
                depth += circuit.depth();
                gates2q += circuit.two_qubit_count();
                eps_ln += out.metrics.eps.max(1e-300).ln();
                done += 1;
            }
        }
        let mean = |acc: usize| {
            if done == 0 {
                "—".to_string()
            } else {
                format!("{:.1}", acc as f64 / done as f64)
            }
        };
        rows.push(vec![
            spec.full_name(),
            spec.num_qubits().to_string(),
            spec.native_two_qubit.name().to_string(),
            mean(swaps),
            mean(depth),
            mean(gates2q),
            if done == 0 {
                "—".to_string()
            } else {
                sci((eps_ln / done as f64).exp())
            },
        ]);
    }
    render_table(
        &format!(
            "Device family: uf20 x {} routed per sc:* device (means)",
            suite.variants
        ),
        vec![
            "device".into(),
            "qubits".into(),
            "2q gate".into(),
            "SWAPs".into(),
            "depth".into(),
            "2q count".into(),
            "EPS".into(),
        ],
        rows,
    )
}

/// Weighted-instance mode (`figures weighted`): the 20-variable suite with
/// deterministic per-clause weights from [`generator::weighted_instance`].
/// The clause structure matches the unweighted uf20 instances exactly, so
/// every EPS shift relative to Fig. 12(a) is attributable to the
/// weight-scaled QAOA phase polynomial — the wQasm front-end path that
/// WCNF inputs take.
pub fn weighted(suite: &Suite) -> String {
    let systems = [CompilerId::Atomique, CompilerId::Weaver, CompilerId::Dpqa];
    let mut rows = Vec::new();
    for variant in 1..=suite.variants {
        let f = generator::weighted_instance(20, variant);
        let soft: u64 = f.clauses().iter().map(|c| c.weight()).sum();
        let mut row = vec![
            format!("w{}", generator::instance_name(20, variant)),
            soft.to_string(),
        ];
        for id in systems {
            let out = run_compiler(id, &f, &suite.params);
            row.push(out.cell(|m| sci(m.eps)));
        }
        let out = run_compiler(CompilerId::Weaver, &f, &suite.params);
        row.push(out.cell(|m| m.pulses.to_string()));
        rows.push(row);
    }
    let header = ["benchmark", "Σ weight"]
        .iter()
        .map(|s| s.to_string())
        .chain(systems.iter().map(|c| c.name().to_string()))
        .chain(std::iter::once("Weaver pulses".to_string()))
        .collect();
    render_table(
        "Weighted mode: EPS on weighted uf20 instances (frontend: wcnf)",
        header,
        rows,
    )
}

/// Random-graph MaxCut mode (`figures graphs`): sparse random graphs from
/// [`generator::random_graph`], lowered through [`Formula::max_cut`] — the
/// exact encoding the `maxcut` frontend applies to `.mc` edge lists — and
/// swept over the suite's sizes on the systems that scale past 20
/// variables. One vertex per variable; each size uses `2N` edges (capped
/// at the number of distinct pairs), geometric-mean EPS over the suite's
/// variants as the seeds.
pub fn graphs(suite: &Suite) -> String {
    let systems = [
        CompilerId::Superconducting,
        CompilerId::Atomique,
        CompilerId::Weaver,
    ];
    let mut rows = Vec::new();
    for &size in &suite.sizes {
        let num_edges = (2 * size).min(size * (size - 1) / 2);
        let mut row = vec![format!("G({size}, {num_edges})")];
        for id in systems {
            let mut acc = 0.0f64;
            let mut done = 0usize;
            for variant in 1..=suite.variants {
                let edges = generator::random_graph(size, num_edges, variant as u64);
                let f = Formula::max_cut(size, &edges);
                if let RunOutcome::Done(m) = run_compiler(id, &f, &suite.params) {
                    acc += m.eps.max(1e-300).ln();
                    done += 1;
                }
            }
            row.push(if done == 0 {
                "—".to_string()
            } else {
                sci((acc / done as f64).exp())
            });
        }
        rows.push(row);
    }
    let header = std::iter::once("graph".to_string())
        .chain(systems.iter().map(|c| c.name().to_string()))
        .collect();
    render_table(
        "Random-graph MaxCut: EPS vs graph size (frontend: maxcut)",
        header,
        rows,
    )
}

/// Table 2 — compilation complexity classes (static, from the paper).
pub fn table2() -> String {
    render_table(
        "Table 2: Compilation complexity comparison",
        vec!["Compiler".into(), "Computational complexity".into()],
        vec![
            vec!["Qiskit".into(), "O(N^3)".into()],
            vec!["Atomique".into(), "O(N^3)".into()],
            vec!["Geyser".into(), "O(K^2)".into()],
            vec!["DPQA".into(), "O(2^K)".into()],
            vec!["Weaver".into(), "O(N^2)".into()],
        ],
    )
}

/// Shared size-sweep rendering over the precompiled batch.
fn metric_vs_size(
    sweep: &SizeSweep,
    title: &str,
    systems: &[CompilerId],
    metric: impl Fn(&weaver_core::Metrics) -> f64 + Copy,
) -> String {
    let mut rows = Vec::new();
    for &size in &sweep.suite().sizes {
        let mut row = vec![size.to_string()];
        for &id in systems {
            row.push(match sweep.mean_at_size(id, size, metric) {
                Some(v) => sci(v),
                None => "✗".to_string(),
            });
        }
        rows.push(row);
    }
    let header = std::iter::once("variables".to_string())
        .chain(systems.iter().map(|c| c.name().to_string()))
        .collect();
    render_table(title, header, rows)
}

/// Ablation summary (DESIGN.md §6): DSatur vs first-fit, compression
/// on/off, parallel shuttling on/off — at 20 variables.
pub fn ablation(suite: &Suite) -> String {
    use weaver_core::{CodegenOptions, Workload};
    let f = Workload::MaxSat(generator::instance(20, 1));
    let configs: Vec<(&str, CodegenOptions)> = vec![
        ("full wOptimizer", CodegenOptions::default()),
        (
            "first-fit coloring",
            CodegenOptions {
                dsatur: false,
                ..CodegenOptions::default()
            },
        ),
        (
            "no compression",
            CodegenOptions {
                compression: false,
                ..CodegenOptions::default()
            },
        ),
        (
            "sequential shuttles",
            CodegenOptions {
                parallel_shuttling: false,
                ..CodegenOptions::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, options) in configs {
        let weaver = Weaver::new()
            .with_fpqa_params(suite.params.clone())
            .with_options(options);
        let out = weaver
            .compile_workload_cached("fpqa", &f, None)
            .expect("fpqa accepts every formula");
        rows.push(vec![
            name.to_string(),
            sci(out.metrics.compilation_seconds),
            sci(out.metrics.execution_micros * 1e-6),
            sci(out.metrics.eps),
            out.metrics.pulses.to_string(),
            out.metrics.motion_ops.to_string(),
        ]);
    }
    render_table(
        "Ablation (uf20-01): wOptimizer pass contributions",
        vec![
            "configuration".into(),
            "compile [s]".into(),
            "execute [s]".into(),
            "EPS".into(),
            "pulses".into(),
            "motion".into(),
        ],
        rows,
    )
}

/// The compression-threshold formula check behind Fig. 10c.
pub fn threshold_summary() -> String {
    let params = FpqaParams::default();
    format!(
        "Pulse-only compression threshold: f_ccz > f_cz^4 = {:.4} (f_cz = {:.3});\n\
         with motion savings included, compression is beneficial at f_ccz = {:.3}: {}\n",
        compress::compression_threshold(params.fidelity_cz),
        params.fidelity_cz,
        params.fidelity_ccz,
        compress::compression_beneficial(&params, 30.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Suite {
        Suite {
            sizes: vec![20],
            variants: 2,
            params: FpqaParams::default(),
        }
    }

    #[test]
    fn fig8a_renders_all_systems() {
        let s = Suite {
            sizes: vec![20],
            variants: 1,
            params: FpqaParams::default(),
        };
        let sweep = SizeSweep::run(&s, 1);
        let text = fig8a(&sweep);
        for name in [
            "Superconducting",
            "Atomique",
            "Weaver",
            "DPQA",
            "Geyser",
            "Mean",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn fig10b_has_pulse_numbers() {
        let sweep = SizeSweep::run(&tiny_suite(), 1);
        let text = fig10b(&sweep);
        assert!(text.contains("pulses"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn weighted_mode_renders_every_variant() {
        let s = Suite {
            sizes: vec![20],
            variants: 2,
            params: FpqaParams::default(),
        };
        let text = weighted(&s);
        assert!(text.contains("wuf20-01"), "{text}");
        assert!(text.contains("wuf20-02"), "{text}");
        assert!(text.contains("Σ weight"), "{text}");
        assert!(!text.contains('✗'), "weighted uf20 must compile:\n{text}");
    }

    #[test]
    fn graphs_mode_sweeps_sizes() {
        let s = Suite {
            sizes: vec![8, 12],
            variants: 2,
            params: FpqaParams::default(),
        };
        let text = graphs(&s);
        assert!(text.contains("G(8, 16)"), "{text}");
        assert!(text.contains("G(12, 24)"), "{text}");
        assert!(text.contains("Weaver"), "{text}");
    }

    #[test]
    fn table2_is_static() {
        let text = table2();
        assert!(text.contains("O(N^2)"));
        assert!(text.contains("Weaver"));
    }

    #[test]
    fn ablation_renders() {
        let text = ablation(&tiny_suite());
        assert!(text.contains("full wOptimizer"));
        assert!(text.contains("no compression"));
    }

    #[test]
    fn threshold_summary_mentions_formula() {
        let text = threshold_summary();
        assert!(text.contains("f_cz^4"));
    }
}
