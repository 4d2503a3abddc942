//! Criterion benches for wQasm printing, the last step of every compile.
//!
//! Prints a 100-variable `sc:eagle` program (a routed circuit, about
//! 3.5 MB of text) and a 250-variable `fpqa` program (annotated wQasm,
//! about 1.8 MB) through both the preserved `print_reference`
//! (allocate-and-join over a `Program` AST) and the direct printers
//! (`print_circuit` / `print` into one buffer), so a single run shows the
//! old-vs-new gap.

use criterion::{criterion_group, criterion_main, Criterion};
use weaver_core::{CompiledArtifact, Weaver, Workload};
use weaver_sat::generator;
use weaver_wqasm::convert::circuit_to_program;

fn compile(target: &str, vars: usize) -> CompiledArtifact {
    let formula = Workload::MaxSat(generator::instance(vars, 1));
    Weaver::new()
        .compile_workload_cached(target, &formula, None)
        .unwrap_or_else(|e| panic!("{target} compile of {vars} variables: {e:?}"))
        .artifact
}

fn bench_print(c: &mut Criterion) {
    let mut group = c.benchmark_group("print_wqasm");
    group.sample_size(10);

    let eagle = compile("sc:eagle", 100);
    let CompiledArtifact::Superconducting { circuit, .. } = &eagle else {
        panic!("sc:eagle yields a routed circuit");
    };
    assert_eq!(
        weaver_wqasm::print_circuit(circuit),
        weaver_wqasm::print_reference(&circuit_to_program(circuit)),
        "sc_eagle_100: printers disagree"
    );
    group.bench_function("sc_eagle_100/reference", |b| {
        b.iter(|| weaver_wqasm::print_reference(&circuit_to_program(circuit)))
    });
    group.bench_function("sc_eagle_100/direct", |b| {
        b.iter(|| weaver_wqasm::print_circuit(circuit))
    });

    let fpqa = compile("fpqa", 250);
    let CompiledArtifact::Fpqa(compiled) = &fpqa else {
        panic!("fpqa yields an annotated program");
    };
    let program = &compiled.program;
    assert_eq!(
        weaver_wqasm::print(program),
        weaver_wqasm::print_reference(program),
        "fpqa_250: printers disagree"
    );
    group.bench_function("fpqa_250/reference", |b| {
        b.iter(|| weaver_wqasm::print_reference(program))
    });
    group.bench_function("fpqa_250/direct", |b| {
        b.iter(|| weaver_wqasm::print(program))
    });
    group.finish();
}

criterion_group!(benches, bench_print);
criterion_main!(benches);
