//! Criterion benches behind Fig. 8 (compilation time): one benchmark per
//! system at the 20-variable size, plus Weaver's scaling across sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaver_baselines::{Atomique, Dpqa, FpqaCompiler, Geyser};
use weaver_core::{Weaver, Workload};
use weaver_fpqa::FpqaParams;
use weaver_sat::generator;

fn bench_compilation_uf20(c: &mut Criterion) {
    let f = generator::instance(20, 1);
    let workload = Workload::MaxSat(f.clone());
    let params = FpqaParams::default();
    let mut group = c.benchmark_group("fig8a_compile_uf20");
    group.sample_size(10);
    group.bench_function("weaver", |b| {
        let w = Weaver::new();
        b.iter(|| w.compile_workload_cached("fpqa", &workload, None).unwrap())
    });
    group.bench_function("superconducting", |b| {
        let w = Weaver::new();
        b.iter(|| {
            w.compile_workload_cached("superconducting", &workload, None)
                .unwrap()
        })
    });
    group.bench_function("atomique", |b| {
        let a = Atomique::new(params.clone());
        b.iter(|| a.compile(&f).unwrap())
    });
    group.bench_function("geyser", |b| {
        let g = Geyser::new(params.clone());
        b.iter(|| g.compile(&f).unwrap())
    });
    group.bench_function("dpqa", |b| {
        let d = Dpqa::new(params.clone());
        b.iter(|| d.compile(&f).unwrap())
    });
    group.finish();
}

fn bench_weaver_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8b_weaver_scaling");
    group.sample_size(10);
    for size in [20usize, 50, 75, 100] {
        let f = Workload::MaxSat(generator::instance(size, 1));
        group.bench_with_input(BenchmarkId::from_parameter(size), &f, |b, f| {
            let w = Weaver::new();
            b.iter(|| w.compile_workload_cached("fpqa", f, None).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compilation_uf20, bench_weaver_scaling);
criterion_main!(benches);
