//! Frontend conformance suite: every registered front end honors the
//! `Frontend` contract (parse→print→parse roundtrips, position-carrying
//! errors), the new frontend path is a byte-identical superset of the old
//! DIMACS-only path (the differential proof for weight-1 workloads), and
//! mixed-frontend batches stay deterministic under the engine.

use std::path::Path;
use weaver::core::{BackendRegistry, FrontendRegistry, Weaver, Workload};
use weaver::engine::{discover_jobs, CompileJob, Engine, EngineConfig, JobOptions, Target};
use weaver::sat::dimacs;

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).to_path_buf()
}

fn read_fixture(name: &str) -> String {
    std::fs::read_to_string(fixtures_dir().join(name)).unwrap()
}

#[test]
fn every_frontend_roundtrips_through_its_printer() {
    let registry = FrontendRegistry::global();
    let samples = [
        ("dimacs", read_fixture("uf20-01.cnf")),
        ("dimacs", read_fixture("sample.wcnf")),
        ("maxcut", read_fixture("triangle.mc")),
        ("wqasm", read_fixture("bell.wq")),
    ];
    for (name, text) in &samples {
        let front = registry.get(name).expect(name);
        let workload = front.parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = front
            .print(&workload)
            .unwrap_or_else(|| panic!("{name} must print its own workloads"));
        let reparsed = front
            .parse(&printed)
            .unwrap_or_else(|e| panic!("{name} reparse: {e}\n{printed}"));
        assert_eq!(workload, reparsed, "{name}: parse→print→parse must fix");
        assert_eq!(
            workload.canonical_bytes(),
            reparsed.canonical_bytes(),
            "{name}: canonical bytes must survive the roundtrip"
        );
    }
}

#[test]
fn every_frontend_reports_positions_on_garbage() {
    let registry = FrontendRegistry::global();
    for (name, bad) in [
        ("dimacs", "p cnf 2 1\n1 99 0\n"),
        ("maxcut", "p mc 3 1\n1 1\n"),
        ("wqasm", "qreg q[2];\nh q[\n"),
    ] {
        let err = registry
            .get(name)
            .unwrap()
            .parse(bad)
            .map(|w| w.describe())
            .unwrap_err();
        assert_eq!(err.frontend, name);
        assert!(err.line > 0, "{name}: {err}");
        assert!(err.to_string().contains("line"), "{name}: {err}");
    }
}

/// The differential proof: every existing `.cnf` fixture compiles
/// byte-identically whether the formula takes the legacy path
/// (`dimacs::parse` + the backend's formula entry point `Backend::compile`)
/// or the frontend path (registry-resolved parse +
/// `Weaver::compile_workload_cached`), on every registered core target —
/// same wQasm, same metrics, same artifact key inputs.
#[test]
fn cnf_fixtures_compile_identically_through_the_frontend_path() {
    let registry = FrontendRegistry::global();
    let weaver = Weaver::new();
    let mut checked = 0;
    for entry in std::fs::read_dir(fixtures_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|x| x.to_str()) != Some("cnf") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let legacy = dimacs::parse(&text).unwrap();
        let front = registry.resolve(None, Some(&path), &text).unwrap();
        assert_eq!(front.info().name, "dimacs");
        let workload = front.parse(&text).unwrap();
        // Identical parse and identical cache-key bytes ⇒ identical
        // engine artifact keys for every pre-existing workload.
        assert_eq!(workload, Workload::MaxSat(legacy.clone()));
        assert_eq!(workload.canonical_bytes(), legacy.canonical_bytes());
        for target in ["fpqa", "superconducting", "simulator"] {
            let backend = BackendRegistry::global().resolve(target).unwrap();
            let old = backend.compile(&weaver, &legacy, None).unwrap();
            let new = weaver
                .compile_workload_cached(target, &workload, None)
                .unwrap();
            assert_eq!(
                old.artifact.print_wqasm(),
                new.artifact.print_wqasm(),
                "{}@{target}",
                path.display()
            );
            assert_eq!(old.metrics.eps, new.metrics.eps);
            assert_eq!(old.metrics.pulses, new.metrics.pulses);
            assert_eq!(old.metrics.motion_ops, new.metrics.motion_ops);
            assert_eq!(old.metrics.execution_micros, new.metrics.execution_micros);
        }
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} .cnf fixtures checked");
}

/// Weight-1 WCNF is byte-identical to plain CNF end to end: same formula,
/// same canonical bytes, same compiled artifact on every target.
#[test]
fn weight_one_wcnf_is_byte_identical_to_cnf() {
    let cnf = read_fixture("uf20-01.cnf");
    let front = FrontendRegistry::global().get("dimacs").unwrap();
    let plain = front.parse(&cnf).unwrap();
    let Workload::MaxSat(formula) = &plain else {
        panic!("dimacs produces formulas");
    };
    // Rewrite the same clauses as explicit weight-1 WCNF.
    let mut wcnf = format!(
        "p wcnf {} {} {}\n",
        formula.num_vars(),
        formula.num_clauses(),
        formula.hard_clause_weight()
    );
    for clause in formula.clauses() {
        wcnf.push('1');
        for lit in clause.lits() {
            wcnf.push_str(&format!(" {}", lit.to_dimacs()));
        }
        wcnf.push_str(" 0\n");
    }
    let weighted = front.parse(&wcnf).unwrap();
    assert_eq!(plain, weighted, "weight-1 clauses are unweighted clauses");
    assert_eq!(
        plain.canonical_bytes(),
        weighted.canonical_bytes(),
        "weight-1 canonical bytes gain no weights section"
    );
    let weaver = Weaver::new();
    for target in ["fpqa", "superconducting", "simulator"] {
        let a = weaver
            .compile_workload_cached(target, &plain, None)
            .unwrap();
        let b = weaver
            .compile_workload_cached(target, &weighted, None)
            .unwrap();
        assert_eq!(
            a.artifact.print_wqasm(),
            b.artifact.print_wqasm(),
            "{target}"
        );
        assert_eq!(a.metrics.eps, b.metrics.eps, "{target}");
    }
}

#[test]
fn distinct_workloads_get_distinct_artifact_keys() {
    let mut keys = std::collections::HashSet::new();
    for name in ["uf20-01.cnf", "sample.wcnf", "triangle.mc", "bell.wq"] {
        let path = fixtures_dir().join(name);
        let text = std::fs::read_to_string(&path).unwrap();
        let front = FrontendRegistry::global()
            .resolve(None, Some(&path), &text)
            .unwrap();
        let workload = front.parse(&text).unwrap();
        let job = CompileJob::from_workload(name, workload.clone());
        assert!(
            keys.insert(job.artifact_key(&workload)),
            "{name}: artifact key collides"
        );
    }
    // And a weighted variant of an unweighted formula re-keys.
    let unweighted = weaver::sat::generator::instance(10, 1);
    let weighted = weaver::sat::generator::weighted_instance(10, 1);
    let job = CompileJob::from_formula("w", unweighted.clone());
    assert_ne!(
        job.artifact_key(&Workload::MaxSat(unweighted)),
        job.artifact_key(&Workload::MaxSat(weighted))
    );
}

/// Mixed-frontend batches are deterministic: cold and warm runs, on one
/// worker and on four, all serve byte-identical artifacts per job, and
/// every workload keeps its own cache key.
#[test]
fn mixed_frontend_batches_are_deterministic() {
    let manifest = fixtures_dir().join("mixed-frontends.manifest");
    let jobs = discover_jobs(&manifest, Target::default(), &JobOptions::default()).unwrap();
    assert_eq!(jobs.len(), 8);

    let reference_engine = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    });
    let reference = reference_engine.run(jobs.clone());
    assert_eq!(
        reference.succeeded(),
        jobs.len(),
        "{:?}",
        reference
            .results
            .iter()
            .filter_map(|r| r.artifact.as_ref().err())
            .collect::<Vec<_>>()
    );
    assert_eq!(reference.cache_hits(), 0);

    for workers in [1, 4] {
        let engine = Engine::new(EngineConfig {
            jobs: workers,
            ..EngineConfig::default()
        });
        let cold = engine.run(jobs.clone());
        let warm = engine.run(jobs.clone());
        assert_eq!(cold.succeeded(), jobs.len(), "cold x{workers}");
        assert_eq!(warm.succeeded(), jobs.len(), "warm x{workers}");
        assert_eq!(warm.cache_hits(), jobs.len(), "warm x{workers} all hit");
        for ((r, c), w) in reference
            .results
            .iter()
            .zip(&cold.results)
            .zip(&warm.results)
        {
            let (ra, ca, wa) = (
                r.artifact.as_ref().unwrap(),
                c.artifact.as_ref().unwrap(),
                w.artifact.as_ref().unwrap(),
            );
            assert_eq!(ra.wqasm, ca.wqasm, "{} cold x{workers}", r.name);
            assert_eq!(ca.wqasm, wa.wqasm, "{} warm x{workers}", c.name);
            assert_eq!(r.key, c.key);
            assert_eq!(c.key, w.key);
        }
    }

    // Per-workload-distinct cache keys: jobs over different inputs (or the
    // same input on different targets) never share an artifact entry.
    let mut seen = std::collections::HashSet::new();
    for r in &reference.results {
        assert!(
            seen.insert(r.key.clone()),
            "{}: cache key collides in the mixed manifest",
            r.name
        );
    }
}

/// Circuits route only to circuit-capable targets inside the engine too:
/// an `fpqa` job over a `.wq` file fails structurally, without aborting
/// the rest of the batch.
#[test]
fn engine_rejects_circuits_on_formula_only_targets() {
    let mut circuit_job = CompileJob::from_path(fixtures_dir().join("bell.wq"));
    circuit_job.target = Target::parse("fpqa").unwrap();
    let good_job = CompileJob::from_path(fixtures_dir().join("uf20-01.cnf"));
    let engine = Engine::new(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    });
    let report = engine.run(vec![circuit_job, good_job]);
    assert_eq!(report.succeeded(), 1);
    let err = report.results[0].artifact.as_ref().unwrap_err();
    assert_eq!(err.kind.name(), "unsupported-workload");
    assert!(err.message.contains("circuit-capable"), "{err}");
    assert!(report.results[1].artifact.is_ok());
}
