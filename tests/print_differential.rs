//! Differential suite for the one-buffer wQasm printers: `print_circuit`
//! and `print` must emit exactly the bytes of the preserved
//! allocate-and-join printer (`print_reference`) — on random circuits and
//! programs that cover every gate, statement and annotation kind and the
//! float formatting edge cases, and on every fixture compiled for every
//! target family. Circuit workloads hash printed text into their artifact
//! keys, so the keys of the circuit fixtures are pinned too.

use proptest::prelude::*;
use std::path::Path;
use weaver::circuit::{Circuit, Gate, Instruction, Operation};
use weaver::core::frontend::{FrontendRegistry, Workload};
use weaver::core::Weaver;
use weaver::engine::{CompileJob, JobOptions, JobSource, Target};
use weaver::wqasm::ast::{Annotation, BindTarget, Program, QubitRef, ShuttleAxis, Statement};
use weaver::wqasm::convert::circuit_to_program;
use weaver::wqasm::{print, print_circuit, print_reference};

// ---- floats -----------------------------------------------------------------

/// Values where `{:.1}` and shortest-representation printing meet: signed
/// zero, integers at and above the 1e15 switch, subnormals, non-finite
/// values, and sums whose shortest text is long.
const EDGE_FLOATS: [f64; 28] = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    0.5,
    1e15 - 1.0,
    -(1e15 - 1.0),
    1e15,
    -1e15,
    1e15 + 2.0,
    1e16,
    9_007_199_254_740_993.0,
    1e21,
    1e22,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MIN_POSITIVE / 3.0,
    0.1 + 0.2,
    0.1,
    1e-7,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    std::f64::consts::PI,
    -std::f64::consts::FRAC_PI_2,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..EDGE_FLOATS.len()).prop_map(|i| EDGE_FLOATS[i]),
        (0..u64::MAX).prop_map(f64::from_bits),
        -4.0f64..4.0,
        (0u64..2_000_000).prop_map(|n| n as f64 - 1e6),
    ]
}

fn arb_f64s(max: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(arb_f64(), 0..max)
}

// ---- circuits ---------------------------------------------------------------

fn gate(kind: usize, p: &[f64], cnz: usize) -> Gate {
    match kind {
        0 => Gate::X,
        1 => Gate::Y,
        2 => Gate::Z,
        3 => Gate::H,
        4 => Gate::S,
        5 => Gate::Sdg,
        6 => Gate::T,
        7 => Gate::Tdg,
        8 => Gate::Rx(p[0]),
        9 => Gate::Ry(p[0]),
        10 => Gate::Rz(p[0]),
        11 => Gate::P(p[0]),
        12 => Gate::U3(p[0], p[1], p[2]),
        13 => Gate::Cx,
        14 => Gate::Cz,
        15 => Gate::Crz(p[0]),
        16 => Gate::Swap,
        17 => Gate::Ccx,
        18 => Gate::Ccz,
        _ => Gate::CnZ(cnz),
    }
}

/// One operation: a gate of every variant (kinds 0–19), a measurement
/// (20) or an empty (21) or non-empty (22) barrier. Operands are the
/// distinct run `base, base + 1, …` modulo `num_qubits` (at least 6).
fn arb_op(num_qubits: usize) -> impl Strategy<Value = Operation> {
    (
        (0..23usize, 0..5usize),
        (arb_f64(), arb_f64(), arb_f64()),
        0..num_qubits,
        1..7usize,
    )
        .prop_map(move |((kind, cnz), (a, b, c), base, barrier)| {
            let qubits: Vec<usize> = (0..6).map(|i| (base + i) % num_qubits).collect();
            match kind {
                20 => Operation::Measure(qubits[0]),
                21 => Operation::Barrier(Vec::new()),
                22 => Operation::Barrier(qubits[..barrier].to_vec()),
                _ => {
                    let g = gate(kind, &[a, b, c], cnz);
                    let arity = g.num_qubits();
                    Operation::Gate(Instruction::new(g, qubits[..arity].to_vec()))
                }
            }
        })
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (6..130usize).prop_flat_map(|n| {
        prop::collection::vec(arb_op(n), 0..60).prop_map(move |ops| {
            let mut c = Circuit::new(n);
            for op in ops {
                c.push_op(op);
            }
            c
        })
    })
}

/// Circuits that repeat a few parameter tuples many times, as routed
/// `sc:eagle` programs do, so the memo's hit path carries most gates.
fn arb_repetitive_circuit() -> impl Strategy<Value = Circuit> {
    (
        prop::collection::vec((arb_f64(), arb_f64(), arb_f64()), 1..4),
        prop::collection::vec((0..3usize, 0..4usize, 0..127usize, 1..127usize), 0..200),
    )
        .prop_map(|(tuples, picks)| {
            let mut c = Circuit::new(127);
            for (kind, t, q0, offset) in picks {
                let q1 = (q0 + offset) % 127;
                let (a, b, cc) = tuples[t % tuples.len()];
                match kind {
                    0 => c.push(Gate::U3(a, b, cc), &[q0]),
                    1 => c.push(Gate::Rz(a), &[q0]),
                    _ => c.push(Gate::Cz, &[q0, q1]),
                };
            }
            c
        })
}

// ---- programs ---------------------------------------------------------------

const REGISTERS: [&str; 3] = ["q", "anc", "r2"];

fn arb_qubit() -> impl Strategy<Value = QubitRef> {
    (0..REGISTERS.len(), 0..300usize).prop_map(|(r, index)| QubitRef {
        register: REGISTERS[r].to_string(),
        index,
    })
}

/// Every `Annotation` kind, `Other` with and without content included.
fn arb_annotation() -> impl Strategy<Value = Annotation> {
    (
        (0..11usize, any::<bool>()),
        (arb_f64s(5), arb_f64s(5)),
        (0..1000usize, 0..1000usize, 0..1000usize),
        arb_qubit(),
    )
        .prop_map(|((kind, flag), (xs, ys), (a, b, c), qubit)| {
            let at = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.25);
            match kind {
                0 => Annotation::Slm {
                    positions: xs.iter().copied().zip(ys.iter().copied()).collect(),
                },
                1 => Annotation::Aod { xs, ys },
                2 => Annotation::Bind {
                    qubit,
                    target: if flag {
                        BindTarget::Slm(a)
                    } else {
                        BindTarget::Aod(b, c)
                    },
                },
                3 => Annotation::Transfer {
                    slm_index: a,
                    aod: (b, c),
                },
                4 => Annotation::Shuttle {
                    axis: if flag {
                        ShuttleAxis::Row
                    } else {
                        ShuttleAxis::Column
                    },
                    index: a,
                    offset: at(&xs, 0),
                },
                5 => Annotation::RamanGlobal {
                    x: at(&xs, 0),
                    y: at(&xs, 1),
                    z: at(&ys, 0),
                },
                6 => Annotation::RamanLocal {
                    qubit,
                    x: at(&xs, 0),
                    y: at(&ys, 0),
                    z: at(&ys, 1),
                },
                7 => Annotation::Rydberg,
                8 => Annotation::Other {
                    keyword: "pulse".to_string(),
                    content: String::new(),
                },
                9 => Annotation::Other {
                    keyword: "note".to_string(),
                    content: format!("depth {a} (x, y)"),
                },
                _ => Annotation::Aod { xs: Vec::new(), ys },
            }
        })
}

const GATE_NAMES: [&str; 5] = ["h", "cz", "u3", "rz", "custom_gate"];

fn arb_statement() -> impl Strategy<Value = Statement> {
    (
        (0..8usize, 0..GATE_NAMES.len(), 0..200usize, any::<bool>()),
        (arb_f64s(6), prop::collection::vec(arb_qubit(), 0..4)),
        (
            prop::collection::vec(arb_annotation(), 0..4),
            arb_annotation(),
        ),
        (arb_qubit(), arb_qubit()),
    )
        .prop_map(
            |((kind, name, size, flag), (params, qubits), (annotations, single), (q, t))| {
                let register = REGISTERS[name % REGISTERS.len()].to_string();
                match kind {
                    0 => Statement::QregDecl {
                        name: register,
                        size,
                    },
                    1 => Statement::CregDecl {
                        name: register,
                        size,
                    },
                    2 | 3 => Statement::GateCall {
                        annotations,
                        name: GATE_NAMES[name].to_string(),
                        params,
                        qubits,
                    },
                    4 => Statement::Measure {
                        qubit: q,
                        target: flag.then_some(t),
                    },
                    5 => Statement::Barrier {
                        qubits: if flag { Vec::new() } else { qubits },
                    },
                    6 => Statement::Pragma(format!("weaver target fpqa {size}")),
                    _ => Statement::Standalone(single),
                }
            },
        )
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        0..4usize,
        prop::collection::vec(0..3usize, 0..3),
        prop::collection::vec(arb_statement(), 0..40),
    )
        .prop_map(|(version, includes, statements)| Program {
            // Versionless, two-part, one-part (printed as `3.0`) and an
            // older two-part header.
            version: [None, Some("3.0"), Some("3"), Some("2.0")][version].map(String::from),
            includes: includes
                .into_iter()
                .map(|i| ["stdgates.inc", "qelib1.inc", "fpqa.inc"][i].to_string())
                .collect(),
            statements,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_circuit_matches_reference(c in arb_circuit()) {
        prop_assert_eq!(print_circuit(&c), print_reference(&circuit_to_program(&c)));
    }

    #[test]
    fn print_circuit_matches_reference_on_repeated_tuples(c in arb_repetitive_circuit()) {
        prop_assert_eq!(print_circuit(&c), print_reference(&circuit_to_program(&c)));
    }

    #[test]
    fn print_matches_reference(p in arb_program()) {
        prop_assert_eq!(print(&p), print_reference(&p));
    }
}

#[test]
fn every_float_edge_case_prints_like_the_reference() {
    let mut c = Circuit::new(1);
    for &a in &EDGE_FLOATS {
        c.rz(a, 0);
        for &b in &EDGE_FLOATS {
            c.u3(a, b, -a, 0);
        }
    }
    assert_eq!(print_circuit(&c), print_reference(&circuit_to_program(&c)));
}

// ---- fixtures ---------------------------------------------------------------

fn fixture(name: &str) -> (String, Workload) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    let workload = FrontendRegistry::global()
        .resolve(None, Some(&path), &text)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .parse(&text)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (path.display().to_string(), workload)
}

fn fixture_names() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| !n.ends_with(".manifest"))
        .collect();
    names.sort();
    names
}

/// The simulator's state vector doubles per qubit; 20-variable inputs take
/// seconds in an unoptimized test build, so it runs on the small fixtures.
const SIMULATOR_MAX_QUBITS: usize = 8;

#[test]
fn every_fixture_prints_like_the_reference_on_every_target() {
    let weaver = Weaver::new();
    let mut checked = 0;
    for name in fixture_names() {
        let (_, workload) = fixture(&name);
        let (targets, qubits): (&[&str], usize) = match &workload {
            Workload::MaxSat(f) => (&["fpqa", "sc:eagle", "sc:heron", "simulator"], f.num_vars()),
            Workload::Circuit(p) => (&["sc:eagle", "sc:heron", "simulator"], p.num_qubits()),
        };
        for &target in targets {
            if target == "simulator" && qubits > SIMULATOR_MAX_QUBITS {
                continue;
            }
            let out = weaver
                .compile_workload_cached(target, &workload, None)
                .unwrap_or_else(|e| panic!("{name} on {target}: {e}"));
            assert_eq!(
                out.artifact.print_wqasm(),
                print_reference(&out.artifact.to_program()),
                "{name} on {target}: printers disagree"
            );
            checked += 1;
        }
    }
    assert!(checked >= 30, "only {checked} fixture/target pairs checked");
}

#[test]
fn circuit_fixture_keys_are_unchanged() {
    let (path, workload) = fixture("bell.wq");
    let Workload::Circuit(program) = &workload else {
        panic!("bell.wq is a circuit workload");
    };
    // The key hashes this text, so it must be the reference printer's.
    let mut canonical = b"workload:circuit\0".to_vec();
    canonical.extend(print_reference(program).into_bytes());
    assert_eq!(workload.canonical_bytes(), canonical);

    // Keys of `weaverc batch` over the manifest jobs `bell.wq target=...`,
    // as the printer before the one-buffer rewrite produced them.
    for (target, key) in [
        (
            "sc:eagle",
            "44e1b0aee2a4ac34c78a88ad2a44201b18787231e5b9691f47d3337c52c21218",
        ),
        (
            "simulator",
            "94ccd7fb7f7f66a333f923f79d1bf1eb977e80134f244e67e4aad28bb33406f5",
        ),
    ] {
        let job = CompileJob {
            source: JobSource::Path(path.clone().into()),
            frontend: None,
            target: Target::parse(target).unwrap(),
            options: JobOptions::default(),
        };
        assert_eq!(
            job.artifact_key(&workload).to_hex(),
            key,
            "bell.wq on {target}"
        );
    }
}
