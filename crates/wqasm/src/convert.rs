//! Conversion between wQasm [`Program`]s and the circuit IR.
//!
//! Lowering direction (`program_to_circuit`) ignores FPQA annotations — a
//! wQasm file "can be treated like a regular OpenQASM file" when retargeting
//! to other architectures (paper §4.2). Lifting direction
//! (`circuit_to_program`) emits plain OpenQASM; the Weaver codegen in
//! `weaver-core` then attaches FPQA annotations.

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;
use weaver_circuit::{Circuit, Gate, Operation};

/// Error converting a program to a circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvertError {
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conversion error: {}", self.message)
    }
}

impl std::error::Error for ConvertError {}

/// Maps a gate mnemonic and parameters to a [`Gate`].
pub fn gate_from_name(name: &str, params: &[f64]) -> Result<Gate, ConvertError> {
    let wrong_params = |expected: usize| ConvertError {
        message: format!(
            "gate `{name}` expects {expected} parameter(s), got {}",
            params.len()
        ),
    };
    Ok(match name {
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "h" => Gate::H,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "rx" => Gate::Rx(*params.first().ok_or_else(|| wrong_params(1))?),
        "ry" => Gate::Ry(*params.first().ok_or_else(|| wrong_params(1))?),
        "rz" => Gate::Rz(*params.first().ok_or_else(|| wrong_params(1))?),
        "p" | "u1" => Gate::P(*params.first().ok_or_else(|| wrong_params(1))?),
        "u3" | "u" => {
            if params.len() != 3 {
                return Err(wrong_params(3));
            }
            Gate::U3(params[0], params[1], params[2])
        }
        "cx" | "cnot" => Gate::Cx,
        "cz" => Gate::Cz,
        "crz" => Gate::Crz(*params.first().ok_or_else(|| wrong_params(1))?),
        "cp" => {
            // CP(θ) == CRZ(θ) up to global phase; keep exact by CRZ + P on
            // control — but as a single gate we map to Crz and accept the
            // phase difference only where equivalence is up-to-phase. To be
            // exact we reject and ask for decomposed input.
            return Err(ConvertError {
                message: "gate `cp` must be decomposed before conversion".to_string(),
            });
        }
        "swap" => Gate::Swap,
        "ccx" | "toffoli" => Gate::Ccx,
        "ccz" => Gate::Ccz,
        other => {
            return Err(ConvertError {
                message: format!("unknown gate `{other}`"),
            })
        }
    })
}

/// The wQasm mnemonic and parameters for a [`Gate`].
pub fn gate_to_name(gate: &Gate) -> (&'static str, Vec<f64>) {
    (gate.name(), gate.params())
}

/// Lowers a program to a [`Circuit`], flattening all quantum registers into
/// one linear index space (in declaration order) and ignoring annotations.
///
/// # Errors
///
/// Returns [`ConvertError`] for unknown gates, undeclared registers, or
/// out-of-range indices.
pub fn program_to_circuit(program: &Program) -> Result<Circuit, ConvertError> {
    // Assign base offsets per register.
    let mut offsets: HashMap<String, (usize, usize)> = HashMap::new(); // name -> (base, size)
    let mut total = 0usize;
    for stmt in &program.statements {
        if let Statement::QregDecl { name, size } = stmt {
            offsets.insert(name.clone(), (total, *size));
            total += size;
        }
    }
    let resolve = |q: &QubitRef| -> Result<usize, ConvertError> {
        let (base, size) = offsets.get(&q.register).ok_or_else(|| ConvertError {
            message: format!("undeclared quantum register `{}`", q.register),
        })?;
        if q.index >= *size {
            return Err(ConvertError {
                message: format!("qubit index {} out of range for `{}`", q.index, q.register),
            });
        }
        Ok(base + q.index)
    };

    let mut circuit = Circuit::new(total);
    for stmt in &program.statements {
        match stmt {
            Statement::GateCall {
                name,
                params,
                qubits,
                ..
            } => {
                let gate = gate_from_name(name, params)?;
                let qs: Result<Vec<usize>, ConvertError> = qubits.iter().map(resolve).collect();
                let qs = qs?;
                if qs.len() != gate.num_qubits() {
                    return Err(ConvertError {
                        message: format!(
                            "gate `{name}` expects {} operands, got {}",
                            gate.num_qubits(),
                            qs.len()
                        ),
                    });
                }
                circuit.push(gate, &qs);
            }
            Statement::Measure { qubit, .. } => {
                circuit.measure(resolve(qubit)?);
            }
            Statement::Barrier { qubits } => {
                let qs: Result<Vec<usize>, ConvertError> = qubits.iter().map(resolve).collect();
                circuit.push_op(Operation::Barrier(qs?));
            }
            _ => {}
        }
    }
    Ok(circuit)
}

/// Lifts a circuit to a plain OpenQASM [`Program`] over a single register
/// `q` (and classical register `c` if the circuit measures). To print a
/// circuit, [`crate::print_circuit`] writes the same text without building
/// the program.
pub fn circuit_to_program(circuit: &Circuit) -> Program {
    let mut prog = Program::new();
    prog.statements.push(Statement::QregDecl {
        name: "q".to_string(),
        size: circuit.num_qubits(),
    });
    let has_measure = circuit
        .operations()
        .iter()
        .any(|o| matches!(o, Operation::Measure(_)));
    if has_measure {
        prog.statements.push(Statement::CregDecl {
            name: "c".to_string(),
            size: circuit.num_qubits(),
        });
    }
    for op in circuit.operations() {
        match op {
            Operation::Gate(instr) => {
                let (name, params) = gate_to_name(&instr.gate);
                prog.statements.push(Statement::GateCall {
                    annotations: Vec::new(),
                    name: name.to_string(),
                    params,
                    qubits: instr.qubits.iter().map(|&q| QubitRef::q(q)).collect(),
                });
            }
            Operation::Measure(q) => prog.statements.push(Statement::Measure {
                qubit: QubitRef::q(*q),
                target: Some(QubitRef {
                    register: "c".to_string(),
                    index: *q,
                }),
            }),
            Operation::Barrier(qs) => prog.statements.push(Statement::Barrier {
                qubits: qs.iter().map(|&q| QubitRef::q(q)).collect(),
            }),
        }
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use weaver_simulator::equiv;

    #[test]
    fn lowers_simple_program() {
        let p = parse("qreg q[2];\nh q[0];\ncz q[0], q[1];\nmeasure q[0];").unwrap();
        let c = program_to_circuit(&p).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.gate_count(), 2);
    }

    #[test]
    fn multiple_registers_flatten() {
        let p = parse("qreg a[2];\nqreg b[2];\ncx a[1], b[0];").unwrap();
        let c = program_to_circuit(&p).unwrap();
        assert_eq!(c.num_qubits(), 4);
        let instr = c.instructions().next().unwrap();
        assert_eq!(instr.qubits, vec![1, 2]);
    }

    #[test]
    fn roundtrip_circuit_program_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).rz(0.25, 1).ccz(0, 1, 2).cx(2, 0).measure_all();
        let p = circuit_to_program(&c);
        let c2 = program_to_circuit(&p).unwrap();
        assert_eq!(c.num_qubits(), c2.num_qubits());
        assert_eq!(c.gate_count(), c2.gate_count());
        let e = equiv::compare(&c.unitary(), &c2.unitary(), 1e-10);
        assert!(e.is_equivalent());
    }

    #[test]
    fn annotations_are_ignored_when_lowering() {
        let p = parse("qreg q[2];\n@rydberg\ncz q[0], q[1];").unwrap();
        let c = program_to_circuit(&p).unwrap();
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let p = parse("qreg q[1];\nfoo q[0];").unwrap();
        assert!(program_to_circuit(&p).is_err());
    }

    #[test]
    fn out_of_range_is_an_error() {
        let p = parse("qreg q[1];\nh q[3];").unwrap();
        assert!(program_to_circuit(&p).is_err());
    }

    #[test]
    fn u_gate_aliases() {
        let p = parse("qreg q[1];\nu(0.1, 0.2, 0.3) q[0];\nu1(0.5) q[0];").unwrap();
        let c = program_to_circuit(&p).unwrap();
        let gates: Vec<_> = c.instructions().map(|i| i.gate.clone()).collect();
        assert_eq!(gates[0], Gate::U3(0.1, 0.2, 0.3));
        assert_eq!(gates[1], Gate::P(0.5));
    }
}
