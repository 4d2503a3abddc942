//! Serializes a [`Program`], or a [`Circuit`] directly, to wQasm source
//! text.
//!
//! Both printers write into one pre-sized `String`: no per-statement
//! `Vec`, `String` or `format!`. Integers and integral floats are written
//! digit by digit; every other float, and every gate parameter tuple, is
//! formatted once per print call and copied from a memo after that.
//! [`print_reference`] keeps the original allocate-and-join printer as the
//! byte-identity oracle for tests and benches.
//!
//! The printer and [`crate::parse`] round-trip: `parse(print(p)) == p` up to
//! floating-point formatting, which the property tests in this crate verify.

use crate::ast::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;
use weaver_circuit::{Circuit, Operation};

/// Pretty-prints a program as wQasm source.
///
/// # Examples
///
/// ```
/// use weaver_wqasm::{parse, print};
/// let p = parse("qreg q[1];\n@rydberg\nh q[0];").unwrap();
/// let text = print(&p);
/// assert!(text.contains("@rydberg"));
/// assert_eq!(parse(&text).unwrap(), p);
/// ```
pub fn print(program: &Program) -> String {
    let mut w = Printer::with_capacity(program_len_hint(program));
    if let Some(v) = &program.version {
        // Keep a conventional two-part version number.
        w.out.push_str("OPENQASM ");
        w.out.push_str(v);
        if !v.contains('.') {
            w.out.push_str(".0");
        }
        w.out.push_str(";\n");
    }
    for inc in &program.includes {
        w.out.push_str("include \"");
        w.out.push_str(inc);
        w.out.push_str("\";\n");
    }
    for stmt in &program.statements {
        w.statement(stmt);
    }
    w.finish()
}

/// Prints a circuit as plain OpenQASM: byte for byte
/// `print(&circuit_to_program(circuit))`, without building the program.
///
/// # Examples
///
/// ```
/// use weaver_circuit::Circuit;
/// use weaver_wqasm::{convert::circuit_to_program, print, print_circuit};
/// let mut c = Circuit::new(2);
/// c.h(0).rz(0.25, 1).cx(0, 1).measure_all();
/// assert_eq!(print_circuit(&c), print(&circuit_to_program(&c)));
/// ```
pub fn print_circuit(circuit: &Circuit) -> String {
    let ops = circuit.operations();
    let mut w = Printer::with_capacity(circuit_len_hint(circuit));
    w.out.push_str("OPENQASM 3.0;\nqreg q[");
    w.usize(circuit.num_qubits());
    w.out.push_str("];\n");
    if ops.iter().any(|o| matches!(o, Operation::Measure(_))) {
        w.out.push_str("creg c[");
        w.usize(circuit.num_qubits());
        w.out.push_str("];\n");
    }
    for op in ops {
        match op {
            Operation::Gate(instr) => {
                w.out.push_str(instr.gate.name());
                let (params, n) = instr.gate.param_array();
                if n > 0 {
                    w.params(&params[..n]);
                }
                w.out.push(' ');
                w.q_indices(&instr.qubits);
                w.out.push_str(";\n");
            }
            Operation::Measure(q) => {
                w.out.push_str("measure q[");
                w.usize(*q);
                w.out.push_str("] -> c[");
                w.usize(*q);
                w.out.push_str("];\n");
            }
            Operation::Barrier(qs) if qs.is_empty() => w.out.push_str("barrier;\n"),
            Operation::Barrier(qs) => {
                w.out.push_str("barrier ");
                w.q_indices(qs);
                w.out.push_str(";\n");
            }
        }
    }
    w.finish()
}

/// A guess at the printed width of a non-integral float: the shortest
/// round-trip text of a typical angle (`1.5707963267948966`) is 18 bytes.
const F64_HINT: usize = 18;

fn decimal_len(mut n: usize) -> usize {
    let mut len = 1;
    while n >= 10 {
        n /= 10;
        len += 1;
    }
    len
}

/// Bytes [`print_circuit`] is expected to write, from the operation count
/// and each operation's arity; only float widths are guessed.
fn circuit_len_hint(circuit: &Circuit) -> usize {
    // `q[i], ` at the widest index.
    let qubit = decimal_len(circuit.num_qubits()) + 5;
    let ops: usize = circuit
        .operations()
        .iter()
        .map(|op| match op {
            Operation::Gate(instr) => {
                instr.gate.name().len()
                    + 3
                    + instr.qubits.len() * qubit
                    + instr.gate.param_array().1 * (F64_HINT + 2)
            }
            Operation::Measure(_) => 16 + 2 * qubit,
            Operation::Barrier(qs) => 10 + qs.len() * qubit,
        })
        .sum();
    32 + 2 * qubit + ops
}

/// Bytes [`print`] is expected to write; only float widths are guessed.
fn program_len_hint(program: &Program) -> usize {
    let qubit = |q: &QubitRef| q.register.len() + decimal_len(q.index) + 4;
    let qubits = |qs: &[QubitRef]| qs.iter().map(qubit).sum::<usize>();
    let annotation = |a: &Annotation| match a {
        Annotation::Slm { positions } => 8 + positions.len() * (2 * F64_HINT + 6),
        Annotation::Aod { xs, ys } => 12 + (xs.len() + ys.len()) * (F64_HINT + 2),
        Annotation::Bind { qubit: q, .. } => 24 + qubit(q),
        Annotation::Transfer { .. } => 24,
        Annotation::Shuttle { .. } => 20 + F64_HINT,
        Annotation::RamanGlobal { .. } => 16 + 3 * (F64_HINT + 1),
        Annotation::RamanLocal { qubit: q, .. } => 16 + qubit(q) + 3 * (F64_HINT + 1),
        Annotation::Rydberg => 9,
        Annotation::Other { keyword, content } => keyword.len() + content.len() + 3,
    };
    let statements: usize = program
        .statements
        .iter()
        .map(|s| match s {
            Statement::QregDecl { name, .. } | Statement::CregDecl { name, .. } => name.len() + 28,
            Statement::GateCall {
                annotations,
                name,
                params,
                qubits: qs,
            } => {
                annotations.iter().map(annotation).sum::<usize>()
                    + name.len()
                    + 4
                    + params.len() * (F64_HINT + 2)
                    + qubits(qs)
            }
            Statement::Measure { qubit: q, target } => {
                12 + qubit(q) + target.as_ref().map_or(0, qubit)
            }
            Statement::Barrier { qubits: qs } => 10 + qubits(qs),
            Statement::Pragma(text) => text.len() + 9,
            Statement::Standalone(a) => annotation(a),
        })
        .sum();
    let header = program.version.as_ref().map_or(0, |v| v.len() + 14);
    let includes: usize = program.includes.iter().map(|i| i.len() + 12).sum();
    header + includes + statements
}

/// Memo key: `[0, bits, 0, 0]` for one float, `[n, bits…]` for an
/// `n`-parameter tuple (`n <= 3`). The map keeps the default (randomly
/// keyed) hasher: `.wq` workloads carry floats from outside the program,
/// and a fixed hash would let crafted angles collide.
type MemoKey = [u64; 4];

/// One print call's output buffer plus its float-text memo. The memo's
/// texts live back to back in `arena`, so a miss costs no allocation of
/// its own.
struct Printer {
    out: String,
    memo: HashMap<MemoKey, Range<usize>>,
    arena: String,
}

impl Printer {
    fn with_capacity(bytes: usize) -> Self {
        Printer {
            out: String::with_capacity(bytes),
            memo: HashMap::new(),
            arena: String::new(),
        }
    }

    /// The printed text. The buffer outlives the call (artifacts keep it),
    /// so an over-estimated capacity is given back.
    fn finish(mut self) -> String {
        self.out.shrink_to_fit();
        self.out
    }

    fn usize(&mut self, n: usize) {
        push_u64(&mut self.out, n as u64);
    }

    /// Copies the memoized text for `key`, formatting it into the arena
    /// with `format` on first sight.
    fn memoized(&mut self, key: MemoKey, format: impl FnOnce(&mut String)) {
        let range = match self.memo.get(&key) {
            Some(range) => range.clone(),
            None => {
                let start = self.arena.len();
                format(&mut self.arena);
                let range = start..self.arena.len();
                self.memo.insert(key, range.clone());
                range
            }
        };
        self.out.push_str(&self.arena[range]);
    }

    fn f64(&mut self, v: f64) {
        if is_integral(v) {
            push_f64(&mut self.out, v);
        } else {
            self.memoized([0, v.to_bits(), 0, 0], |s| push_f64(s, v));
        }
    }

    fn f64_list(&mut self, xs: &[f64]) {
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.f64(*x);
        }
    }

    /// Writes `(p0, p1, …)`.
    fn params(&mut self, params: &[f64]) {
        if params.len() > 3 {
            self.out.push('(');
            self.f64_list(params);
            self.out.push(')');
            return;
        }
        let mut key = [params.len() as u64, 0, 0, 0];
        for (k, p) in key[1..].iter_mut().zip(params) {
            *k = p.to_bits();
        }
        self.memoized(key, |s| {
            s.push('(');
            for (i, p) in params.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                push_f64(s, *p);
            }
            s.push(')');
        });
    }

    fn qubit(&mut self, q: &QubitRef) {
        self.out.push_str(&q.register);
        self.out.push('[');
        self.usize(q.index);
        self.out.push(']');
    }

    fn qubits(&mut self, qs: &[QubitRef]) {
        for (i, q) in qs.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.qubit(q);
        }
    }

    /// Writes `q[a], q[b], …`.
    fn q_indices(&mut self, qs: &[usize]) {
        for (i, &q) in qs.iter().enumerate() {
            self.out.push_str(if i > 0 { ", q[" } else { "q[" });
            self.usize(q);
            self.out.push(']');
        }
    }

    fn statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::QregDecl { name, size } => self.decl("qreg ", name, *size),
            Statement::CregDecl { name, size } => self.decl("creg ", name, *size),
            Statement::GateCall {
                annotations,
                name,
                params,
                qubits,
            } => {
                for a in annotations {
                    self.annotation(a);
                }
                self.out.push_str(name);
                if !params.is_empty() {
                    self.params(params);
                }
                self.out.push(' ');
                self.qubits(qubits);
                self.out.push_str(";\n");
            }
            Statement::Measure { qubit, target } => {
                self.out.push_str("measure ");
                self.qubit(qubit);
                if let Some(t) = target {
                    self.out.push_str(" -> ");
                    self.qubit(t);
                }
                self.out.push_str(";\n");
            }
            Statement::Barrier { qubits } if qubits.is_empty() => self.out.push_str("barrier;\n"),
            Statement::Barrier { qubits } => {
                self.out.push_str("barrier ");
                self.qubits(qubits);
                self.out.push_str(";\n");
            }
            Statement::Pragma(text) => {
                self.out.push_str("pragma ");
                self.out.push_str(text);
                self.out.push_str(";\n");
            }
            Statement::Standalone(a) => self.annotation(a),
        }
    }

    fn decl(&mut self, keyword: &str, name: &str, size: usize) {
        self.out.push_str(keyword);
        self.out.push_str(name);
        self.out.push('[');
        self.usize(size);
        self.out.push_str("];\n");
    }

    fn annotation(&mut self, a: &Annotation) {
        match a {
            Annotation::Slm { positions } => {
                self.out.push_str("@slm [");
                for (i, (x, y)) in positions.iter().enumerate() {
                    self.out.push_str(if i > 0 { ", (" } else { "(" });
                    self.f64(*x);
                    self.out.push_str(", ");
                    self.f64(*y);
                    self.out.push(')');
                }
                self.out.push_str("]\n");
            }
            Annotation::Aod { xs, ys } => {
                self.out.push_str("@aod [");
                self.f64_list(xs);
                self.out.push_str("] [");
                self.f64_list(ys);
                self.out.push_str("]\n");
            }
            Annotation::Bind { qubit, target } => {
                self.out.push_str("@bind ");
                self.qubit(qubit);
                match target {
                    BindTarget::Slm(i) => {
                        self.out.push_str(" slm ");
                        self.usize(*i);
                    }
                    BindTarget::Aod(cx, cy) => {
                        self.out.push_str(" aod ");
                        self.usize(*cx);
                        self.out.push(' ');
                        self.usize(*cy);
                    }
                }
                self.out.push('\n');
            }
            Annotation::Transfer { slm_index, aod } => {
                self.out.push_str("@transfer ");
                self.usize(*slm_index);
                self.out.push_str(" (");
                self.usize(aod.0);
                self.out.push_str(", ");
                self.usize(aod.1);
                self.out.push_str(")\n");
            }
            Annotation::Shuttle {
                axis,
                index,
                offset,
            } => {
                self.out.push_str(match axis {
                    ShuttleAxis::Row => "@shuttle row ",
                    ShuttleAxis::Column => "@shuttle column ",
                });
                self.usize(*index);
                self.out.push(' ');
                self.f64(*offset);
                self.out.push('\n');
            }
            Annotation::RamanGlobal { x, y, z } => {
                self.out.push_str("@raman global");
                self.xyz(*x, *y, *z);
            }
            Annotation::RamanLocal { qubit, x, y, z } => {
                self.out.push_str("@raman local ");
                self.qubit(qubit);
                self.xyz(*x, *y, *z);
            }
            Annotation::Rydberg => self.out.push_str("@rydberg\n"),
            Annotation::Other { keyword, content } => {
                self.out.push('@');
                self.out.push_str(keyword);
                if !content.is_empty() {
                    self.out.push(' ');
                    self.out.push_str(content);
                }
                self.out.push('\n');
            }
        }
    }

    /// Writes ` x y z` and ends the line.
    fn xyz(&mut self, x: f64, y: f64, z: f64) {
        for v in [x, y, z] {
            self.out.push(' ');
            self.f64(v);
        }
        self.out.push('\n');
    }
}

fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Floats that print as `{:.1}`: integral and below 1e15 in magnitude.
fn is_integral(v: f64) -> bool {
    v == v.trunc() && v.abs() < 1e15
}

/// Formats a float so the lexer round-trips it exactly: an integral value
/// below 1e15 as its digits plus `.0` (what `{:.1}` prints, sign of `-0.0`
/// included), anything else as Rust's shortest representation, which
/// `f64::parse` recovers losslessly.
fn push_f64(out: &mut String, v: f64) {
    if is_integral(v) {
        if v.is_sign_negative() {
            out.push('-');
        }
        // Exact: every integer below 1e15 < 2^53 converts losslessly.
        push_u64(out, v.abs() as u64);
        out.push_str(".0");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// The original allocate-and-join printer, kept as the byte-identity oracle
/// for [`print`] and [`print_circuit`] in tests and benches. Not for
/// production use.
#[doc(hidden)]
pub fn print_reference(program: &Program) -> String {
    reference::print(program)
}

mod reference {
    use crate::ast::*;
    use std::fmt::Write as _;

    pub(super) fn print(program: &Program) -> String {
        let mut out = String::new();
        if let Some(v) = &program.version {
            // Keep a conventional two-part version number.
            let v = if v.contains('.') {
                v.clone()
            } else {
                format!("{v}.0")
            };
            let _ = writeln!(out, "OPENQASM {v};");
        }
        for inc in &program.includes {
            let _ = writeln!(out, "include \"{inc}\";");
        }
        for stmt in &program.statements {
            print_statement(stmt, &mut out);
        }
        out
    }

    fn print_statement(stmt: &Statement, out: &mut String) {
        match stmt {
            Statement::QregDecl { name, size } => {
                let _ = writeln!(out, "qreg {name}[{size}];");
            }
            Statement::CregDecl { name, size } => {
                let _ = writeln!(out, "creg {name}[{size}];");
            }
            Statement::GateCall {
                annotations,
                name,
                params,
                qubits,
            } => {
                for a in annotations {
                    print_annotation(a, out);
                }
                let _ = write!(out, "{name}");
                if !params.is_empty() {
                    let ps: Vec<String> = params.iter().map(|p| fmt_f64(*p)).collect();
                    let _ = write!(out, "({})", ps.join(", "));
                }
                let qs: Vec<String> = qubits.iter().map(|q| q.to_string()).collect();
                let _ = writeln!(out, " {};", qs.join(", "));
            }
            Statement::Measure { qubit, target } => match target {
                Some(t) => {
                    let _ = writeln!(out, "measure {qubit} -> {t};");
                }
                None => {
                    let _ = writeln!(out, "measure {qubit};");
                }
            },
            Statement::Barrier { qubits } => {
                if qubits.is_empty() {
                    let _ = writeln!(out, "barrier;");
                } else {
                    let qs: Vec<String> = qubits.iter().map(|q| q.to_string()).collect();
                    let _ = writeln!(out, "barrier {};", qs.join(", "));
                }
            }
            Statement::Pragma(text) => {
                let _ = writeln!(out, "pragma {text};");
            }
            Statement::Standalone(a) => print_annotation(a, out),
        }
    }

    fn print_annotation(a: &Annotation, out: &mut String) {
        match a {
            Annotation::Slm { positions } => {
                let ps: Vec<String> = positions
                    .iter()
                    .map(|(x, y)| format!("({}, {})", fmt_f64(*x), fmt_f64(*y)))
                    .collect();
                let _ = writeln!(out, "@slm [{}]", ps.join(", "));
            }
            Annotation::Aod { xs, ys } => {
                let _ = writeln!(out, "@aod [{}] [{}]", fmt_list(xs), fmt_list(ys));
            }
            Annotation::Bind { qubit, target } => match target {
                BindTarget::Slm(i) => {
                    let _ = writeln!(out, "@bind {qubit} slm {i}");
                }
                BindTarget::Aod(cx, cy) => {
                    let _ = writeln!(out, "@bind {qubit} aod {cx} {cy}");
                }
            },
            Annotation::Transfer { slm_index, aod } => {
                let _ = writeln!(out, "@transfer {slm_index} ({}, {})", aod.0, aod.1);
            }
            Annotation::Shuttle {
                axis,
                index,
                offset,
            } => {
                let _ = writeln!(out, "@shuttle {axis} {index} {}", fmt_f64(*offset));
            }
            Annotation::RamanGlobal { x, y, z } => {
                let _ = writeln!(
                    out,
                    "@raman global {} {} {}",
                    fmt_f64(*x),
                    fmt_f64(*y),
                    fmt_f64(*z)
                );
            }
            Annotation::RamanLocal { qubit, x, y, z } => {
                let _ = writeln!(
                    out,
                    "@raman local {qubit} {} {} {}",
                    fmt_f64(*x),
                    fmt_f64(*y),
                    fmt_f64(*z)
                );
            }
            Annotation::Rydberg => {
                let _ = writeln!(out, "@rydberg");
            }
            Annotation::Other { keyword, content } => {
                if content.is_empty() {
                    let _ = writeln!(out, "@{keyword}");
                } else {
                    let _ = writeln!(out, "@{keyword} {content}");
                }
            }
        }
    }

    fn fmt_list(xs: &[f64]) -> String {
        xs.iter()
            .map(|x| fmt_f64(*x))
            .collect::<Vec<_>>()
            .join(", ")
    }

    pub(super) fn fmt_f64(v: f64) -> String {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn roundtrip(src: &str) {
        let p1 = parse(src).unwrap();
        let text = print(&p1);
        assert_eq!(text, print_reference(&p1), "printers disagree");
        let p2 = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(p1, p2, "round-trip mismatch\n---\n{text}");
    }

    #[test]
    fn roundtrips_simple_program() {
        roundtrip("OPENQASM 3.0;\nqreg q[2];\nh q[0];\ncz q[0], q[1];\nmeasure q[0];");
    }

    #[test]
    fn roundtrips_annotations() {
        roundtrip(
            "qreg q[3];\n@slm [(0.0, 0.0), (7.25, -3.5)]\n@aod [1.0, 2.0] [0.5]\n@bind q[0] slm 0\n@bind q[1] aod 1 0\n@transfer 1 (0, 0)\n@shuttle column 1 4.25\n@raman global 0.1 -0.2 0.3\n@raman local q[2] 0.0 1.0 0.0\n@rydberg\nccz q[0], q[1], q[2];",
        );
    }

    #[test]
    fn roundtrips_negative_and_scientific() {
        roundtrip("qreg q[1];\nrz(-0.5) q[0];\nrx(1e-3) q[0];");
    }

    #[test]
    fn roundtrips_barriers_and_pragmas() {
        roundtrip("pragma weaver target fpqa;\nqreg q[2];\nbarrier;\nbarrier q[0], q[1];");
    }

    #[test]
    fn integers_print_with_decimal() {
        for v in [3.0, 0.5, -0.0, -7.0, 1e15 - 1.0, 1e15, 0.1 + 0.2, f64::NAN] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(s, reference::fmt_f64(v), "{v:?}");
        }
        assert_eq!(reference::fmt_f64(3.0), "3.0");
        assert_eq!(reference::fmt_f64(-0.0), "-0.0");
    }

    #[test]
    fn memo_reuses_text_per_distinct_tuple() {
        let mut c = Circuit::new(2);
        for q in 0..2 {
            c.u3(0.1, 0.2, 0.3, q).rz(0.1, q).u3(0.1, 0.2, 0.3, q);
        }
        let mut w = Printer::with_capacity(0);
        for instr in c.instructions() {
            let (params, n) = instr.gate.param_array();
            w.params(&params[..n]);
        }
        assert_eq!(w.memo.len(), 2, "one entry per distinct tuple");
        assert_eq!(
            w.out,
            "(0.1, 0.2, 0.3)(0.1)(0.1, 0.2, 0.3)(0.1, 0.2, 0.3)(0.1)(0.1, 0.2, 0.3)"
        );
    }
}
