//! Correctness gates. Every failure is counted against the run and makes
//! the command exit non-zero.

use crate::inputs::{Item, Kind, Slice};
use crate::report::Report;
use std::sync::{Arc, OnceLock};
use weaver_engine::{Artifact, JobResult};
use weaver_superconducting::{CouplingMap, DeviceSpec};
use weaver_wqasm::Statement;

fn eagle() -> &'static CouplingMap {
    static EAGLE: OnceLock<CouplingMap> = OnceLock::new();
    EAGLE.get_or_init(|| DeviceSpec::eagle().coupling())
}

/// Checks one compiled artifact of `slice`:
/// * FPQA: the wChecker ran (the job asks for it) and passed;
/// * `sc:eagle`: the wQasm parses with `weaver_wqasm`, and every gate on
///   two qubits acts on a coupled pair of the eagle map (no wider gates);
/// * simulator: the ideal EPS is a probability above zero.
pub fn check_artifact(slice: &Slice, artifact: &Artifact) -> Result<(), String> {
    match slice.kind {
        Kind::Fpqa => match artifact.check_passed {
            Some(true) => Ok(()),
            Some(false) => Err(format!("wChecker rejected: {:?}", artifact.check_errors)),
            None => Err("wChecker did not run".to_string()),
        },
        Kind::ScEagle => check_coupling(&artifact.wqasm),
        Kind::Sim => {
            let eps = artifact.metrics.eps;
            if eps > 0.0 && eps <= 1.0 + 1e-9 {
                Ok(())
            } else {
                Err(format!("ideal EPS {eps} is not a probability"))
            }
        }
    }
}

/// Counts one engine result for `item` as a checked operation: a job error
/// or an artifact failing [`check_artifact`] is a failure. Returns the
/// artifact of a job that compiled.
pub fn check_result<'a>(
    item: &Item,
    r: &'a JobResult,
    report: &mut Report,
) -> Option<&'a Arc<Artifact>> {
    let artifact = r.artifact.as_ref();
    report.check(
        match artifact {
            Ok(a) => check_artifact(item.slice(), a),
            Err(e) => Err(e.to_string()),
        }
        .map_err(|e| format!("{}: {e}", item.name)),
    );
    artifact.ok()
}

/// Parses `wqasm` independently of the router and checks every
/// multi-qubit gate against the eagle coupling map.
pub fn check_coupling(wqasm: &str) -> Result<(), String> {
    let program = weaver_wqasm::parse(wqasm).map_err(|e| format!("wQasm does not parse: {e}"))?;
    let map = eagle();
    let mut two_qubit = 0usize;
    for statement in &program.statements {
        if let Statement::GateCall { name, qubits, .. } = statement {
            match qubits.as_slice() {
                [_] => {}
                [a, b] => {
                    if a.index >= map.num_qubits()
                        || b.index >= map.num_qubits()
                        || !map.are_coupled(a.index, b.index)
                    {
                        return Err(format!("{name} {a}, {b} is not on the eagle coupling map"));
                    }
                    two_qubit += 1;
                }
                _ => {
                    return Err(format!(
                        "{name} acts on {} qubits after routing",
                        qubits.len()
                    ))
                }
            }
        }
    }
    if two_qubit == 0 {
        return Err("routed program has no two-qubit gates".to_string());
    }
    Ok(())
}

/// A fast 64-bit content hash for comparing served bytes with the
/// expected bytes; four independent lanes keep it well under a
/// millisecond for a 3.5 MB record.
pub fn content_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [1u64, 2, 3, 4];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(31);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K);
    }
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupling_check_rejects_an_uncoupled_pair() {
        let ok = "OPENQASM 2.0;\nqreg q[127];\ncx q[0], q[1];\n";
        assert_eq!(check_coupling(ok), Ok(()));
        let bad = "OPENQASM 2.0;\nqreg q[127];\ncx q[0], q[60];\n";
        assert!(check_coupling(bad).is_err());
    }

    #[test]
    fn hash_sees_every_byte() {
        let a = vec![7u8; 1000];
        let mut b = a.clone();
        b[999] = 8;
        let mut c = a.clone();
        c[3] = 0;
        assert_ne!(content_hash(&a), content_hash(&b));
        assert_ne!(content_hash(&a), content_hash(&c));
        assert_eq!(content_hash(&a), content_hash(&a.clone()));
    }
}
