//! Retargeting Weaver to a *different* FPQA: sweep the hardware CCZ
//! fidelity (the Fig. 10c experiment) and watch the §5.4 profitability gate
//! switch the compiler between CCZ compression and CNOT ladders.
//!
//! ```text
//! cargo run --release --example custom_fpqa
//! ```

use weaver::core::compress;
use weaver::prelude::*;

fn main() {
    let formula = Workload::MaxSat(generator::instance(20, 1));
    println!(
        "sweeping CCZ fidelity on uf20-01 (f_cz = {:.3}, pulse-only threshold f_cz^4 = {:.4})\n",
        FpqaParams::default().fidelity_cz,
        compress::compression_threshold(FpqaParams::default().fidelity_cz),
    );
    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>12}",
        "f_ccz", "mode", "EPS", "pulses", "execute [s]"
    );

    for i in 0..=8 {
        let fidelity = 0.95 + i as f64 * 0.006;
        let params = FpqaParams::default().with_ccz_fidelity(fidelity.min(0.999));
        let compressed_mode = compress::compression_beneficial(&params, 30.0);
        let weaver = Weaver::new().with_fpqa_params(params);
        let out = weaver
            .compile_workload_cached("fpqa", &formula, None)
            .expect("fpqa accepts every formula");
        println!(
            "{:>8.3} {:>12} {:>10.2e} {:>8} {:>12.4}",
            fidelity.min(0.999),
            if compressed_mode {
                "CCZ (2+2)"
            } else {
                "CZ ladder"
            },
            out.metrics.eps,
            out.metrics.pulses,
            out.metrics.execution_micros * 1e-6,
        );
    }

    // A hypothetical next-generation device: faster motion, tighter traps.
    println!("\nnext-generation device (2x movement speed, 4 µm traps):");
    let mut params = FpqaParams::default();
    params.movement_speed *= 2.0;
    params.min_trap_distance = 4.0;
    params.rydberg_radius = 5.0;
    params.fidelity_ccz = 0.995;
    let weaver = Weaver::new().with_fpqa_params(params);
    let out = weaver
        .compile_workload_cached("fpqa", &formula, None)
        .expect("fpqa accepts every formula");
    let report = weaver
        .verify_workload(&out, &formula, None)
        .expect("fpqa has a checker");
    println!(
        "  EPS {:.2e}, execution {:.4} s, {} pulses, checker: {}",
        out.metrics.eps,
        out.metrics.execution_micros * 1e-6,
        out.metrics.pulses,
        if report.passed() { "PASS" } else { "FAIL" }
    );
    assert!(report.passed());
}
