//! Physical parameters of the modelled FPQA device.
//!
//! Values follow the Rubidium-atom platforms the paper configures from
//! Schmid et al. 2024 [83] and Evered et al. 2023 [26]: ~0.995 two-qubit
//! (CZ) fidelity, CCZ around 0.98 (the paper's §8.4 baseline), slow atom
//! motion relative to gates, and second-scale coherence.

/// Physical and noise parameters of an FPQA backend. All lengths in
/// micrometres, durations in microseconds, fidelities as success
/// probabilities in `(0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FpqaParams {
    /// Minimum distance between any two occupied traps (5–10 µm per §4.3).
    pub min_trap_distance: f64,
    /// Blockade radius within which a Rydberg pulse entangles atoms.
    pub rydberg_radius: f64,
    /// Maximum SLM↔AOD distance for an atom transfer.
    pub max_transfer_distance: f64,
    /// AOD movement speed (µm/µs). Motion must stay slow to keep atoms.
    pub movement_speed: f64,
    /// Fixed per-shuttle ramp-up/ramp-down overhead (µs).
    pub shuttle_overhead: f64,
    /// Duration of a local Raman pulse (µs).
    pub raman_local_duration: f64,
    /// Duration of a global Raman pulse (µs).
    pub raman_global_duration: f64,
    /// Duration of a global Rydberg pulse (µs).
    pub rydberg_duration: f64,
    /// Duration of an atom transfer between layers (µs).
    pub transfer_duration: f64,
    /// Single-qubit (Raman) gate fidelity.
    pub fidelity_1q: f64,
    /// Two-qubit CZ fidelity.
    pub fidelity_cz: f64,
    /// Three-qubit CCZ fidelity (paper §8.4 sweeps this; default 0.98).
    pub fidelity_ccz: f64,
    /// Atom-transfer success probability.
    pub fidelity_transfer: f64,
    /// Per-µm movement fidelity cost (heating); success ≈ exp(-d·this).
    pub movement_loss_per_um: f64,
    /// Qubit coherence time T2 (µs) — idle decoherence reference.
    pub t2_coherence: f64,
}

impl FpqaParams {
    /// Rubidium-atom defaults from the literature the paper configures
    /// against ([26, 83]).
    pub fn rubidium() -> Self {
        FpqaParams {
            min_trap_distance: 5.0,
            rydberg_radius: 6.0,
            max_transfer_distance: 5.0,
            movement_speed: 0.55,
            shuttle_overhead: 10.0,
            raman_local_duration: 2.0,
            raman_global_duration: 1.0,
            rydberg_duration: 0.4,
            transfer_duration: 15.0,
            fidelity_1q: 0.9997,
            fidelity_cz: 0.995,
            fidelity_ccz: 0.98,
            fidelity_transfer: 0.999,
            movement_loss_per_um: 1e-5,
            t2_coherence: 1_500_000.0, // 1.5 s
        }
    }

    /// Returns a copy with a different CCZ fidelity (Fig. 10c sweep).
    pub fn with_ccz_fidelity(mut self, fidelity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fidelity),
            "fidelity must be in [0, 1], got {fidelity}"
        );
        self.fidelity_ccz = fidelity;
        self
    }

    /// Time to move an AOD row/column by `distance` µm, including ramps.
    pub fn shuttle_time(&self, distance: f64) -> f64 {
        self.shuttle_overhead + distance.abs() / self.movement_speed
    }

    /// Success probability of a shuttle over `distance` µm.
    pub fn shuttle_fidelity(&self, distance: f64) -> f64 {
        (-distance.abs() * self.movement_loss_per_um).exp()
    }

    /// Fidelity of one Rydberg interaction group of the given size
    /// (2 ⇒ CZ, 3 ⇒ CCZ, larger groups extrapolate multiplicatively).
    pub fn rydberg_group_fidelity(&self, group_size: usize) -> f64 {
        match group_size {
            0 | 1 => 1.0,
            2 => self.fidelity_cz,
            3 => self.fidelity_ccz,
            n => {
                // CnZ for n ≥ 3 controls: degrade by the CCZ/CZ ratio per
                // extra atom (conservative extrapolation).
                let extra = (n - 3) as f64;
                self.fidelity_ccz * (self.fidelity_ccz / self.fidelity_cz).powf(extra)
            }
        }
    }

    /// Idle-decoherence survival factor for `num_qubits` qubits over
    /// `duration` µs: `exp(-n·t/T2)`.
    pub fn decoherence_factor(&self, num_qubits: usize, duration: f64) -> f64 {
        (-(num_qubits as f64) * duration / self.t2_coherence).exp()
    }
}

impl Default for FpqaParams {
    fn default() -> Self {
        FpqaParams::rubidium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_physical() {
        let p = FpqaParams::default();
        assert!(p.min_trap_distance >= 5.0 && p.min_trap_distance <= 10.0);
        assert!(p.fidelity_cz > p.fidelity_ccz);
        assert!(p.rydberg_duration < p.transfer_duration);
        assert!((0.0..1.0).contains(&p.movement_loss_per_um));
    }

    #[test]
    fn shuttle_time_increases_with_distance() {
        let p = FpqaParams::default();
        assert!(p.shuttle_time(100.0) > p.shuttle_time(10.0));
        assert!(p.shuttle_time(0.0) == p.shuttle_overhead);
        assert_eq!(p.shuttle_time(-20.0), p.shuttle_time(20.0));
    }

    #[test]
    fn fidelities_bounded() {
        let p = FpqaParams::default();
        for d in [0.0, 5.0, 500.0] {
            let f = p.shuttle_fidelity(d);
            assert!((0.0..=1.0).contains(&f));
        }
        for n in 0..6 {
            let f = p.rydberg_group_fidelity(n);
            assert!((0.0..=1.0).contains(&f), "group {n} fidelity {f}");
        }
    }

    #[test]
    fn group_fidelity_monotone_in_size() {
        let p = FpqaParams::default();
        assert!(p.rydberg_group_fidelity(2) > p.rydberg_group_fidelity(3));
        assert!(p.rydberg_group_fidelity(3) > p.rydberg_group_fidelity(4));
    }

    #[test]
    fn ccz_sweep() {
        let p = FpqaParams::default().with_ccz_fidelity(0.9916);
        assert_eq!(p.rydberg_group_fidelity(3), 0.9916);
    }

    #[test]
    fn decoherence_factor_shape() {
        let p = FpqaParams::default();
        assert!(p.decoherence_factor(10, 0.0) == 1.0);
        assert!(p.decoherence_factor(10, 1000.0) < 1.0);
        assert!(p.decoherence_factor(20, 1000.0) < p.decoherence_factor(10, 1000.0));
    }
}
