//! Calibrated service-time models for the discrete-event experiments.
//!
//! The paper-scale runs (8.8M–35.3M atoms) cannot execute the real kernels
//! inside a unit-test-speed simulation, so the DES charges each component a
//! service time from these models. The shapes follow Table I's complexity
//! column; the coefficients are chosen so the three Table II configurations
//! reproduce the paper's qualitative outcomes:
//!
//! * 256 sim nodes: Bonds (≈19 s/step) just misses the 15 s cadence on one
//!   replica and converges after stealing one node from Helper (Fig. 7);
//! * 512 sim nodes: Bonds (≈78 s/step) converges only after consuming the
//!   4 spare staging nodes (Fig. 8);
//! * 1024 sim nodes: Bonds (≈311 s/step) cannot converge within the
//!   staging area and is taken offline together with its dependents
//!   (Fig. 9/10). CSym (≈28 s/step) also exceeds the cadence here.

use sim_core::SimDuration;

use crate::component::{ComputeModel, Table1Names};

/// Service-time model: `t(n) = coeff_s · (n/1e6)^exponent` seconds.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    /// Seconds per (million atoms)^exponent.
    pub coeff_s: f64,
    /// Complexity exponent (Table I).
    pub exponent: f64,
    /// Fraction of ideal speedup retained per extra rank under the
    /// `Parallel` compute model (1.0 = perfect scaling).
    pub parallel_efficiency: f64,
}

impl ServiceModel {
    /// Service time for one step on a single instance. This is the only
    /// term that depends on the atom count; the DES evaluates it once per
    /// container when it builds a run and scales it with the forms below.
    pub fn step_time(&self, atoms: u64) -> SimDuration {
        let x = atoms as f64 / 1e6;
        SimDuration::from_secs_f64(self.coeff_s * x.powf(self.exponent))
    }

    /// Service time for one step given `units` resource units under the
    /// given compute model:
    /// * `Serial` — per-step time is the single-instance time;
    /// * `RoundRobin` — replicas alternate steps: per-step time unchanged
    ///   (throughput scales instead);
    /// * `Parallel`/`Tree` — ranks (or tree levels) cooperate on one step:
    ///   time divides by the effective speedup `1 + eff·(units-1)`.
    pub fn step_time_with(&self, atoms: u64, model: ComputeModel, units: u32) -> SimDuration {
        self.scaled_step_time(self.step_time(atoms), model, units)
    }

    /// [`step_time_with`](Self::step_time_with) from a precomputed
    /// single-instance time `base` (what [`step_time`](Self::step_time)
    /// returned for the atom count).
    pub fn scaled_step_time(
        &self,
        base: SimDuration,
        model: ComputeModel,
        units: u32,
    ) -> SimDuration {
        match model {
            ComputeModel::Serial | ComputeModel::RoundRobin => base,
            ComputeModel::Parallel | ComputeModel::Tree => {
                let units = units.max(1) as f64;
                let speedup = 1.0 + self.parallel_efficiency * (units - 1.0);
                base.mul_f64(1.0 / speedup)
            }
        }
    }

    /// Sustained throughput in steps/second given `units` resource units.
    /// Round-robin replication multiplies throughput; parallel ranks divide
    /// per-step time.
    pub fn throughput(&self, atoms: u64, model: ComputeModel, units: u32) -> f64 {
        self.throughput_from(self.step_time(atoms), model, units)
    }

    /// [`throughput`](Self::throughput) from a precomputed single-instance
    /// time `base`.
    pub fn throughput_from(&self, base: SimDuration, model: ComputeModel, units: u32) -> f64 {
        let units = units.max(1);
        match model {
            ComputeModel::RoundRobin => units as f64 / base.as_secs_f64().max(1e-12),
            _ => 1.0 / self.scaled_step_time(base, model, units).as_secs_f64().max(1e-12),
        }
    }

    /// Resource units needed to sustain one step every `cadence`.
    pub fn units_to_sustain(
        &self,
        atoms: u64,
        model: ComputeModel,
        cadence: SimDuration,
    ) -> u32 {
        self.units_to_sustain_from(self.step_time(atoms), model, cadence)
    }

    /// [`units_to_sustain`](Self::units_to_sustain) from a precomputed
    /// single-instance time `base`.
    pub fn units_to_sustain_from(
        &self,
        base: SimDuration,
        model: ComputeModel,
        cadence: SimDuration,
    ) -> u32 {
        let need = base.as_secs_f64() / cadence.as_secs_f64();
        match model {
            ComputeModel::RoundRobin => need.ceil().max(1.0) as u32,
            ComputeModel::Parallel | ComputeModel::Tree => {
                if need <= 1.0 {
                    1
                } else {
                    (((need - 1.0) / self.parallel_efficiency) + 1.0).ceil() as u32
                }
            }
            ComputeModel::Serial => 1, // serial cannot be helped by more units
        }
    }
}

/// Default calibrated models for the four SmartPointer components.
pub fn default_models() -> Table1Names<ServiceModel> {
    Table1Names {
        helper: ServiceModel { coeff_s: 0.35, exponent: 1.0, parallel_efficiency: 0.9 },
        bonds: ServiceModel { coeff_s: 0.25, exponent: 2.0, parallel_efficiency: 0.85 },
        csym: ServiceModel { coeff_s: 0.8, exponent: 1.0, parallel_efficiency: 0.9 },
        cna: ServiceModel { coeff_s: 0.02, exponent: 3.0, parallel_efficiency: 0.8 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::atoms_for_nodes;

    const CADENCE: SimDuration = SimDuration::from_secs(15);

    #[test]
    fn bonds_misses_cadence_at_256_on_one_replica() {
        let m = default_models().bonds;
        let atoms = atoms_for_nodes(256);
        let t = m.step_time(atoms);
        assert!(t > CADENCE, "bonds at 256 must exceed cadence: {t}");
        assert!(t < CADENCE * 2, "but only just: {t}");
        assert_eq!(m.units_to_sustain(atoms, ComputeModel::RoundRobin, CADENCE), 2);
    }

    #[test]
    fn bonds_needs_spares_at_512() {
        let m = default_models().bonds;
        let atoms = atoms_for_nodes(512);
        let needed = m.units_to_sustain(atoms, ComputeModel::RoundRobin, CADENCE);
        assert!((5..=7).contains(&needed), "512-node bonds needs ~6 replicas, got {needed}");
    }

    #[test]
    fn bonds_cannot_converge_at_1024() {
        let m = default_models().bonds;
        let atoms = atoms_for_nodes(1024);
        let needed = m.units_to_sustain(atoms, ComputeModel::RoundRobin, CADENCE);
        assert!(needed > 20, "1024-node bonds must be hopeless, got {needed}");
    }

    #[test]
    fn csym_fits_at_512_but_not_1024() {
        let m = default_models().csym;
        assert!(m.step_time(atoms_for_nodes(512)) < CADENCE);
        assert!(m.step_time(atoms_for_nodes(1024)) > CADENCE);
    }

    #[test]
    fn helper_is_overprovisioned_everywhere() {
        let m = default_models().helper;
        for nodes in [256, 512, 1024] {
            let t = m.step_time(atoms_for_nodes(nodes));
            assert!(t < CADENCE, "helper at {nodes}: {t}");
        }
    }

    #[test]
    fn round_robin_multiplies_throughput_not_speed() {
        let m = default_models().bonds;
        let atoms = atoms_for_nodes(256);
        let t1 = m.step_time_with(atoms, ComputeModel::RoundRobin, 1);
        let t4 = m.step_time_with(atoms, ComputeModel::RoundRobin, 4);
        assert_eq!(t1, t4, "RR must not change per-step time");
        let th1 = m.throughput(atoms, ComputeModel::RoundRobin, 1);
        let th4 = m.throughput(atoms, ComputeModel::RoundRobin, 4);
        assert!((th4 / th1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_divides_step_time() {
        let m = default_models().bonds;
        let atoms = atoms_for_nodes(256);
        let t1 = m.step_time_with(atoms, ComputeModel::Parallel, 1);
        let t4 = m.step_time_with(atoms, ComputeModel::Parallel, 4);
        assert!(t4 < t1.mul_f64(0.4), "4 ranks should give >2.5x: {t1} -> {t4}");
    }

    #[test]
    fn units_to_sustain_parallel_accounts_for_efficiency() {
        let m = ServiceModel { coeff_s: 30.0, exponent: 0.0, parallel_efficiency: 0.5 };
        // 30 s step, 15 s cadence: need speedup 2 => 1 + 0.5(u-1) >= 2 => u >= 3.
        assert_eq!(m.units_to_sustain(1_000_000, ComputeModel::Parallel, CADENCE), 3);
    }
}
