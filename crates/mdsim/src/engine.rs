//! The MD engine: velocity-Verlet integration, applied strain, and crack
//! nucleation.
//!
//! The fracture scenario mirrors the paper's LAMMPS use case: a crystal is
//! pulled along x; once the accumulated strain passes the yield point the
//! sample fails across a plane, opening a gap wider than the interaction
//! cutoff. Downstream, the SmartPointer Bonds/CSym components detect the
//! event purely from the data — the "dynamic response to the data itself"
//! the container runtime manages around.

use crate::config::MdConfig;
use crate::force::{compute_forces, ForceStats};
use crate::snapshot::Snapshot;
use crate::system::System;

/// The crack gap opened at failure, in units of the interaction cutoff.
/// Anything > 1 guarantees bonds across the plane are broken.
const CRACK_GAP_CUTOFFS: f64 = 1.6;

/// A running molecular-dynamics simulation.
pub struct MdEngine {
    cfg: MdConfig,
    sys: System,
    md_step: u64,
    outputs: u64,
    strain: f64,
    cracked: bool,
    last_stats: ForceStats,
}

impl MdEngine {
    /// Initializes the crystal and evaluates initial forces.
    pub fn new(cfg: MdConfig) -> MdEngine {
        let mut sys = System::fcc(&cfg);
        let last_stats = compute_forces(&mut sys, cfg.cutoff, cfg.threads);
        MdEngine { cfg, sys, md_step: 0, outputs: 0, strain: 0.0, cracked: false, last_stats }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MdConfig {
        &self.cfg
    }

    /// Read access to the particle state.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// MD steps taken so far.
    pub fn md_step(&self) -> u64 {
        self.md_step
    }

    /// Accumulated strain.
    pub fn strain(&self) -> f64 {
        self.strain
    }

    /// True once the sample has failed.
    pub fn cracked(&self) -> bool {
        self.cracked
    }

    /// Statistics from the most recent force evaluation.
    pub fn force_stats(&self) -> ForceStats {
        self.last_stats
    }

    /// Total energy (kinetic + potential) from the last evaluation.
    pub fn total_energy(&self) -> f64 {
        self.sys.kinetic_energy() + self.last_stats.potential
    }

    /// Advances one velocity-Verlet step, applying strain if configured.
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        let n = self.sys.len();

        // Half kick + drift.
        for i in 0..n {
            for k in 0..3 {
                self.sys.vel[i][k] += 0.5 * dt * self.sys.force[i][k];
                self.sys.pos[i][k] += dt * self.sys.vel[i][k];
            }
        }

        if self.cfg.strain_per_step > 0.0 {
            self.apply_strain();
        }
        self.sys.wrap();

        // New forces + second half kick.
        self.last_stats = compute_forces(&mut self.sys, self.cfg.cutoff, self.cfg.threads);
        for i in 0..n {
            for k in 0..3 {
                self.sys.vel[i][k] += 0.5 * dt * self.sys.force[i][k];
            }
        }
        self.md_step += 1;
    }

    /// Advances `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Affinely stretches the box along x; nucleates the crack at yield.
    fn apply_strain(&mut self) {
        let eps = self.cfg.strain_per_step;
        self.strain += eps;
        let scale = 1.0 + eps;
        self.sys.box_len[0] *= scale;
        for p in &mut self.sys.pos {
            p[0] *= scale;
        }
        if !self.cracked && self.strain >= self.cfg.yield_strain {
            self.nucleate_crack();
        }
    }

    /// Opens a planar gap at x = L/2: every atom beyond the plane shifts by
    /// a gap wider than the cutoff, and the box grows to hold it, so all
    /// bonds across the plane are geometrically broken.
    fn nucleate_crack(&mut self) {
        let gap = CRACK_GAP_CUTOFFS * self.cfg.cutoff;
        let plane = 0.5 * self.sys.box_len[0];
        for p in &mut self.sys.pos {
            if p[0] > plane {
                p[0] += gap;
            }
        }
        // Grow the box by two gaps so the periodic image across x also
        // separates (otherwise atoms near x=0 and x=L would still bond).
        self.sys.box_len[0] += 2.0 * gap;
        self.cracked = true;
    }

    /// Runs one output epoch of `steps_per_epoch` MD steps and captures the
    /// resulting snapshot (LAMMPS's "dump every N steps").
    pub fn run_epoch(&mut self, steps_per_epoch: u64) -> Snapshot {
        self.run(steps_per_epoch);
        let snap = Snapshot::capture(&self.sys, self.outputs, self.md_step, self.strain);
        self.outputs += 1;
        snap
    }

    /// Serializes the full dynamic state (checkpoint).
    pub fn checkpoint(&self) -> Vec<u8> {
        let n = self.sys.len();
        let mut out = Vec::with_capacity(32 + n * (8 + 48));
        out.extend_from_slice(b"MDCK");
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&self.md_step.to_le_bytes());
        out.extend_from_slice(&self.outputs.to_le_bytes());
        out.extend_from_slice(&self.strain.to_le_bytes());
        out.push(self.cracked as u8);
        for k in 0..3 {
            out.extend_from_slice(&self.sys.box_len[k].to_le_bytes());
        }
        for i in 0..n {
            out.extend_from_slice(&self.sys.ids[i].to_le_bytes());
            for k in 0..3 {
                out.extend_from_slice(&self.sys.pos[i][k].to_le_bytes());
            }
            for k in 0..3 {
                out.extend_from_slice(&self.sys.vel[i][k].to_le_bytes());
            }
        }
        out
    }

    /// Restores a run from a checkpoint produced by [`MdEngine::checkpoint`]
    /// with the same configuration. Returns `None` on a malformed blob.
    pub fn restore(cfg: MdConfig, blob: &[u8]) -> Option<MdEngine> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
            let s = blob.get(*at..*at + n)?;
            *at += n;
            Some(s)
        };
        let f64_at = |at: &mut usize| -> Option<f64> {
            Some(f64::from_le_bytes(take(at, 8)?.try_into().ok()?))
        };
        let u64_at = |at: &mut usize| -> Option<u64> {
            Some(u64::from_le_bytes(take(at, 8)?.try_into().ok()?))
        };

        if take(&mut at, 4)? != b"MDCK" {
            return None;
        }
        let n = usize::try_from(u64_at(&mut at)?).ok()?;
        let md_step = u64_at(&mut at)?;
        let outputs = u64_at(&mut at)?;
        let strain = f64_at(&mut at)?;
        let cracked = take(&mut at, 1)?[0] != 0;
        let mut box_len = [0.0; 3];
        for b in &mut box_len {
            *b = f64_at(&mut at)?;
        }
        // Each atom record is an id plus six f64s (56 bytes). The count
        // comes from the blob, so bound it by the bytes actually left
        // before sizing any allocation from it.
        if n.checked_mul(8 + 48)? > blob.len() - at {
            return None;
        }
        let mut ids = Vec::with_capacity(n);
        let mut pos = Vec::with_capacity(n);
        let mut vel = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(u64_at(&mut at)?);
            let mut p = [0.0; 3];
            for x in &mut p {
                *x = f64_at(&mut at)?;
            }
            let mut v = [0.0; 3];
            for x in &mut v {
                *x = f64_at(&mut at)?;
            }
            pos.push(p);
            vel.push(v);
        }
        if at != blob.len() {
            return None;
        }
        let mut sys = System { ids, pos, vel, force: vec![[0.0; 3]; n], box_len };
        let last_stats = compute_forces(&mut sys, cfg.cutoff, cfg.threads);
        Some(MdEngine { cfg, sys, md_step, outputs, strain, cracked, last_stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nve_energy_is_conserved() {
        let cfg = MdConfig { temperature: 0.05, ..MdConfig::default() };
        let mut md = MdEngine::new(cfg);
        let e0 = md.total_energy();
        md.run(200);
        let e1 = md.total_energy();
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 1e-3, "energy drift {drift} over 200 steps (e0={e0}, e1={e1})");
    }

    #[test]
    fn strain_grows_box_and_eventually_cracks() {
        let cfg = MdConfig { strain_per_step: 0.005, yield_strain: 0.05, ..MdConfig::default() };
        let l0 = cfg.box_lengths()[0];
        let mut md = MdEngine::new(cfg);
        assert!(!md.cracked());
        md.run(20); // 10% strain > 5% yield
        assert!(md.cracked());
        assert!(md.system().box_len[0] > l0 * 1.05);
    }

    #[test]
    fn crack_opens_gap_wider_than_cutoff() {
        let cfg = MdConfig { strain_per_step: 0.005, yield_strain: 0.02, ..MdConfig::default() };
        let cutoff = cfg.cutoff;
        let mut md = MdEngine::new(cfg);
        md.run(10);
        assert!(md.cracked());
        // No pair should straddle the crack plane within the cutoff:
        // verify a gap exists by checking the sorted x-coordinates have a
        // jump larger than the cutoff somewhere.
        let mut xs: Vec<f64> = md.system().pos.iter().map(|p| p[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let max_jump =
            xs.windows(2).map(|w| w[1] - w[0]).fold(0.0f64, f64::max);
        assert!(max_jump > cutoff, "largest x-gap {max_jump} <= cutoff {cutoff}");
    }

    #[test]
    fn epochs_number_snapshots_sequentially() {
        let mut md = MdEngine::new(MdConfig::default());
        let s0 = md.run_epoch(5);
        let s1 = md.run_epoch(5);
        assert_eq!(s0.step, 0);
        assert_eq!(s1.step, 1);
        assert_eq!(s1.md_step, 10);
    }

    #[test]
    fn checkpoint_restore_is_bit_exact() {
        let cfg = MdConfig::default();
        let mut md = MdEngine::new(cfg.clone());
        md.run(17);
        let ck = md.checkpoint();
        let restored = MdEngine::restore(cfg.clone(), &ck).expect("valid checkpoint");
        assert_eq!(restored.md_step(), 17);
        assert_eq!(restored.system().pos, md.system().pos);
        assert_eq!(restored.system().vel, md.system().vel);

        // Both trajectories must continue identically.
        let mut a = md;
        let mut b = restored;
        a.run(5);
        b.run(5);
        assert_eq!(a.system().pos, b.system().pos);
    }

    #[test]
    fn corrupt_checkpoint_rejected() {
        let cfg = MdConfig::default();
        let md = MdEngine::new(cfg.clone());
        let mut ck = md.checkpoint();
        ck.truncate(ck.len() - 3);
        assert!(MdEngine::restore(cfg.clone(), &ck).is_none());
        let mut bad_magic = md.checkpoint();
        bad_magic[0] = b'X';
        assert!(MdEngine::restore(cfg.clone(), &bad_magic).is_none());
        // An atom count larger than the blob must be refused before it
        // sizes an allocation.
        for n in [1u64 << 40, u64::MAX] {
            let mut huge = md.checkpoint();
            huge[4..12].copy_from_slice(&n.to_le_bytes());
            assert!(MdEngine::restore(cfg.clone(), &huge).is_none(), "n = {n}");
        }
    }

    #[test]
    fn deterministic_across_engines() {
        let cfg = MdConfig::default();
        let mut a = MdEngine::new(cfg.clone());
        let mut b = MdEngine::new(cfg);
        a.run(25);
        b.run(25);
        assert_eq!(a.system().pos, b.system().pos);
    }
}
