//! Conversions between analysis data and ADIOS step records.
//!
//! The threaded pipeline moves real data between containers through the
//! ADIOS write/read interfaces (as the paper's components do), so atom
//! snapshots and analysis outputs must round-trip through [`StepData`].

use std::sync::Arc;

use adios::{AttrValue, DataType, Dims, Group, StepData, Value};
use mdsim::Snapshot;
use smartpointer::{Adjacency, BondsOutput, CSymOutput};

/// The I/O group schema for atom snapshots.
pub fn atoms_group() -> Group {
    let mut g = Group::new("atoms");
    g.define_var("id", DataType::I64)
        .define_var("pos", DataType::F32)
        .define_var("box", DataType::F64);
    g
}

/// Encodes a snapshot as an ADIOS step.
pub fn snapshot_to_step(snap: &Snapshot) -> StepData {
    let g = atoms_group();
    let n = snap.atom_count() as u64;
    let mut step = StepData::new(snap.step);
    let ids: Vec<i64> = snap.ids.iter().map(|&i| i as i64).collect();
    step.write(&g, "id", Value::from_i64(&ids, Dims::local1d(n)).expect("length matches"))
        .expect("schema matches");
    let flat: Vec<f32> = snap.pos.iter().flat_map(|p| p.iter().copied()).collect();
    step.write(&g, "pos", Value::from_f32(&flat, Dims::local1d(3 * n)).expect("length matches"))
        .expect("schema matches");
    step.write(
        &g,
        "box",
        Value::from_f64(&snap.box_len, Dims::local1d(3)).expect("length matches"),
    )
    .expect("schema matches");
    step.set_attr("md_step", AttrValue::Int(snap.md_step as i64));
    step.set_attr("strain", AttrValue::Float(snap.strain));
    step
}

/// Decodes a snapshot from an ADIOS step. Returns `None` if the step does
/// not carry the atoms schema, or its `box` does not hold exactly 3 values.
pub fn step_to_snapshot(step: &StepData) -> Option<Snapshot> {
    let ids: Vec<u64> =
        step.value("id")?.as_i64().ok()?.iter().map(|&i| i as u64).collect();
    let flat = step.value("pos")?.as_f32().ok()?;
    if flat.len() != ids.len() * 3 {
        return None;
    }
    let pos: Vec<[f32; 3]> = flat.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
    let box_len: [f64; 3] = step.value("box")?.as_f64().ok()?.try_into().ok()?;
    let md_step = match step.attr("md_step") {
        Some(AttrValue::Int(i)) => *i as u64,
        _ => 0,
    };
    let strain = match step.attr("strain") {
        Some(AttrValue::Float(x)) => *x,
        _ => 0.0,
    };
    Some(Snapshot {
        step: step.step(),
        md_step,
        box_len,
        ids: Arc::new(ids),
        pos: Arc::new(pos),
        strain,
    })
}

/// Encodes Bonds output (the ingested atoms plus the adjacency list) as an
/// ADIOS step — the component's two declared outputs.
pub fn bonds_to_step(out: &BondsOutput) -> StepData {
    let mut step = snapshot_to_step(&out.snapshot);
    let (offsets, neighbors) = out.adjacency.csr();
    let as_i32 = |xs: &[u32]| -> Vec<i32> { xs.iter().map(|&x| x as i32).collect() };
    let (offsets, neighbors) = (as_i32(offsets), as_i32(neighbors));
    step.write_unchecked(
        "adj_offsets",
        Value::from_i32(&offsets, Dims::local1d(offsets.len() as u64)).expect("length matches"),
    );
    step.write_unchecked(
        "adj_neighbors",
        Value::from_i32(&neighbors, Dims::local1d(neighbors.len() as u64))
            .expect("length matches"),
    );
    step.set_attr("bond_cutoff", AttrValue::Float(out.cutoff));
    step
}

/// Decodes Bonds output from an ADIOS step. Returns `None` if the step
/// does not carry the schema or its adjacency is not a valid CSR over the
/// step's atoms (negative, decreasing or overrunning offsets, or neighbor
/// ids outside the atoms).
pub fn step_to_bonds(step: &StepData) -> Option<BondsOutput> {
    let snapshot = step_to_snapshot(step)?;
    let as_u32 = |xs: &[i32]| -> Option<Vec<u32>> {
        xs.iter().map(|&x| u32::try_from(x).ok()).collect()
    };
    let offsets = as_u32(step.value("adj_offsets")?.as_i32().ok()?)?;
    let neighbors = as_u32(step.value("adj_neighbors")?.as_i32().ok()?)?;
    let adjacency = Adjacency::from_csr(offsets, neighbors, snapshot.atom_count())?;
    let cutoff = match step.attr("bond_cutoff") {
        Some(AttrValue::Float(x)) => *x,
        _ => 0.0,
    };
    Some(BondsOutput { snapshot, adjacency: Arc::new(adjacency), cutoff })
}

/// Encodes CSym output as an ADIOS step (per-atom CSP plus the verdict).
pub fn csym_to_step(out: &CSymOutput) -> StepData {
    let mut step = StepData::new(out.step);
    step.write_unchecked(
        "csp",
        Value::from_f32(&out.csp, Dims::local1d(out.csp.len() as u64)).expect("length matches"),
    );
    step.set_attr("break_detected", AttrValue::Int(out.break_detected as i64));
    step.set_attr("defective_fraction", AttrValue::Float(out.defective_fraction));
    step
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::{MdConfig, MdEngine};
    use smartpointer::Bonds;

    #[test]
    fn snapshot_round_trips() {
        let snap = MdEngine::new(MdConfig::default()).run_epoch(3);
        let step = snapshot_to_step(&snap);
        let back = step_to_snapshot(&step).expect("valid step");
        assert_eq!(*back.ids, *snap.ids);
        assert_eq!(*back.pos, *snap.pos);
        assert_eq!(back.box_len, snap.box_len);
        assert_eq!(back.step, snap.step);
        assert_eq!(back.md_step, snap.md_step);
    }

    #[test]
    fn bonds_round_trips() {
        let snap = MdEngine::new(MdConfig::default()).run_epoch(1);
        let out = Bonds::default().compute(&snap);
        let step = bonds_to_step(&out);
        let back = step_to_bonds(&step).expect("valid step");
        assert_eq!(*back.adjacency, *out.adjacency);
        assert_eq!(back.cutoff, out.cutoff);
        assert_eq!(*back.snapshot.pos, *snap.pos);
    }

    /// A four-atom Bonds step with its adjacency arrays replaced.
    fn bonds_step_with(offsets: &[i32], neighbors: &[i32]) -> StepData {
        let snap = MdEngine::new(MdConfig { cells: (1, 1, 1), ..MdConfig::default() }).run_epoch(1);
        let mut step = bonds_to_step(&Bonds::default().compute(&snap));
        step.write_unchecked(
            "adj_offsets",
            Value::from_i32(offsets, Dims::local1d(offsets.len() as u64)).expect("length matches"),
        );
        step.write_unchecked(
            "adj_neighbors",
            Value::from_i32(neighbors, Dims::local1d(neighbors.len() as u64))
                .expect("length matches"),
        );
        step
    }

    /// The helper's step decodes when its arrays are well formed, so each
    /// rejection below is down to the one malformation it introduces.
    #[test]
    fn well_formed_adjacency_decodes() {
        // Four atoms: 0–1 and 2–3 bonded.
        let back = step_to_bonds(&bonds_step_with(&[0, 1, 2, 3, 4], &[1, 0, 3, 2]))
            .expect("valid adjacency");
        assert_eq!(back.adjacency.neighbors(1), &[0]);
        assert_eq!(back.adjacency.neighbors(3), &[2]);
    }

    #[test]
    fn decreasing_offsets_are_rejected() {
        assert!(step_to_bonds(&bonds_step_with(&[0, 2, 1, 3, 4], &[1, 0, 3, 2])).is_none());
    }

    #[test]
    fn negative_offsets_are_rejected() {
        assert!(step_to_bonds(&bonds_step_with(&[0, -1, 2, 3, 4], &[1, 0, 3, 2])).is_none());
        assert!(step_to_bonds(&bonds_step_with(&[-1, 1, 2, 3, 4], &[1, 0, 3, 2])).is_none());
    }

    #[test]
    fn offsets_past_the_neighbors_are_rejected() {
        assert!(step_to_bonds(&bonds_step_with(&[0, 1, 2, 3, 9], &[1, 0, 3, 2])).is_none());
        // Short of the end leaves neighbors no row owns.
        assert!(step_to_bonds(&bonds_step_with(&[0, 1, 2, 3, 3], &[1, 0, 3, 2])).is_none());
        // A first offset other than 0 does the same at the front.
        assert!(step_to_bonds(&bonds_step_with(&[1, 1, 2, 3, 4], &[1, 0, 3, 2])).is_none());
    }

    #[test]
    fn out_of_range_neighbor_ids_are_rejected() {
        assert!(step_to_bonds(&bonds_step_with(&[0, 1, 2, 3, 4], &[1, 0, 4, 2])).is_none());
        assert!(step_to_bonds(&bonds_step_with(&[0, 1, 2, 3, 4], &[1, -1, 3, 2])).is_none());
    }

    #[test]
    fn offsets_for_another_atom_count_are_rejected() {
        assert!(step_to_bonds(&bonds_step_with(&[0, 1, 2, 3], &[1, 0, 3])).is_none());
        assert!(step_to_bonds(&bonds_step_with(&[], &[])).is_none());
    }

    #[test]
    fn empty_step_is_rejected() {
        assert!(step_to_snapshot(&StepData::new(0)).is_none());
        assert!(step_to_bonds(&StepData::new(0)).is_none());
    }

    /// A step whose `box` holds `len` values in place of the 3 it should.
    fn step_with_box_len(len: usize) -> StepData {
        let snap = MdEngine::new(MdConfig { cells: (1, 1, 1), ..MdConfig::default() }).run_epoch(1);
        let mut step = bonds_to_step(&Bonds::default().compute(&snap));
        let b = vec![snap.box_len[0]; len];
        let b = Value::from_f64(&b, Dims::local1d(len as u64)).expect("length matches");
        step.write_unchecked("box", b);
        step
    }

    #[test]
    fn empty_box_is_rejected() {
        assert!(step_to_snapshot(&step_with_box_len(0)).is_none());
        assert!(step_to_bonds(&step_with_box_len(0)).is_none());
    }

    #[test]
    fn one_value_box_is_rejected() {
        assert!(step_to_snapshot(&step_with_box_len(1)).is_none());
        assert!(step_to_bonds(&step_with_box_len(1)).is_none());
    }

    #[test]
    fn four_value_box_is_rejected() {
        assert!(step_to_snapshot(&step_with_box_len(4)).is_none());
        assert!(step_to_bonds(&step_with_box_len(4)).is_none());
        // The helper changes nothing else: with 3 values the step decodes.
        assert!(step_to_bonds(&step_with_box_len(3)).is_some());
    }

    #[test]
    fn csym_carries_verdict() {
        let snap = MdEngine::new(MdConfig::default()).run_epoch(1);
        let bonds = Bonds::default().compute(&snap);
        let csym = smartpointer::CSym::default().compute(&bonds);
        let step = csym_to_step(&csym);
        assert_eq!(step.attr("break_detected"), Some(&AttrValue::Int(0)));
        assert_eq!(step.value("csp").unwrap().as_f32().unwrap().len(), snap.atom_count());
    }
}
