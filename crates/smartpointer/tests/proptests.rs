//! Property tests of the analytics kernels on randomized atom
//! configurations.

use std::sync::Arc;

use proptest::prelude::*;
use smartpointer::{
    split_snapshot, AggregationTree, Bonds, FragmentFinder,
};

/// A random snapshot of up to `n` atoms in a periodic box.
fn arb_snapshot(max_atoms: usize) -> impl Strategy<Value = mdsim::Snapshot> {
    (
        1usize..=max_atoms,
        8.0f64..20.0,
        any::<u64>(),
    )
        .prop_flat_map(|(n, box_len, _seed)| {
            proptest::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), n).prop_map(
                move |coords| mdsim::Snapshot {
                    step: 0,
                    md_step: 0,
                    box_len: [box_len, box_len, box_len],
                    ids: Arc::new((0..coords.len() as u64).collect()),
                    pos: Arc::new(
                        coords
                            .iter()
                            .map(|&(x, y, z)| {
                                [
                                    x * box_len as f32,
                                    y * box_len as f32,
                                    z * box_len as f32,
                                ]
                            })
                            .collect(),
                    ),
                    strain: 0.0,
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cell-list kernel must agree with the literal O(n²) kernel on
    /// any configuration.
    #[test]
    fn bonds_kernels_agree_on_random_configs(snap in arb_snapshot(60)) {
        let k = Bonds { cutoff: 1.4, threads: 1 };
        let fast = k.compute(&snap);
        let slow = k.compute_n2(&snap);
        // Both kernels emit ascending rows: the CSR itself must agree.
        prop_assert_eq!(&*fast.adjacency, &*slow.adjacency);
    }

    /// Adjacency is always symmetric and never self-referential.
    #[test]
    fn adjacency_is_symmetric_and_irreflexive(snap in arb_snapshot(60)) {
        let out = Bonds { cutoff: 1.4, threads: 2 }.compute(&snap);
        let adj = &out.adjacency;
        for i in 0..adj.len() {
            for &j in adj.neighbors(i) {
                prop_assert_ne!(i as u32, j, "self-bond at {}", i);
                prop_assert!(adj.bonded(j as usize, i as u32), "asymmetric {i}-{j}");
            }
        }
    }

    /// Fragment labels always partition the atoms: labels are dense,
    /// sizes sum to the atom count, and bonded atoms share a label.
    #[test]
    fn fragments_partition_the_atoms(snap in arb_snapshot(60)) {
        let bonds = Bonds { cutoff: 1.4, threads: 1 }.compute(&snap);
        let frags = FragmentFinder.compute(&bonds);
        prop_assert_eq!(frags.labels.len(), snap.atom_count());
        let total: u32 = frags.sizes.iter().sum();
        prop_assert_eq!(total as usize, snap.atom_count());
        for i in 0..bonds.adjacency.len() {
            for &j in bonds.adjacency.neighbors(i) {
                prop_assert_eq!(frags.labels[i], frags.labels[j as usize]);
            }
        }
        for &l in &frags.labels {
            prop_assert!((l as usize) < frags.count());
        }
    }

    /// Splitting and re-aggregating a snapshot is the identity for any
    /// part count and fan-in.
    #[test]
    fn helper_tree_is_lossless(
        snap in arb_snapshot(80),
        parts in 1usize..12,
        fan_in in 2usize..6
    ) {
        let chunks = split_snapshot(&snap, parts);
        let merged = AggregationTree::new(fan_in).aggregate(chunks);
        prop_assert_eq!(&*merged.ids, &*snap.ids);
        prop_assert_eq!(&*merged.pos, &*snap.pos);
    }
}
