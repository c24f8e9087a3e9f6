//! Fragment detection and tracking.
//!
//! The paper's future-work use case: the CTH shock-physics pipeline turns
//! raw atomic data into *material fragments* and tracks them as they
//! evolve, "opening new opportunities for understanding the physics at
//! work". The kernel is connected-component analysis over the bonded
//! adjacency: each component is a fragment; tracking matches fragments
//! across steps by shared atom ids.

// Maps whose iteration order reaches results (majority votes, split
// events) are BTreeMaps; lookup-only maps stay hashed.
#[expect(clippy::disallowed_types, reason = "imports the lookup-only maps below")]
use std::collections::{BTreeMap, HashMap};

use crate::bonds::BondsOutput;

/// Connected-component labeling of one step.
#[derive(Clone, Debug)]
pub struct Fragments {
    /// The step analyzed.
    pub step: u64,
    /// Fragment label per atom (0-based, dense).
    pub labels: Vec<u32>,
    /// Atom count per fragment, indexed by label.
    pub sizes: Vec<u32>,
}

impl Fragments {
    /// Number of fragments found.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// The label of the largest fragment.
    pub fn largest(&self) -> Option<u32> {
        self.sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .map(|(ix, _)| ix as u32)
    }
}

/// The fragment-detection kernel: union-find over bonded pairs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FragmentFinder;

impl FragmentFinder {
    /// Labels the connected components of the bonded adjacency.
    pub fn compute(&self, input: &BondsOutput) -> Fragments {
        let adj = &input.adjacency;
        let n = adj.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();

        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                // Path halving.
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }

        for i in 0..n {
            for &j in adj.neighbors(i) {
                let (a, b) = (find(&mut parent, i as u32), find(&mut parent, j));
                if a != b {
                    parent[a.max(b) as usize] = a.min(b);
                }
            }
        }

        // Dense relabeling + sizes.
        #[expect(clippy::disallowed_types, reason = "lookup-only: root → dense label")]
        let mut dense: HashMap<u32, u32> = HashMap::new();
        let mut labels = Vec::with_capacity(n);
        let mut sizes: Vec<u32> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i as u32);
            let next = sizes.len() as u32;
            let label = *dense.entry(root).or_insert_with(|| {
                sizes.push(0);
                next
            });
            sizes[label as usize] += 1;
            labels.push(label);
        }

        Fragments { step: input.snapshot.step, labels, sizes }
    }
}

/// Tracks fragments across steps by atom membership overlap, assigning
/// stable identities so science users can follow a fragment through time.
#[derive(Clone, Debug, Default)]
pub struct FragmentTracker {
    next_id: u64,
    /// Stable id of the fragment each atom belonged to at the last step.
    #[expect(clippy::disallowed_types, reason = "lookup-only: atom → prior fragment id")]
    by_atom: HashMap<u64, u64>,
    history: Vec<TrackEvent>,
}

/// An event observed while tracking fragments between steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrackEvent {
    /// A new fragment appeared.
    Born {
        /// Stable id assigned.
        id: u64,
        /// Step of first observation.
        step: u64,
        /// Atom count.
        size: u32,
    },
    /// A fragment split into several (e.g. the crack event).
    Split {
        /// The parent fragment.
        parent: u64,
        /// The child fragment ids.
        children: Vec<u64>,
        /// Step at which the split was observed.
        step: u64,
    },
}

impl FragmentTracker {
    /// Creates an empty tracker.
    pub fn new() -> FragmentTracker {
        FragmentTracker::default()
    }

    /// Observed track events so far.
    pub fn events(&self) -> &[TrackEvent] {
        &self.history
    }

    /// Absorbs one step's fragments, matching them to prior identities by
    /// majority atom overlap. Returns the stable id per fragment label.
    pub fn observe(&mut self, snap_ids: &[u64], frags: &Fragments) -> Vec<u64> {
        assert_eq!(snap_ids.len(), frags.labels.len(), "one label per atom");

        // Count, per fragment label, how many atoms came from each prior id.
        let mut votes: Vec<BTreeMap<u64, u32>> = vec![BTreeMap::new(); frags.count()];
        for (atom, &label) in snap_ids.iter().zip(&frags.labels) {
            if let Some(&prev) = self.by_atom.get(atom) {
                *votes[label as usize].entry(prev).or_insert(0) += 1;
            }
        }

        // Majority vote; fragments with no inherited atoms are born fresh.
        let mut assigned: Vec<u64> = Vec::with_capacity(frags.count());
        let mut children_of: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (label, vote) in votes.iter().enumerate() {
            let winner = vote.iter().max_by_key(|&(_, &c)| c).map(|(&id, _)| id);
            let id = match winner {
                Some(parent) => {
                    let id = if children_of.contains_key(&parent) {
                        // The parent already claimed by another child:
                        // this is a split — mint a new id.
                        let id = self.next_id;
                        self.next_id += 1;
                        id
                    } else {
                        parent
                    };
                    children_of.entry(parent).or_default().push(id);
                    id
                }
                None => {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.history.push(TrackEvent::Born {
                        id,
                        step: frags.step,
                        size: frags.sizes[label],
                    });
                    id
                }
            };
            assigned.push(id);
        }

        for (parent, children) in children_of {
            if children.len() > 1 {
                self.history.push(TrackEvent::Split { parent, children, step: frags.step });
            }
        }

        // Update atom membership for the next step.
        self.by_atom = snap_ids
            .iter()
            .zip(&frags.labels)
            .map(|(&atom, &label)| (atom, assigned[label as usize]))
            .collect();
        assigned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bonds::Bonds;
    use mdsim::{MdConfig, MdEngine};

    #[test]
    fn pristine_crystal_is_one_fragment() {
        let snap = MdEngine::new(MdConfig::default()).run_epoch(1);
        let bonds = Bonds::default().compute(&snap);
        let frags = FragmentFinder.compute(&bonds);
        assert_eq!(frags.count(), 1);
        assert_eq!(frags.sizes[0] as usize, snap.atom_count());
        assert_eq!(frags.largest(), Some(0));
    }

    #[test]
    fn crack_splits_the_sample_in_two() {
        let cfg = MdConfig {
            temperature: 0.02,
            strain_per_step: 0.005,
            yield_strain: 0.02,
            ..MdConfig::default()
        };
        let mut md = MdEngine::new(cfg);
        md.run(10);
        assert!(md.cracked());
        let snap = md.run_epoch(1);
        let bonds = Bonds::default().compute(&snap);
        let frags = FragmentFinder.compute(&bonds);
        assert_eq!(frags.count(), 2, "the planar crack must yield two fragments");
        let total: u32 = frags.sizes.iter().sum();
        assert_eq!(total as usize, snap.atom_count());
        // Both halves are substantial.
        assert!(frags.sizes.iter().all(|&s| s as usize > snap.atom_count() / 4));
    }

    #[test]
    fn tracker_reports_birth_then_split() {
        let cfg = MdConfig {
            temperature: 0.02,
            strain_per_step: 0.005,
            yield_strain: 0.06,
            ..MdConfig::default()
        };
        let mut md = MdEngine::new(cfg);
        let mut tracker = FragmentTracker::new();

        // Step 0: intact.
        let snap0 = md.run_epoch(2);
        let f0 = FragmentFinder.compute(&Bonds::default().compute(&snap0));
        let ids0 = tracker.observe(&snap0.ids, &f0);
        assert_eq!(ids0.len(), 1);
        assert!(matches!(tracker.events()[0], TrackEvent::Born { id: 0, .. }));

        // Later: cracked.
        md.run(15);
        assert!(md.cracked());
        let snap1 = md.run_epoch(1);
        let f1 = FragmentFinder.compute(&Bonds::default().compute(&snap1));
        let ids1 = tracker.observe(&snap1.ids, &f1);
        assert_eq!(ids1.len(), 2);
        // One child keeps the parent identity, the other is fresh.
        assert!(ids1.contains(&0));
        assert!(tracker.events().iter().any(
            |e| matches!(e, TrackEvent::Split { parent: 0, children, .. } if children.len() == 2)
        ));
    }

    #[test]
    fn tracker_keeps_identity_when_nothing_changes() {
        let snap = MdEngine::new(MdConfig::default()).run_epoch(1);
        let frags = FragmentFinder.compute(&Bonds::default().compute(&snap));
        let mut tracker = FragmentTracker::new();
        let a = tracker.observe(&snap.ids, &frags);
        let b = tracker.observe(&snap.ids, &frags);
        assert_eq!(a, b, "stable fragments keep their ids");
        assert_eq!(tracker.events().len(), 1, "only the initial birth");
    }

    #[test]
    fn isolated_atoms_form_singleton_fragments() {
        use std::sync::Arc;
        // Three atoms far apart.
        let snap = mdsim::Snapshot {
            step: 0,
            md_step: 0,
            box_len: [100.0, 100.0, 100.0],
            ids: Arc::new(vec![10, 20, 30]),
            pos: Arc::new(vec![[0.0; 3], [50.0, 0.0, 0.0], [0.0, 50.0, 0.0]]),
            strain: 0.0,
        };
        let bonds = Bonds::default().compute(&snap);
        let frags = FragmentFinder.compute(&bonds);
        assert_eq!(frags.count(), 3);
        assert!(frags.sizes.iter().all(|&s| s == 1));
    }
}
