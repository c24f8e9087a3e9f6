//! Bonds: neighbor detection producing the atomic adjacency list.
//!
//! Determines which atom pairs are currently bonded (within the bonding
//! cutoff) and emits both the ingested atom data and an adjacency list —
//! the two outputs the paper describes. The reference kernel is the
//! paper's O(n²) all-pairs scan; a cell-list kernel provides the fast path
//! for the `Parallel` compute model, and both produce identical adjacency.

use std::sync::Arc;

use mdsim::{CellList, Snapshot, System};

/// Compressed sparse-row adjacency over atoms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl Adjacency {
    /// Builds from per-atom neighbor lists.
    pub fn from_lists(lists: &[Vec<u32>]) -> Adjacency {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for l in lists {
            neighbors.extend_from_slice(l);
            offsets.push(neighbors.len() as u32);
        }
        Adjacency { offsets, neighbors }
    }

    /// Builds from CSR arrays received from outside the program, checking
    /// them first: `offsets` holds `atoms + 1` entries that start at 0,
    /// never decrease and end at `neighbors.len()`, and every neighbor id is
    /// below `atoms`. Returns `None` for anything else.
    pub fn from_csr(offsets: Vec<u32>, neighbors: Vec<u32>, atoms: usize) -> Option<Adjacency> {
        let well_formed = offsets.len() == atoms.checked_add(1)?
            && offsets[0] == 0
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets[atoms] as usize == neighbors.len()
            && neighbors.iter().all(|&j| (j as usize) < atoms);
        well_formed.then_some(Adjacency { offsets, neighbors })
    }

    /// Builds from bonded pairs `(i, j)`, `i < j < atoms`, listed i-major
    /// with `j` ascending. Row k receives its `i < k` partners (in pair
    /// order, so ascending) before its `j > k` partners: ascending rows,
    /// exactly what [`Adjacency::from_lists`] makes of the double loop.
    fn from_pairs(atoms: usize, pairs: &[(u32, u32)]) -> Adjacency {
        let mut offsets = vec![0u32; atoms + 1];
        for &(i, j) in pairs {
            offsets[i as usize + 1] += 1;
            offsets[j as usize + 1] += 1;
        }
        for k in 0..atoms {
            offsets[k + 1] += offsets[k];
        }
        let mut next: Vec<u32> = offsets[..atoms].to_vec();
        let mut neighbors = vec![0u32; offsets[atoms] as usize];
        for &(i, j) in pairs {
            let (i, j) = (i as usize, j as usize);
            neighbors[next[i] as usize] = j as u32;
            next[i] += 1;
            neighbors[next[j] as usize] = i as u32;
            next[j] += 1;
        }
        Adjacency { offsets, neighbors }
    }

    /// The CSR arrays: `atoms + 1` row offsets and the neighbor ids.
    pub fn csr(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Number of atoms covered.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for an empty adjacency.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbors of atom `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Total number of directed edges (2× bond count).
    pub fn edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// True if atoms `i` and `j` are bonded.
    pub fn bonded(&self, i: usize, j: u32) -> bool {
        self.neighbors(i).contains(&j)
    }

    /// Mean neighbors per atom.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.edge_count() as f64 / self.len() as f64
        }
    }
}

/// Partners tested together by [`Bonds::compute_n2`]; each block's
/// verdicts form one bitmask. Four f64 lanes measured fastest (2 and 8
/// were slower).
const BLOCK: usize = 4;

/// One periodic axis of the minimum-image convention, set up once per
/// snapshot so that the per-pair displacement needs no branch.
#[derive(Clone, Copy)]
struct Period {
    len: f64,
    /// `d > above` takes `len` off: the reference's `d > 0.5·len`.
    above: f64,
    /// `d < below` adds `len` on: the reference's `else if d < −0.5·len`.
    /// For a half-length `h ≥ 0` (or NaN) the two tests exclude each other,
    /// so this is `−h`. For `h < 0` every non-NaN `d ≤ h` lies below `−h`,
    /// and `d ≤ h` is `d < h.next_up()`: the bound keeps the `else`
    /// exact for any box.
    below: f64,
}

impl Period {
    fn new(len: f64) -> Period {
        let h = 0.5 * len;
        Period { len, above: h, below: if h < 0.0 { h.next_up() } else { -h } }
    }

    /// The minimum-image component of `d`, with `len` applied through bit
    /// masks. Equal to `Snapshot::min_image`'s branchy version up to the
    /// sign of a zero result, which the square erases.
    #[inline(always)]
    fn wrap(self, d: f64) -> f64 {
        let l = self.len.to_bits();
        (d - f64::from_bits(l & mask(d > self.above))) + f64::from_bits(l & mask(d < self.below))
    }
}

/// All ones where `c` holds, all zeros otherwise.
#[inline(always)]
fn mask(c: bool) -> u64 {
    0u64.wrapping_sub(u64::from(c))
}

/// Output of the Bonds component: the ingested atoms plus their adjacency.
#[derive(Clone, Debug)]
pub struct BondsOutput {
    /// The atom data passed through.
    pub snapshot: Snapshot,
    /// The bonded-pair adjacency.
    pub adjacency: Arc<Adjacency>,
    /// Bonding cutoff used.
    pub cutoff: f64,
}

/// The Bonds analysis kernel.
#[derive(Clone, Copy, Debug)]
pub struct Bonds {
    /// Bonding cutoff distance.
    pub cutoff: f64,
    /// Worker threads for the cell-list kernel (1 = serial).
    pub threads: usize,
}

impl Default for Bonds {
    fn default() -> Self {
        // First-neighbor distance in the FCC LJ crystal is a/√2 ≈ 1.12; a
        // cutoff of 1.4 captures first neighbors only.
        Bonds { cutoff: 1.4, threads: 1 }
    }
}

impl Bonds {
    /// The paper-faithful O(n²) all-pairs kernel: every one of the
    /// n(n−1)/2 pairs is tested, branch-free, [`BLOCK`] partners at a time,
    /// and the hits go straight into CSR (DESIGN.md, "Bonds all-pairs
    /// kernel", says why this equals the plain double loop bit for bit).
    pub fn compute_n2(&self, snap: &Snapshot) -> BondsOutput {
        let n = snap.atom_count();
        let c2 = self.cutoff * self.cutoff;
        let [px, py, pz] = snap.box_len.map(Period::new);
        // Positions as three f64 arrays, converted as `Snapshot::min_image`
        // converts them.
        let axis = |k: usize| -> Vec<f64> { snap.pos.iter().map(|p| p[k] as f64).collect() };
        let (xs, ys, zs) = (axis(0), axis(1), axis(2));

        // Bonded pairs (i, j), i < j, i-major with j ascending.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for i in 0..n {
            let (xi, yi, zi) = (xs[i], ys[i], zs[i]);
            let within = |xj: f64, yj: f64, zj: f64| -> bool {
                let (dx, dy, dz) = (px.wrap(xi - xj), py.wrap(yi - yj), pz.wrap(zi - zj));
                dx * dx + dy * dy + dz * dz < c2
            };
            let cx = xs[i + 1..].chunks_exact(BLOCK);
            let cy = ys[i + 1..].chunks_exact(BLOCK);
            let cz = zs[i + 1..].chunks_exact(BLOCK);
            let tail = cx.remainder().iter().zip(cy.remainder()).zip(cz.remainder());
            let mut j0 = i + 1;
            for ((x, y), z) in cx.zip(cy).zip(cz) {
                let mut hits = 0u32;
                for k in 0..BLOCK {
                    hits |= u32::from(within(x[k], y[k], z[k])) << k;
                }
                while hits != 0 {
                    pairs.push((i as u32, (j0 + hits.trailing_zeros() as usize) as u32));
                    hits &= hits - 1;
                }
                j0 += BLOCK;
            }
            for (k, ((&x, &y), &z)) in tail.enumerate() {
                if within(x, y, z) {
                    pairs.push((i as u32, (j0 + k) as u32));
                }
            }
        }

        BondsOutput {
            snapshot: snap.clone(),
            adjacency: Arc::new(Adjacency::from_pairs(n, &pairs)),
            cutoff: self.cutoff,
        }
    }

    /// Cell-list kernel (same result, near-linear time), optionally
    /// thread-parallel over atoms.
    pub fn compute(&self, snap: &Snapshot) -> BondsOutput {
        let n = snap.atom_count();
        // Reuse mdsim's cell list by viewing the snapshot as a System.
        let sys = System {
            ids: Vec::new(),
            pos: snap.pos.iter().map(|p| [p[0] as f64, p[1] as f64, p[2] as f64]).collect(),
            vel: Vec::new(),
            force: Vec::new(),
            box_len: snap.box_len,
        };
        let cells = CellList::build(&sys, self.cutoff.max(1e-6));
        let c2 = self.cutoff * self.cutoff;

        let compute_range = |range: std::ops::Range<usize>| -> Vec<Vec<u32>> {
            let mut lists = Vec::with_capacity(range.len());
            for i in range {
                let mut l = Vec::new();
                cells.for_neighbors(&sys.pos[i], sys.box_len, |j| {
                    if j as usize != i && snap.dist2(i, j as usize) < c2 {
                        l.push(j);
                    }
                });
                l.sort_unstable();
                lists.push(l);
            }
            lists
        };

        // Per-atom neighbor lists are owned by their chunk and concatenate
        // in chunk order, so the adjacency is bit-identical for any thread
        // count.
        let lists: Vec<Vec<u32>> = simpar::chunked_map_reduce(
            n,
            self.threads,
            compute_range,
            Vec::with_capacity(n),
            |mut acc: Vec<Vec<u32>>, part| {
                acc.extend(part);
                acc
            },
        );

        BondsOutput {
            snapshot: snap.clone(),
            adjacency: Arc::new(Adjacency::from_lists(&lists)),
            cutoff: self.cutoff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::{MdConfig, MdEngine};
    use proptest::prelude::*;

    fn snapshot() -> Snapshot {
        MdEngine::new(MdConfig::default()).run_epoch(1)
    }

    /// The plain double loop over `Snapshot::dist2` that `compute_n2`
    /// replaced, kept as the differential reference.
    fn reference_n2(cutoff: f64, snap: &Snapshot) -> Adjacency {
        let n = snap.atom_count();
        let c2 = cutoff * cutoff;
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if snap.dist2(i, j) < c2 {
                    lists[i].push(j as u32);
                    lists[j].push(i as u32);
                }
            }
        }
        Adjacency::from_lists(&lists)
    }

    /// `compute_n2` against the reference: the same CSR, not merely the
    /// same bonds.
    fn assert_matches_reference(cutoff: f64, snap: &Snapshot) {
        let fast = Bonds { cutoff, threads: 1 }.compute_n2(snap);
        assert_eq!(
            *fast.adjacency,
            reference_n2(cutoff, snap),
            "{} atoms, box {:?}, cutoff {cutoff}",
            snap.atom_count(),
            snap.box_len
        );
    }

    fn hand_placed(box_len: [f64; 3], pos: &[[f32; 3]]) -> Snapshot {
        Snapshot {
            step: 0,
            md_step: 0,
            box_len,
            ids: Arc::new((0..pos.len() as u64).collect()),
            pos: Arc::new(pos.to_vec()),
            strain: 0.0,
        }
    }

    #[test]
    fn n2_and_cell_list_agree() {
        let snap = snapshot();
        let b = Bonds::default();
        let a = b.compute_n2(&snap);
        let c = b.compute(&snap);
        assert_eq!(*a.adjacency, *c.adjacency);
    }

    /// 108, 500 and 4,000 atoms of the fracture crystal, before and after
    /// the yield strain opens the crack.
    #[test]
    fn n2_matches_reference_across_fracture() {
        for cells in [3, 5, 10] {
            let cfg = MdConfig {
                cells: (cells, cells, cells),
                strain_per_step: 0.005,
                yield_strain: 0.02,
                ..MdConfig::fracture()
            };
            let mut md = MdEngine::new(cfg);
            let before = md.run_epoch(1);
            md.run(8);
            let after = md.run_epoch(1);
            assert!(md.cracked(), "{cells}³ cells must yield");
            assert_matches_reference(1.4, &before);
            assert_matches_reference(1.4, &after);
        }
    }

    /// Non-cubic boxes, and cutoffs that leave fewer than three
    /// cutoff-wide cells per axis.
    #[test]
    fn n2_matches_reference_on_small_and_non_cubic_boxes() {
        let shapes = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (1, 2, 3), (4, 2, 1), (3, 5, 2)];
        for cells in shapes {
            let snap = MdEngine::new(MdConfig { cells, ..MdConfig::default() }).run_epoch(1);
            for cutoff in [1.0, 1.4, 2.0, 3.0] {
                assert_matches_reference(cutoff, &snap);
            }
        }
    }

    /// Displacements of exactly ±L/2 sit on both wrap thresholds; the
    /// reference wraps neither, and the masked kernel must agree.
    #[test]
    fn half_box_displacements_match_reference() {
        let pos =
            [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 2.0, 2.0]];
        let snap = hand_placed([4.0, 4.0, 4.0], &pos);
        for cutoff in [2.0, 2.5, 3.0, 3.5] {
            assert_matches_reference(cutoff, &snap);
        }
        let adj = Bonds { cutoff: 2.5, threads: 1 }.compute_n2(&snap).adjacency;
        assert_eq!(adj.neighbors(0), &[1, 2, 3]);
        assert_eq!(adj.neighbors(4), &[] as &[u32]);
    }

    /// The test is strict `<`: a pair at exactly the cutoff stays
    /// unbonded, across the periodic boundary as well.
    #[test]
    fn pair_at_exactly_the_cutoff_is_not_bonded() {
        let pos = [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.25, 0.0], [0.0, 0.0, 8.5]];
        let snap = hand_placed([10.0, 10.0, 10.0], &pos);
        let adj = Bonds { cutoff: 1.5, threads: 1 }.compute_n2(&snap).adjacency;
        assert_eq!(adj.neighbors(0), &[2]);
        assert_eq!(adj.neighbors(1), &[] as &[u32]);
        assert_eq!(adj.neighbors(3), &[] as &[u32]);
        assert_matches_reference(1.5, &snap);
    }

    /// Boxes no simulation makes — zero, negative, infinite, NaN — still
    /// give the reference's adjacency: the kernel is exact for any input.
    #[test]
    fn degenerate_boxes_match_reference() {
        let pos: Vec<[f32; 3]> = (0..11)
            .map(|k| [k as f32 * 0.7 - 3.0, (k % 3) as f32 * 1.1, -(k as f32) * 0.4])
            .collect();
        for l in [0.0, -0.0, -4.0, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e-310] {
            for box_len in [[l, l, l], [l, 6.0, -2.5]] {
                let snap = hand_placed(box_len, &pos);
                for cutoff in [1.0, 2.0, 1e9] {
                    assert_matches_reference(cutoff, &snap);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random atoms, counts on every side of a block boundary, boxes
        /// of independent lengths, positions outside the box and cutoffs
        /// up to beyond the half box.
        #[test]
        fn n2_matches_reference_on_random_atoms(
            (lx, ly, lz) in (0.5f64..12.0, 0.5f64..12.0, 0.5f64..12.0),
            coords in prop::collection::vec(
                (-15.0f32..15.0, -15.0f32..15.0, -15.0f32..15.0),
                0..3 * BLOCK + 2,
            ),
            cutoff in 0.0f64..8.0,
        ) {
            let pos: Vec<[f32; 3]> = coords.iter().map(|&(x, y, z)| [x, y, z]).collect();
            let snap = hand_placed([lx, ly, lz], &pos);
            let fast = Bonds { cutoff, threads: 1 }.compute_n2(&snap);
            prop_assert_eq!(&*fast.adjacency, &reference_n2(cutoff, &snap));
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let snap = snapshot();
        let serial = Bonds { threads: 1, ..Bonds::default() }.compute(&snap);
        let parallel = Bonds { threads: 4, ..Bonds::default() }.compute(&snap);
        assert_eq!(*serial.adjacency, *parallel.adjacency);
    }

    #[test]
    fn fcc_crystal_has_twelve_neighbors() {
        let snap = snapshot();
        let out = Bonds::default().compute(&snap);
        // Thermal noise can perturb a few atoms; the mean must be ~12.
        let mean = out.adjacency.mean_degree();
        assert!((mean - 12.0).abs() < 0.5, "FCC mean degree {mean}");
    }

    #[test]
    fn adjacency_is_symmetric() {
        let snap = snapshot();
        let out = Bonds::default().compute(&snap);
        let adj = &out.adjacency;
        for i in 0..adj.len() {
            for &j in adj.neighbors(i) {
                assert!(adj.bonded(j as usize, i as u32), "asymmetric edge {i}-{j}");
            }
        }
    }

    #[test]
    fn crack_removes_bonds() {
        let cfg = MdConfig { strain_per_step: 0.005, yield_strain: 0.02, ..MdConfig::default() };
        let mut md = MdEngine::new(cfg);
        let before = Bonds::default().compute(&md.run_epoch(1));
        md.run(10); // crosses the yield strain
        assert!(md.cracked());
        let after = Bonds::default().compute(&md.run_epoch(1));
        assert!(
            after.adjacency.edge_count() < before.adjacency.edge_count(),
            "crack must break bonds: {} -> {}",
            before.adjacency.edge_count(),
            after.adjacency.edge_count()
        );
    }

    #[test]
    fn csr_round_trip() {
        let lists = vec![vec![1, 2], vec![0], vec![0], vec![]];
        let adj = Adjacency::from_lists(&lists);
        assert_eq!(adj.len(), 4);
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert_eq!(adj.neighbors(3), &[] as &[u32]);
        assert_eq!(adj.edge_count(), 4);
        assert!(adj.bonded(1, 0));
        assert!(!adj.bonded(3, 0));
    }
}
