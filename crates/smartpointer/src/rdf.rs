//! Radial distribution function (pair-correlation) analysis.
//!
//! A staple of the molecular-data portals SmartPointer descends from:
//! g(r) histograms the pair distances and normalizes by the ideal-gas
//! expectation, revealing the crystal's shell structure (sharp peaks at
//! the FCC neighbor distances) or its loss on melting/fracture. O(n²)
//! over pairs within the histogram range; thread-parallel over atoms
//! through [`simpar`].

use mdsim::Snapshot;

/// A computed g(r) histogram.
#[derive(Clone, Debug)]
pub struct RdfOutput {
    /// Step analyzed.
    pub step: u64,
    /// Bin centers (r values).
    pub r: Vec<f64>,
    /// g(r) per bin.
    pub g: Vec<f64>,
    /// Raw pair counts per bin.
    pub counts: Vec<u64>,
}

impl RdfOutput {
    /// The r of the highest g(r) peak (the nearest-neighbor distance in a
    /// condensed phase).
    pub fn first_peak(&self) -> Option<f64> {
        self.g
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite g(r)"))
            .map(|(ix, _)| self.r[ix])
    }
}

/// The RDF kernel.
#[derive(Clone, Copy, Debug)]
pub struct Rdf {
    /// Histogram range (max r).
    pub r_max: f64,
    /// Number of bins.
    pub bins: usize,
    /// Worker threads (1 = serial).
    pub threads: usize,
}

impl Default for Rdf {
    fn default() -> Self {
        Rdf { r_max: 3.0, bins: 120, threads: 1 }
    }
}

impl Rdf {
    /// Computes g(r) for a snapshot.
    ///
    /// # Panics
    /// Panics if `r_max` exceeds half the smallest box length (the
    /// minimum-image convention breaks beyond that).
    pub fn compute(&self, snap: &Snapshot) -> RdfOutput {
        let min_box = snap.box_len.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            self.r_max <= 0.5 * min_box + 1e-9,
            "r_max {} exceeds half the box ({})",
            self.r_max,
            0.5 * min_box
        );
        let n = snap.atom_count();
        let dr = self.r_max / self.bins as f64;
        let r_max2 = self.r_max * self.r_max;

        // Worker t takes the rows t, t+T, t+2T... : the early rows are the
        // longest, so striding balances better than contiguous chunks. One
        // simpar chunk per worker keeps the merge in worker order, and the
        // integer counts make the total independent of it anyway.
        let stride = self.threads.clamp(1, n.max(1));
        let counts = simpar::chunked_map_reduce(
            stride,
            stride,
            |workers| {
                let mut counts = vec![0u64; self.bins];
                for t in workers {
                    for i in (t..n).step_by(stride) {
                        for j in (i + 1)..n {
                            let d2 = snap.dist2(i, j);
                            if d2 < r_max2 {
                                let bin = (d2.sqrt() / dr) as usize;
                                counts[bin.min(self.bins - 1)] += 1;
                            }
                        }
                    }
                }
                counts
            },
            vec![0u64; self.bins],
            |mut total, partial| {
                for (t, c) in total.iter_mut().zip(partial) {
                    *t += c;
                }
                total
            },
        );

        // Normalize against the ideal gas: g(r) = counts / (N * rho * V_shell / 2).
        let volume: f64 = snap.box_len.iter().product();
        let rho = n as f64 / volume;
        let mut r = Vec::with_capacity(self.bins);
        let mut g = Vec::with_capacity(self.bins);
        for (ix, &c) in counts.iter().enumerate() {
            let r_lo = ix as f64 * dr;
            let r_hi = r_lo + dr;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
            let ideal_pairs = 0.5 * n as f64 * rho * shell;
            r.push(r_lo + 0.5 * dr);
            g.push(if ideal_pairs > 0.0 { c as f64 / ideal_pairs } else { 0.0 });
        }

        RdfOutput { step: snap.step, r, g, counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::{MdConfig, MdEngine};

    fn cold_snapshot() -> Snapshot {
        MdEngine::new(MdConfig { temperature: 0.02, ..MdConfig::default() }).run_epoch(1)
    }

    #[test]
    fn fcc_first_peak_is_at_nearest_neighbor_distance() {
        let snap = cold_snapshot();
        let out = Rdf::default().compute(&snap);
        let peak = out.first_peak().expect("peaked g(r)");
        // FCC nearest neighbor: a/sqrt(2) = 1.5874/1.414 ≈ 1.1225.
        let expect = 1.5874 / 2f64.sqrt();
        assert!((peak - expect).abs() < 0.1, "first peak {peak} vs {expect}");
    }

    #[test]
    fn g_of_r_vanishes_inside_the_core() {
        let snap = cold_snapshot();
        let out = Rdf::default().compute(&snap);
        // No pairs closer than ~0.8 sigma in a crystal.
        for (r, g) in out.r.iter().zip(&out.g) {
            if *r < 0.8 {
                assert_eq!(*g, 0.0, "core penetration at r={r}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let snap = cold_snapshot();
        let serial = Rdf { threads: 1, ..Rdf::default() }.compute(&snap);
        let parallel = Rdf { threads: 4, ..Rdf::default() }.compute(&snap);
        assert_eq!(serial.counts, parallel.counts);
    }

    #[test]
    fn total_counts_equal_pairs_in_range() {
        let snap = cold_snapshot();
        let rdf = Rdf { r_max: 2.0, bins: 40, threads: 1 };
        let out = rdf.compute(&snap);
        let mut brute = 0u64;
        for i in 0..snap.atom_count() {
            for j in (i + 1)..snap.atom_count() {
                if snap.dist2(i, j) < 4.0 {
                    brute += 1;
                }
            }
        }
        assert_eq!(out.counts.iter().sum::<u64>(), brute);
    }

    #[test]
    #[should_panic(expected = "exceeds half the box")]
    fn r_max_beyond_half_box_rejected() {
        let snap = cold_snapshot();
        let _ = Rdf { r_max: 100.0, ..Rdf::default() }.compute(&snap);
    }
}
