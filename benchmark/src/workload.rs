//! What every workload reports, and how long it runs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::{SchedUse, Summary};

/// How much to run: rounds until `seconds` have passed, but at least
/// `min_rounds`.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_rounds: usize,
}

impl Budget {
    /// A measured run. At least two rounds, because the repeat-exactly
    /// checks compare a round with the first one.
    pub fn timed(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_rounds: 2,
        }
    }

    /// The `--check` run: two rounds of the small inputs.
    pub fn check() -> Budget {
        Budget {
            seconds: 0.0,
            min_rounds: 2,
        }
    }

    /// The untimed warm-up before a measured run: a second, one round at
    /// least. After an idle spell the first second runs differently (cold
    /// allocator and caches, vCPUs the host had parked).
    pub fn warm_up() -> Budget {
        Budget {
            seconds: 1.0,
            min_rounds: 1,
        }
    }

    pub fn more(&self, started: Instant, rounds_done: usize) -> bool {
        rounds_done < self.min_rounds || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Counts operations and keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checker {
    /// Records `n` operations that all passed or all failed together.
    pub fn ops(&mut self, n: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok && n > 0 {
            self.failed += n;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.ops(1, ok, why);
    }

    /// Marks one already-counted operation as failed after the fact.
    pub fn demote(&mut self, why: String) {
        self.failed = (self.failed + 1).min(self.attempted);
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn absorb(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// One run (untraced or traced) of one workload.
#[derive(Debug)]
pub struct Outcome {
    pub check: Checker,
    /// Wall time of the timed rounds, summed.
    pub wall_s: f64,
    /// Work per second, one sample per round (events/s on the DES
    /// workloads, application steps/s on the others). Rounds repeat the
    /// same work and interference on a shared host only ever slows a round
    /// down, so the run reports the fast decile of its rounds (`p90` here,
    /// `p10` of the latencies): between ten runs it spread 1-4 % where the
    /// median spread 2-7 %.
    pub work_per_s: Summary,
    /// Latency, ms: the fast decile of `latency` (see the README for each
    /// workload's meaning).
    pub latency_ms: f64,
    /// Tail latency, ms: a per-layer metric, because on this host its
    /// spread between runs exceeded any bound worth gating on.
    pub latency_ms_p90: f64,
    /// One latency sample per round: its wall time (DES), the run's
    /// pipeline latency (live), the median over its steps (stream).
    pub latency: Summary,
    /// Counts and layer values this workload itself produced, by per-layer
    /// metric name. Counts are per round, so they repeat exactly for a
    /// seed whatever `--seconds` is.
    pub layer: BTreeMap<&'static str, f64>,
    /// Scheduler statistics of the load generator's own threads.
    pub sched: SchedUse,
}
