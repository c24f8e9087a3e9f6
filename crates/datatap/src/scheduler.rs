//! Pull-scheduling policies.
//!
//! DataStager's "server-directed" I/O lets the staging side decide *when*
//! to pull announced data, instead of writers pushing greedily. The policy
//! choice trades interconnect contention against end-to-end latency; the
//! scheduled-vs-greedy row of `figures -- ablations` compares them.

/// When the reader side issues pulls for announced steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PullPolicy {
    /// Pull every announced step immediately (push-like behaviour; maximal
    /// concurrency, maximal contention).
    Greedy,
    /// Server-directed: at most `max_concurrent` pulls in flight, oldest
    /// step first.
    Scheduled {
        /// Concurrent-pull cap.
        max_concurrent: usize,
    },
}

impl PullPolicy {
    /// The default server-directed policy (one pull in flight at a time).
    pub const fn fifo() -> PullPolicy {
        PullPolicy::Scheduled { max_concurrent: 1 }
    }

    /// Whether a new pull may start given `in_flight` outstanding pulls.
    pub fn may_start(&self, in_flight: usize) -> bool {
        match *self {
            PullPolicy::Greedy => true,
            PullPolicy::Scheduled { max_concurrent } => in_flight < max_concurrent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_never_blocks() {
        assert!(PullPolicy::Greedy.may_start(0));
        assert!(PullPolicy::Greedy.may_start(1_000));
    }

    #[test]
    fn scheduled_caps_in_flight() {
        let p = PullPolicy::Scheduled { max_concurrent: 2 };
        assert!(p.may_start(0));
        assert!(p.may_start(1));
        assert!(!p.may_start(2));
    }

    #[test]
    fn fifo_is_single_pull() {
        assert_eq!(PullPolicy::fifo(), PullPolicy::Scheduled { max_concurrent: 1 });
    }
}
