//! Determinism hazards, one per banned API, plus a stale `#[expect]`.
//! ci.sh checks that clippy flags every line marked `// hazard` and no
//! other line.

use std::time::Instant as Clock;
use std::time::SystemTime;

pub fn aliased_wall_clock() -> Clock {
    Clock::now() // hazard: disallowed_methods (aliased Instant::now)
}

pub fn system_time() -> SystemTime {
    SystemTime::now() // hazard: disallowed_methods
}

pub fn raw_spawn() {
    std::thread::spawn(|| {}).join().ok(); // hazard: disallowed_methods
}

pub fn builder_spawn() {
    let _ = std::thread::Builder::new().spawn(|| {}); // hazard: disallowed_methods
}

pub fn hand_rolled_fork_join() {
    std::thread::scope(|s| { // hazard: disallowed_methods
        s.spawn(|| {});
    });
}

pub struct Tenants {
    by_id: std::collections::HashMap<u32, u64>, // hazard: disallowed_types
}

impl Tenants {
    pub fn order(&self) -> Vec<u32> {
        self.by_id.keys().copied().collect()
    }
}

pub fn let_bound_set() -> Vec<u32> {
    let mut seen = std::collections::HashSet::new(); // hazard: disallowed_types
    seen.insert(1u32);
    seen.into_iter().collect()
}

#[expect(clippy::disallowed_methods, reason = "a sanctioned wall-clock read stays silent")]
pub fn sanctioned() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_methods, reason = "nothing here reads a clock any more")] // hazard: stale expect
pub fn stale() {}
