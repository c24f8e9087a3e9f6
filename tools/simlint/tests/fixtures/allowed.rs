// Fixture: the same hazards as elsewhere, every one explicitly allowed
// with the v2 escape grammar — `allow(<rule>, <reason>)`.

fn checked_by_construction(v: &[u32]) -> u32 {
    // simlint: allow(panic-path, index 0 guaranteed by the caller's invariant)
    v[0]
}

fn same_line(x: Option<u32>) -> u32 {
    x.unwrap() // simlint: allow(panic-path, fixture: exercising a same-line escape)
}

fn widened_elsewhere(bytes: u64, bandwidth_bps: u64) -> u64 {
    // simlint: allow(unchecked-width-math, fixture: operands bounded < 2^32)
    bytes * 1_000_000_000 / bandwidth_bps
}
