// Fixture: a reasoned escape that still earns its keep next to one that
// no longer suppresses anything (never compiled; scanned as text). The
// file is linted under every rule, panic-path included.

fn checked(v: Option<u64>) -> u64 {
    // simlint: allow(panic-path, fixture: the caller checked the option)
    v.unwrap()
}

fn stale() -> u64 {
    // simlint: allow(panic-path, this once suppressed a now-deleted unwrap)
    42
}
