//! Small shared pieces: the seeded input generator, order statistics and
//! the host counters read from `/proc`.

use std::time::Instant;

/// SplitMix64: every generated input (payloads, tenant order, crash
/// points) comes from one of these, seeded from `--seed`. The program's
/// own RNGs are never used for inputs, so input cost cannot drift with
/// the program.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (the "exclusive"
/// method `statistics.quantiles` uses is indistinguishable at our sample
/// counts; this one is defined for n = 1 too).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sample count, quartiles and both deciles of one timing.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p10: quantile(&v, 0.1),
            q1: quantile(&v, 0.25),
            p50: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            p90: quantile(&v, 0.9),
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Runs `f` in batches of `batch` calls until `budget_s` has passed (at
/// least three batches) and returns the median seconds per call.
pub fn time_per_call(budget_s: f64, batch: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    median(&per_call)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) of the whole process, exited threads
/// included, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks (100 Hz on Linux).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: f64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// (on-cpu ns, run-queue wait ns) of the calling thread.
pub fn thread_schedstat() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = text
        .split_whitespace()
        .filter_map(|f| f.parse::<u64>().ok());
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Accumulated scheduler statistics of the benchmark's own load threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedUse {
    pub run_ns: u64,
    pub wait_ns: u64,
}

impl SchedUse {
    /// Measures the calling thread across `f`.
    pub fn around<R>(f: impl FnOnce() -> R) -> (R, SchedUse) {
        let (run0, wait0) = thread_schedstat();
        let out = f();
        let (run1, wait1) = thread_schedstat();
        (
            out,
            SchedUse {
                run_ns: run1 - run0,
                wait_ns: wait1 - wait0,
            },
        )
    }

    pub fn add(&mut self, other: SchedUse) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
    }

    /// Share of runnable time spent waiting for a core.
    pub fn runq_wait_share(&self) -> f64 {
        let total = self.run_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.wait_ns as f64 / total as f64
        }
    }
}

/// Pins the calling thread to one CPU (modulo the CPUs there are), so the
/// writer and the reader of a stream round sit on different cores every
/// round instead of wherever the scheduler last put them. Returns whether
/// the kernel accepted it; elsewhere than Linux on x86-64 or AArch64 it
/// does nothing.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mask: u64 = 1 << (cpu % cpus.min(64));
    sched_setaffinity(&mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity(mask: &u64) -> bool {
    let ret: isize;
    // SAFETY: `sched_setaffinity(0, 8, mask)` reads 8 bytes at `mask`, a
    // live `&u64`, and changes only where the calling thread may run. The
    // `syscall` instruction clobbers rcx and r11, declared below.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") 8usize,
            in("rdx") mask as *const u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sched_setaffinity(mask: &u64) -> bool {
    let ret: isize;
    // SAFETY: as on x86-64; `svc 0` with x8 = 122 is `sched_setaffinity`.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122usize,
            inlateout("x0") 0isize => ret,
            in("x1") 8usize,
            in("x2") mask as *const u64,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sched_setaffinity(_mask: &u64) -> bool {
    false
}
