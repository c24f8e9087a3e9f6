//! The repo's benchmark: five workloads over the DES, threaded and stream
//! runtimes, driven only through the crates' public functions.
//!
//! ```text
//! ioc-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1 | --traced]
//! ioc-benchmark --check [--seed <n>]
//! ioc-benchmark --list
//! ```
//!
//! A run prints one line per metric (`name value unit`, timings with their
//! sample count and quartiles) and ends with one JSON object: the
//! end-to-end metrics of an untraced run, or the per-layer metrics of a
//! traced one. See `README.md` for what each workload and metric means.

mod des;
mod live;
mod probes;
mod streams;
mod trace;
mod util;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use util::Summary;
use workload::{Budget, Outcome};

const WORKLOADS: [&str; 5] = [
    "des_cluster200",
    "des_figs",
    "live_managed",
    "stream_fanout",
    "stream_archive",
];

/// End-to-end metrics, in report order: (name, unit). `BENCHMARK.json`
/// carries the same names with their bounds.
const END_TO_END: [(&str, &str); 4] = [
    ("work_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: (name, unit). A traced run prints every one; a
/// count or span the workload does not produce reads 0.
const PER_LAYER: [(&str, &str); 59] = [
    ("sim-core.events_executed", "count"),
    ("sim-core.replay_ns_per_event", "ns"),
    ("sim-core.new_sim_us", "us"),
    ("simnet.transfer_ns_per_op", "ns"),
    ("simnet.network_new_us", "us"),
    ("simtel.overhead_ratio", "ratio"),
    ("simfault.faults_injected", "count"),
    ("evpath.dispatch_ns_per_event", "ns"),
    ("evpath.events_delivered", "count"),
    ("datatap.write_pull_ns_per_step", "ns"),
    ("datatap.pause_resume_ns", "ns"),
    ("datatap.sched_pull_ns_per_step", "ns"),
    ("stream.write_ns_per_fragment", "ns"),
    ("stream.next_step_ns", "ns"),
    ("stream.writer_blocked_share", "ratio"),
    ("stream.reader_blocked_share", "ratio"),
    ("stream.seal_pull_ns_per_step_1t", "ns"),
    ("stream.pause_resume_ns", "ns"),
    ("stream.resume_attach_us", "us"),
    ("stream.sealed_steps", "count"),
    ("stream.steps_lost", "count"),
    ("stream.steps_duplicated", "count"),
    ("adios.bp_encode_mb_per_s", "MB/s"),
    ("adios.bp_decode_mb_per_s", "MB/s"),
    ("adios.payload_mb_per_s", "MB/s"),
    ("adios.bytes_encoded", "count"),
    ("adios.span_share", "ratio"),
    ("mdsim.ns_per_atom_step", "ns"),
    ("smartpointer.aggregate_ns_per_atom", "ns"),
    ("smartpointer.bonds_n2_ns_per_atom", "ns"),
    ("smartpointer.bonds_ns_per_atom", "ns"),
    ("smartpointer.csym_ns_per_atom", "ns"),
    ("smartpointer.cna_ns_per_atom", "ns"),
    ("simpar.fork_join_us", "us"),
    ("d2t.txn_host_us", "us"),
    ("d2t.transactions", "count"),
    ("iocontainers.codec_encode_ns_per_atom", "ns"),
    ("iocontainers.codec_decode_ns_per_atom", "ns"),
    ("iocontainers.decide_ns", "ns"),
    ("iocontainers.decide_cluster_us_200t", "us"),
    ("iocontainers.experiment_build_us", "us"),
    ("iocontainers.policy_rounds", "count"),
    ("iocontainers.actions", "count"),
    ("iocontainers.tenants_blocked", "count"),
    ("iocontainers.schedule_hash_lo32", "hash"),
    ("iocontainers.threaded.stage_latency_ms.helper", "ms"),
    ("iocontainers.threaded.stage_latency_ms.bonds", "ms"),
    ("iocontainers.threaded.stage_latency_ms.csym", "ms"),
    ("iocontainers.threaded.stage_latency_ms.cna", "ms"),
    ("iocontainers.threaded.actions", "count"),
    ("iocontainers.threaded.monitor_events", "count"),
    ("iocontainers.threaded.branch_stranded_steps", "count"),
    ("live.serial_steps_per_s", "1/s"),
    ("host.cpu_s", "s"),
    ("host.runq_wait_share", "ratio"),
    ("bench.work_per_s_p50", "1/s"),
    ("bench.latency_ms_p90", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("recon.explained_share", "ratio"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        check: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value("0 or 1")? == "1",
            "--traced" => args.traced = true,
            "--check" => args.check = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A workload as the harness sees it: generate the inputs, then run them.
struct Workload<I> {
    name: &'static str,
    setup: fn(u64, bool) -> I,
    run: fn(&I, Budget, &mut Tracer) -> Outcome,
    /// CPU-seconds the probes and counts explain, given the traced
    /// outcome's layer values merged with the probes.
    explained_s: fn(&I, &Outcome, &BTreeMap<&'static str, f64>) -> f64,
}

/// Sets the workload up repeatedly for a quarter of a second (at least
/// three times), adds the timings to `times` and returns the last inputs.
/// Earlier inputs are dropped before the next set-up, so peak memory holds
/// one set.
fn timed_setup<I>(w: &Workload<I>, seed: u64, times: &mut Vec<f64>) -> I {
    let started = Instant::now();
    let mut input = None;
    let mut reps = 0;
    while reps < 3 || (started.elapsed().as_secs_f64() < 0.25 && reps < 1_000) {
        drop(input.take());
        let t0 = Instant::now();
        input = Some((w.setup)(seed, false));
        times.push(t0.elapsed().as_secs_f64());
        reps += 1;
    }
    input.expect("set up at least once")
}

fn print_metric(name: &str, value: f64, unit: &str, detail: Option<Summary>) {
    match detail {
        Some(s) => println!(
            "{name:<48} {value:>16.6} {unit:<6} n={} q1={:.6} q3={:.6}",
            s.n, s.q1, s.q3
        ),
        None => println!("{name:<48} {value:>16.6} {unit}"),
    }
}

fn json_line(outcomes: &[&Outcome], metrics: &[(&str, f64, &str)]) -> String {
    let attempted: u64 = outcomes.iter().map(|o| o.check.attempted).sum();
    let failed: u64 = outcomes
        .iter()
        .map(|o| o.check.failed)
        .sum::<u64>()
        .min(attempted);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn report_failures(outcome: &Outcome) {
    for failure in &outcome.check.failures {
        eprintln!("FAILED: {failure}");
    }
}

/// One benchmark run of one workload. Failed operations are reported in
/// the result line (`correct`, `failed`), not through the exit code.
fn run_workload<I>(w: &Workload<I>, args: &Args) {
    let mut setup_times = Vec::new();
    let input = timed_setup(w, args.seed, &mut setup_times);
    println!(
        "# workload {} seed {} seconds {} traced {}",
        w.name, args.seed, args.seconds, args.traced
    );

    drop((w.run)(&input, Budget::warm_up(), &mut Tracer::off()));

    if !args.traced {
        let out = (w.run)(&input, Budget::timed(args.seconds), &mut Tracer::off());
        report_failures(&out);
        let peak_rss_mb = util::peak_rss_mb();
        // Set-up is timed once more after the run. It repeats the same
        // work, so the run reports the fast decile of all its timings, and
        // a slow spell at process start (about four runs in ten here, 1.4x)
        // has to last the whole run to show.
        drop(input);
        drop(timed_setup(w, args.seed, &mut setup_times));
        let setup = Summary::of(&setup_times);
        let values = [
            (out.work_per_s.p90, Some(out.work_per_s)),
            (out.latency_ms, Some(out.latency)),
            (peak_rss_mb, None),
            (setup.p10, Some(setup)),
        ];
        let mut metrics = Vec::new();
        for ((name, unit), (value, detail)) in END_TO_END.into_iter().zip(values) {
            print_metric(name, value, unit, detail);
            metrics.push((name, value, unit));
        }
        println!(
            "{:<48} {:>16.6} ratio  failed={} attempted={}",
            "failed_share",
            out.check.failed as f64 / out.check.attempted.max(1) as f64,
            out.check.failed,
            out.check.attempted
        );
        println!("{}", json_line(&[&out], &metrics));
        return;
    }

    // Traced: half the time untraced (the reference for the tracing
    // overhead), half traced, then the probes.
    let half = Budget::timed(args.seconds / 2.0);
    let plain = (w.run)(&input, half, &mut Tracer::off());
    let mut tracer = Tracer::new(true, "main", Instant::now());
    let traced = (w.run)(&input, half, &mut tracer);
    report_failures(&plain);
    report_failures(&traced);

    let mut values = probes::run_all();
    values.extend(traced.layer.iter().map(|(k, v)| (*k, *v)));
    let mut sched = plain.sched;
    sched.add(traced.sched);
    values.insert("host.cpu_s", util::process_cpu_s());
    values.insert("host.runq_wait_share", sched.runq_wait_share());
    values.insert("bench.work_per_s_p50", plain.work_per_s.p50);
    values.insert("bench.latency_ms_p90", plain.latency_ms_p90);
    values.insert(
        "bench.trace_overhead_ratio",
        plain.work_per_s.p90 / traced.work_per_s.p90,
    );
    let explained = (w.explained_s)(&input, &traced, &values);
    values.insert("recon.explained_share", explained / traced.wall_s);

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        print_metric(name, value, unit, None);
        metrics.push((name, value, unit));
    }
    println!("# self time of the benchmark's own spans by layer, share of all span self time:");
    let by_layer = tracer.layer_self_ns();
    let all_ns: u64 = by_layer.values().sum();
    for (layer, ns) in by_layer {
        println!("#   {layer:<16} {:.4}", ns as f64 / all_ns.max(1) as f64);
    }
    println!(
        "# recon: {:.1} % of the traced wall is explained by probe cost x call count; the rest is \
         the workload's unprobed share (see README, 'Reading recon.explained_share')",
        100.0 * explained / traced.wall_s
    );
    let dir = std::path::Path::new("benchmark/out");
    let file = dir.join(format!("trace-{}.json", w.name));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, tracer.to_json(w.name)))
    {
        Ok(()) => println!("# trace written to {}", file.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", file.display()),
    }
    println!("{}", json_line(&[&plain, &traced], &metrics));
}

/// `--check`: every workload at about 1/20 size; true when nothing failed.
fn check_workload<I>(w: &Workload<I>, seed: u64) -> bool {
    let t0 = Instant::now();
    let input = (w.setup)(seed, true);
    let out = (w.run)(&input, Budget::check(), &mut Tracer::off());
    report_failures(&out);
    println!(
        "check {:<16} {} ({} of {} operations failed, {:.2} s)",
        w.name,
        if out.check.failed == 0 {
            "ok"
        } else {
            "FAILED"
        },
        out.check.failed,
        out.check.attempted,
        t0.elapsed().as_secs_f64()
    );
    out.check.failed == 0 && out.check.attempted > 0
}

// ---- what the probes explain, per workload (see the README) ----

fn get(values: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    values.get(name).copied().unwrap_or(0.0)
}

/// DES: events through the queue, trades through a D2T transaction, policy rounds
/// through `decide_cluster` (200 tenants) or `decide` (a handful), one
/// kernel, network and experiment build per case; all per round, times the
/// rounds run.
fn des_explained(
    decide_s: f64,
    input: &des::DesInput,
    out: &Outcome,
    v: &BTreeMap<&'static str, f64>,
) -> f64 {
    let per_round =
        get(v, "sim-core.events_executed") * get(v, "sim-core.replay_ns_per_event") * 1e-9
            + get(v, "d2t.transactions") * get(v, "d2t.txn_host_us") * 1e-6
            + get(v, "iocontainers.policy_rounds") * decide_s
            + input.cases() as f64
                * 1e-6
                * (get(v, "sim-core.new_sim_us")
                    + get(v, "simnet.network_new_us")
                    + get(v, "iocontainers.experiment_build_us"));
    out.latency.n as f64 * per_round
}

fn cluster200_explained(i: &des::DesInput, o: &Outcome, v: &BTreeMap<&'static str, f64>) -> f64 {
    des_explained(
        get(v, "iocontainers.decide_cluster_us_200t") * 1e-6,
        i,
        o,
        v,
    )
}

fn figs_explained(i: &des::DesInput, o: &Outcome, v: &BTreeMap<&'static str, f64>) -> f64 {
    des_explained(get(v, "iocontainers.decide_ns") * 1e-9, i, o, v)
}

/// `live_managed`: per output step, one MD step, the Helper merge, the
/// O(n²) Bonds, CSym or CNA, and the codec on both sides of each hop.
fn live_explained(input: &live::LiveInput, out: &Outcome, v: &BTreeMap<&'static str, f64>) -> f64 {
    let atoms = input.atoms() as f64;
    let per_atom_ns = get(v, "mdsim.ns_per_atom_step")
        + get(v, "smartpointer.aggregate_ns_per_atom")
        + get(v, "smartpointer.bonds_n2_ns_per_atom")
        + 0.5 * (get(v, "smartpointer.csym_ns_per_atom") + get(v, "smartpointer.cna_ns_per_atom"))
        + 2.0
            * (get(v, "iocontainers.codec_encode_ns_per_atom")
                + get(v, "iocontainers.codec_decode_ns_per_atom"));
    let transport_ns = 6.0 * get(v, "datatap.write_pull_ns_per_step");
    out.work_per_s.n as f64 * input.steps() as f64 * (atoms * per_atom_ns + transport_ns) * 1e-9
}

/// Stream: the one-thread seal-and-pull cost per step, the announcements
/// through evpath, and (archive) the codec spans themselves.
fn stream_explained(
    _: &streams::StreamInput,
    out: &Outcome,
    v: &BTreeMap<&'static str, f64>,
) -> f64 {
    let rounds = out.work_per_s.n as f64;
    let protocol = get(v, "stream.sealed_steps") * get(v, "stream.seal_pull_ns_per_step_1t") * 1e-9
        + get(v, "evpath.events_delivered") * get(v, "evpath.dispatch_ns_per_event") * 1e-9;
    rounds * protocol + get(v, "adios.span_share") * out.wall_s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        WORKLOADS.iter().for_each(|w| println!("{w}"));
        return ExitCode::SUCCESS;
    }

    let cluster200 = Workload {
        name: "des_cluster200",
        setup: des::cluster200_setup,
        run: des::run,
        explained_s: cluster200_explained,
    };
    let figs = Workload {
        name: "des_figs",
        setup: des::figs_setup,
        run: des::run,
        explained_s: figs_explained,
    };
    let live = Workload {
        name: "live_managed",
        setup: live::setup,
        run: live::run,
        explained_s: live_explained,
    };
    let fanout = Workload {
        name: "stream_fanout",
        setup: streams::fanout_setup,
        run: |i, b, t| streams::run(streams::Kind::Fanout, i, b, t),
        explained_s: stream_explained,
    };
    let archive = Workload {
        name: "stream_archive",
        setup: streams::archive_setup,
        run: |i, b, t| streams::run(streams::Kind::Archive, i, b, t),
        explained_s: stream_explained,
    };

    if args.check {
        // Every workload runs even after a failure, so one report names
        // all of them.
        let ok = [
            check_workload(&cluster200, args.seed),
            check_workload(&figs, args.seed),
            check_workload(&live, args.seed),
            check_workload(&fanout, args.seed),
            check_workload(&archive, args.seed),
        ];
        return if ok.iter().all(|ok| *ok) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match args.workload.as_deref() {
        Some("des_cluster200") => run_workload(&cluster200, &args),
        Some("des_figs") => run_workload(&figs, &args),
        Some("live_managed") => run_workload(&live, &args),
        Some("stream_fanout") => run_workload(&fanout, &args),
        Some("stream_archive") => run_workload(&archive, &args),
        other => {
            eprintln!("--workload must be one of {WORKLOADS:?}, got {other:?}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
