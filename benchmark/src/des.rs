//! The two DES workloads: `des_cluster200` and `des_figs`.
//!
//! Both are a list of *cases*; one round runs every case once through
//! `run_experiment_in` on a fresh kernel. `des_cluster200` has one big
//! case (≈10⁵ events), `des_figs` nine small ones (hundreds of events
//! each), so the same layers are stressed at opposite ends: steady-state
//! event throughput against construction and teardown.

use std::collections::BTreeMap;
use std::time::Instant;

use iocontainers::{
    run_experiment_in, Action, AdmissionOutcome, ClusterConfig, Experiment, ExperimentConfig,
    ExperimentRun, ResourceSource, WorkloadConfig,
};
use sim_core::{Sim, SimDuration};
use simfault::FaultPlan;
use simtel::TelemetryConfig;

use crate::trace::Tracer;
use crate::util::{median, Rng, SchedUse, Summary};
use crate::workload::{Budget, Checker, Outcome};

/// Golden schedule hashes of the 40-step presets, as pinned in
/// `tests/multi_tenant.rs`.
const GOLDEN_FIG7: u64 = 0x7297887ee2c58dc9;
const GOLDEN_FIG8: u64 = 0x058fe0bd47928106;
const GOLDEN_FIG9: u64 = 0x322085bdc1a7dcb3;

type Build = Box<dyn Fn(TelemetryConfig) -> Experiment>;
type Verify = fn(&ExperimentRun) -> Result<(), String>;

struct Case {
    name: &'static str,
    build: Build,
    verify: Verify,
    golden: Option<u64>,
}

/// The generated inputs of a DES workload.
pub struct DesInput {
    cases: Vec<Case>,
}

impl DesInput {
    /// Experiment runs per round.
    pub fn cases(&self) -> usize {
        self.cases.len()
    }
}

/// What must repeat exactly between two rounds of the same case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CaseStats {
    events: u64,
    finished_ns: u64,
    actions: u64,
    blocked: u64,
}

fn stats_of(sim: &Sim, run: &ExperimentRun) -> CaseStats {
    CaseStats {
        events: sim.events_executed(),
        finished_ns: run.finished_at.as_nanos(),
        actions: run
            .tenants
            .iter()
            .map(|t| t.run.log.actions().len() as u64)
            .sum(),
        blocked: run
            .tenants
            .iter()
            .filter(|t| t.run.blocked_at.is_some())
            .count() as u64,
    }
}

// ---------------------------------------------------------------- inputs

fn tight_tenant(ix: usize) -> WorkloadConfig {
    let (_, mut wl) = ExperimentConfig::fig7().split();
    wl.id = format!("tight-{ix:03}");
    wl.sla.max_end_to_end = Some(SimDuration::from_secs(150));
    wl.weight = 2;
    wl
}

fn light_tenant(ix: usize, steps: u64) -> WorkloadConfig {
    let mut wl = WorkloadConfig::new(format!("light-{ix:03}"), 8);
    wl.steps = steps;
    wl.initial.helper = 2;
    wl.initial.bonds = 1;
    wl.initial.csym = 2;
    wl.initial.cna = 2;
    wl
}

fn no_engine_errors(run: &ExperimentRun) -> Result<(), String> {
    match run.errors.first() {
        None => Ok(()),
        Some(e) => Err(format!("engine error: {e}")),
    }
}

/// `des_cluster200`: 12 fig7-shaped tenants that need the manager plus 188
/// light ones, in a seeded submission order, on a machine with 4 spares.
pub fn cluster200_setup(seed: u64, small: bool) -> DesInput {
    let (tight, light, light_steps) = if small { (2, 8, 20) } else { (12, 188, 120) };
    let mut tenants: Vec<WorkloadConfig> = (0..tight).map(tight_tenant).collect();
    tenants.extend((0..light).map(|ix| light_tenant(ix, light_steps)));
    Rng(seed ^ 0xC200).shuffle(&mut tenants);
    let held: u32 = tenants.iter().map(WorkloadConfig::held_nodes).sum();
    let mut cluster = ClusterConfig::new(8192, held + 4);
    cluster.seed = seed;
    let build: Build = Box::new(move |telemetry| {
        let mut cluster = cluster.clone();
        cluster.telemetry = telemetry;
        Experiment::builder()
            .cluster(cluster)
            .tenants(tenants.iter().cloned())
            .build()
            .expect("generated composition is statically valid")
    });
    fn verify(run: &ExperimentRun) -> Result<(), String> {
        no_engine_errors(run)?;
        for t in &run.tenants {
            if !matches!(t.admission, AdmissionOutcome::Admitted { .. }) {
                return Err(format!("{} was not admitted", t.id));
            }
            if t.attainment.accounted != t.attainment.steps {
                return Err(format!(
                    "{} lost steps: {} of {} accounted",
                    t.id, t.attainment.accounted, t.attainment.steps
                ));
            }
        }
        Ok(())
    }
    validated(vec![Case {
        name: "cluster200",
        build,
        verify,
        golden: None,
    }])
}

/// Builds every case once, so a generated composition the builder rejects
/// fails in set-up rather than inside the timed region.
fn validated(cases: Vec<Case>) -> DesInput {
    for case in &cases {
        drop((case.build)(TelemetryConfig::off()));
    }
    DesInput { cases }
}

fn preset(
    name: &'static str,
    cfg: fn() -> ExperimentConfig,
    verify: Verify,
    golden: Option<u64>,
) -> Case {
    let build: Build = Box::new(move |telemetry| {
        let mut cfg = cfg();
        cfg.telemetry = telemetry;
        Experiment::single(cfg)
    });
    Case {
        name,
        build,
        verify,
        golden,
    }
}

fn faulted(name: &'static str, staging: Option<u32>, plan: FaultPlan, verify: Verify) -> Case {
    let build: Build = Box::new(move |telemetry| {
        let mut b = ExperimentConfig::fig7()
            .to_builder()
            .faults(plan.clone())
            .telemetry(telemetry);
        if let Some(n) = staging {
            b = b.staging_nodes(n);
        }
        Experiment::single(b.build().expect("fault scenario config is valid"))
    });
    Case {
        name,
        build,
        verify,
        golden: None,
    }
}

fn has_action(run: &ExperimentRun, pred: impl Fn(&Action) -> bool) -> bool {
    run.tenants
        .iter()
        .any(|t| t.run.log.actions().iter().any(|(_, a)| pred(a)))
}

fn zero_lost_steps(run: &ExperimentRun) -> Result<(), String> {
    let t = &run.tenants[0];
    let out = t.run.log.e2e_series().len() as u64;
    if out == t.attainment.steps {
        Ok(())
    } else {
        Err(format!("{out} of {} steps came out", t.attainment.steps))
    }
}

/// `des_figs`: the paper's presets, the unmanaged fig9 control, the three
/// `examples/fault_recovery.rs` plans and the 24-tenant composition of
/// `examples/multi_tenant.rs`.
pub fn figs_setup(seed: u64, _small: bool) -> DesInput {
    fn unmanaged_fig9() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::fig9();
        cfg.policy.enabled = false;
        cfg
    }
    fn must_block(run: &ExperimentRun) -> Result<(), String> {
        no_engine_errors(run)?;
        // A modelled outcome, not a failure: without the manager the
        // 1024-node pipeline has to overflow.
        if run.tenants[0].run.blocked_at.is_none() {
            return Err("unmanaged fig9 did not block".into());
        }
        Ok(())
    }
    fn restarted(run: &ExperimentRun) -> Result<(), String> {
        no_engine_errors(run)?;
        let r = &run.tenants[0].run;
        if !has_action(run, |a| matches!(a, Action::Restarted { .. })) {
            return Err("Bonds crash with spares was not restarted".into());
        }
        if !r.failed.is_empty() || !r.offline.is_empty() {
            return Err(format!(
                "failed {:?} offline {:?} after restart",
                r.failed, r.offline
            ));
        }
        zero_lost_steps(run)
    }
    fn went_offline(run: &ExperimentRun) -> Result<(), String> {
        no_engine_errors(run)?;
        let r = &run.tenants[0].run;
        if !r.offline.contains(&"Bonds") || !r.failed.is_empty() || r.disk_steps.is_empty() {
            return Err("Bonds crash without spares did not fall back to offline staging".into());
        }
        zero_lost_steps(run)
    }
    fn multi_tenant(run: &ExperimentRun) -> Result<(), String> {
        no_engine_errors(run)?;
        for t in &run.tenants {
            let admitted = matches!(t.admission, AdmissionOutcome::Admitted { .. });
            if admitted == (t.id == "greedy") {
                return Err(format!("{}: admission {:?}", t.id, t.admission));
            }
            if admitted && t.attainment.accounted != t.attainment.steps {
                return Err(format!("{} lost steps", t.id));
            }
        }
        Ok(())
    }

    let secs = SimDuration::from_secs;
    let lossy = FaultPlan::new()
        .with_seed(seed)
        .lose_messages(secs(30), 0.5, secs(120))
        .degrade_node(secs(30), 256, 0.25, 4.0, secs(120));

    // 12 tight + 11 light tenants in a seeded order, then the greedy
    // straggler admission control must refuse.
    let mut tenants: Vec<WorkloadConfig> = (0..12).map(tight_tenant).collect();
    tenants.extend((0..11).map(|ix| light_tenant(ix, 20)));
    Rng(seed ^ 0xF165).shuffle(&mut tenants);
    let mut greedy = light_tenant(99, 20);
    greedy.id = "greedy".into();
    greedy.initial.helper = 4;
    tenants.push(greedy);
    let mut cluster = ClusterConfig::new(4096, 12 * 13 + 11 * 5 + 4);
    cluster.seed = seed;
    let multi: Build = Box::new(move |telemetry| {
        let mut cluster = cluster.clone();
        cluster.telemetry = telemetry;
        Experiment::builder()
            .cluster(cluster)
            .tenants(tenants.iter().cloned())
            .build()
            .expect("the composition is statically valid; greedy fails at admission")
    });

    validated(vec![
        preset(
            "fig7",
            ExperimentConfig::fig7,
            no_engine_errors,
            Some(GOLDEN_FIG7),
        ),
        preset(
            "fig8",
            ExperimentConfig::fig8,
            no_engine_errors,
            Some(GOLDEN_FIG8),
        ),
        preset(
            "fig9",
            ExperimentConfig::fig9,
            no_engine_errors,
            Some(GOLDEN_FIG9),
        ),
        preset(
            "fig10",
            ExperimentConfig::fig10,
            no_engine_errors,
            Some(GOLDEN_FIG9),
        ),
        preset("fig9_unmanaged", unmanaged_fig9, must_block, None),
        faulted(
            "crash_with_spares",
            Some(16),
            FaultPlan::new().crash_container(secs(120), "Bonds"),
            restarted,
        ),
        faulted(
            "crash_no_spares",
            None,
            FaultPlan::new().crash_container(secs(150), "Bonds"),
            went_offline,
        ),
        faulted("loss_and_degrade", None, lossy, no_engine_errors),
        Case {
            name: "multi_tenant24",
            build: multi,
            verify: multi_tenant,
            golden: None,
        },
    ])
}

// ------------------------------------------------------------------ runs

/// What a pass over the cases is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// A timed round: telemetry off, no schedule trace.
    Timed,
    /// Every simtel category on, to read the program's own counters.
    Counted,
    /// `Sim::record_trace` on, to read the schedule hashes.
    Hashed,
}

/// One pass over every case. Returns the pass's wall time (the
/// verification between run and teardown is not timed) and each case's
/// repeat-exactly statistics; failures go to `check`.
fn pass(
    input: &DesInput,
    kind: Pass,
    round: u64,
    tr: &mut Tracer,
    check: &mut Checker,
    mut inspect: impl FnMut(&Case, &mut Sim, &ExperimentRun),
) -> (f64, Vec<CaseStats>) {
    let telemetry = if kind == Pass::Counted {
        TelemetryConfig::all()
    } else {
        TelemetryConfig::off()
    };
    let mut wall = 0.0;
    let mut all = Vec::with_capacity(input.cases.len());
    for case in &input.cases {
        // The enclosing span makes the three calls siblings under one
        // parent; its self time is the benchmark's own (verification).
        tr.span("bench.case", round, |tr| {
            let t0 = Instant::now();
            let ex = tr.span("iocontainers.experiment_build", round, |_| {
                (case.build)(telemetry)
            });
            let seed = ex.cluster().seed;
            let mut sim = tr.span("sim-core.sim_new", round, |_| Sim::new(seed));
            if kind == Pass::Hashed {
                sim.record_trace();
            }
            let run = tr.span("iocontainers.run_experiment_in", round, |_| {
                run_experiment_in(&mut sim, ex)
            });
            wall += t0.elapsed().as_secs_f64();

            let verdict = (case.verify)(&run);
            check.op(verdict.is_ok(), || {
                format!("{}: {}", case.name, verdict.unwrap_err())
            });
            all.push(stats_of(&sim, &run));
            inspect(case, &mut sim, &run);

            let t1 = Instant::now();
            tr.span("iocontainers.run_drop", round, |_| {
                drop(run);
                drop(sim);
            });
            wall += t1.elapsed().as_secs_f64();
        });
    }
    (wall, all)
}

fn sum_counters(counters: &BTreeMap<String, u64>, suffix: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| *v)
        .sum()
}

/// Runs a DES workload. With the tracer on it additionally makes one pass
/// with every simtel category on (the counts, and `simtel.overhead_ratio`)
/// and one with `Sim::record_trace` (the schedule hashes).
pub fn run(input: &DesInput, budget: Budget, tr: &mut Tracer) -> Outcome {
    let mut check = Checker::default();
    let mut layer = BTreeMap::new();
    let mut walls_ms = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<Vec<CaseStats>> = None;
    let started = Instant::now();

    let ((), sched) = SchedUse::around(|| {
        while budget.more(started, walls_ms.len()) {
            let round = walls_ms.len() as u64;
            let (wall, stats) = pass(input, Pass::Timed, round, tr, &mut check, |_, _, _| {});
            let events: u64 = stats.iter().map(|s| s.events).sum();
            walls_ms.push(wall * 1e3);
            rates.push(events as f64 / wall);
            match &first {
                None => first = Some(stats),
                Some(reference) => {
                    // A repeat that differs from the first round is one
                    // more failed operation per differing case.
                    for (case, (a, b)) in input.cases.iter().zip(reference.iter().zip(&stats)) {
                        if a != b {
                            check.demote(format!("{} did not repeat: {a:?} then {b:?}", case.name));
                        }
                    }
                }
            }
        }
    });
    let wall_s: f64 = walls_ms.iter().sum::<f64>() / 1e3;

    let reference = first.expect("at least one round ran");
    let sum = |f: fn(&CaseStats) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    layer.insert("sim-core.events_executed", sum(|s| s.events));
    layer.insert("iocontainers.actions", sum(|s| s.actions));
    layer.insert("iocontainers.tenants_blocked", sum(|s| s.blocked));

    if tr.is_on() {
        let off_ms = median(&walls_ms);
        // Counts at the layer boundaries, from the program's own simtel
        // counters with every category on.
        let mut untraced = Tracer::off();
        let mut count = |name: &'static str, n: u64| *layer.entry(name).or_insert(0.0) += n as f64;
        let (on_wall, on_stats) = pass(
            input,
            Pass::Counted,
            u64::MAX,
            &mut untraced,
            &mut check,
            |_, _, run| {
                let snap = run.telemetry.snapshot();
                // Every trade (a steal that moved nodes, or one that rolled
                // back) ran one D2T control transaction.
                let trades = run
                    .tenants
                    .iter()
                    .flat_map(|t| t.run.log.actions())
                    .filter(|(_, a)| match a {
                        Action::Increase { source, .. } => *source != ResourceSource::Spare,
                        Action::TradeAborted { .. } => true,
                        _ => false,
                    })
                    .count();
                count("d2t.transactions", trades as u64);
                count(
                    "iocontainers.policy_rounds",
                    sum_counters(&snap.counters, "policy.rounds"),
                );
                count(
                    "simfault.faults_injected",
                    sum_counters(&snap.counters, "kernel.fault.inject"),
                );
                count(
                    "evpath.events_delivered",
                    run.tenants
                        .first()
                        .map_or(0, |t| t.run.heartbeats_delivered),
                );
            },
        );
        check.op(on_stats == reference, || {
            "telemetry changed the simulated statistics (it must be schedule-neutral)".into()
        });
        layer.insert("simtel.overhead_ratio", on_wall * 1e3 / off_ms);

        // Schedule hashes, checked against the goldens where one is pinned.
        let mut folded = 0u64;
        let mut golden_failures = Vec::new();
        pass(
            input,
            Pass::Hashed,
            u64::MAX,
            &mut untraced,
            &mut check,
            |case, sim, _| {
                let hash = sim.take_trace().map_or(0, |t| t.schedule_hash());
                folded ^= hash;
                if let Some(golden) = case.golden {
                    if hash != golden {
                        golden_failures.push(format!(
                            "{}: hash {hash:#018x} != golden {golden:#018x}",
                            case.name
                        ));
                    }
                }
            },
        );
        for failure in golden_failures {
            check.op(false, || failure);
        }
        layer.insert(
            "iocontainers.schedule_hash_lo32",
            (folded & 0xffff_ffff) as f64,
        );
        let build = tr.total("iocontainers.experiment_build");
        layer.insert(
            "iocontainers.experiment_build_us",
            build.total_ns as f64 / 1e3 / build.count.max(1) as f64,
        );
    }

    let latency = Summary::of(&walls_ms);
    Outcome {
        check,
        wall_s,
        work_per_s: Summary::of(&rates),
        latency_ms: latency.p10,
        latency_ms_p90: latency.p90,
        latency,
        layer,
        sched,
    }
}
