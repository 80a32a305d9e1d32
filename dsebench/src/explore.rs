//! The three `explore` workloads: `rtl_tree` (generated cross-language
//! tree, tool-only NSGA-II, in-process threads), `fleet_tree` (the same
//! tree and job on a process fleet) and `surrogate_store` (the Corundum
//! case study under the paper's surrogate, persisted like
//! `explore --surrogate 100 --store`).
//!
//! Every job starts from cold program state — fresh `Dovado`, fresh
//! backend, fresh persistence directory — as one CLI run does. Only the
//! fleet's worker processes outlive a job.

use crate::probe::{median, quantile, union_len, GenMonitor, Probe, TracedBackend};
use crate::replay;
use crate::treegen;
use crate::{Metrics, Outcome, Work};
use dovado::casestudies::corundum;
use dovado::dse::DseConfig;
use dovado::flow::load_project_tree;
use dovado::{
    Dovado, DovadoResult, DseReport, EvalConfig, HdlSource, ObsEvent, ParameterSpace,
    PersistConfig, RemoteBackend, SimBackend, SurrogateConfig, ToolBackend,
};
use dovado_eda::WorkerLifecycle;
use dovado_hdl::SourceCatalog;
use dovado_moo::{Nsga2Config, Sense, Termination};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which explore workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    RtlTree,
    FleetTree,
    SurrogateStore,
}

/// Everything one exploration job needs; each job clones it into a cold
/// `Dovado`.
#[derive(Clone)]
pub struct JobDef {
    pub sources: Vec<HdlSource>,
    pub top: String,
    pub space: ParameterSpace,
    pub eval: EvalConfig,
    pub cfg: DseConfig,
    pub persist: bool,
    /// Hypervolume reference point in minimization space.
    pub reference: Vec<f64>,
}

/// The bitwise identity of a job's answer: front values as `f64` bits
/// plus the exact counters. Every job of a run must produce the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    pub front: Vec<(String, Vec<u64>)>,
    pub evaluations: u64,
    pub tool_runs: u64,
    pub estimates: u64,
    pub failures: u64,
    pub sim_tool_bits: u64,
    pub hypervolume_bits: u64,
}

/// One completed job.
pub struct JobOut {
    /// Host seconds, start → Pareto front.
    pub wall_s: f64,
    /// Probe-clock window (traced jobs only).
    pub window: (f64, f64),
    pub report: DseReport,
    pub signature: Signature,
}

/// Hypervolume of a front (metric values per entry) in minimization
/// space against `reference`.
pub fn hypervolume(metrics: &dovado::MetricSet, front: &[Vec<f64>], reference: &[f64]) -> f64 {
    let points: Vec<Vec<f64>> = front.iter().map(|v| min_space(metrics, v)).collect();
    dovado_moo::metrics::hypervolume(&points, reference)
}

/// Sense-adjusts metric values into minimization space.
pub fn min_space(metrics: &dovado::MetricSet, values: &[f64]) -> Vec<f64> {
    metrics
        .metrics()
        .iter()
        .zip(values)
        .map(|(m, v)| match m.sense() {
            Sense::Minimize => *v,
            Sense::Maximize => -*v,
        })
        .collect()
}

/// Simulated tool seconds of a job, folded over its spine in canonical
/// `(seq, sub)` order. `DseReport::tool_time_s` is the same sum taken in
/// event-arrival order, which under a parallel schedule differs from run
/// to run in the last bits; [`run_job`] checks the two agree to rounding.
pub fn sim_tool_s(report: &DseReport) -> f64 {
    dovado::fold_totals(report.spine.events.iter().map(|(_, e)| e)).tool_time_s
}

/// The exact identity of a job's answer.
pub fn signature(report: &DseReport, reference: &[f64]) -> Signature {
    Signature {
        front: report
            .pareto
            .iter()
            .map(|e| {
                (
                    e.point.to_string(),
                    e.values.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect(),
        evaluations: report.evaluations,
        tool_runs: report.tool_runs,
        estimates: report.estimates,
        failures: report.failures,
        sim_tool_bits: sim_tool_s(report).to_bits(),
        hypervolume_bits: {
            let front: Vec<Vec<f64>> = report.pareto.iter().map(|e| e.values.clone()).collect();
            hypervolume(&report.metrics, &front, reference).to_bits()
        },
    }
}

/// The CLI-default schedule: parallel batches on the global pool, which
/// is sized to the machine's cores.
fn cli_default(algorithm: Nsga2Config, generations: u32) -> DseConfig {
    DseConfig {
        algorithm,
        termination: Termination::Generations(generations),
        parallel: true,
        ..DseConfig::default()
    }
}

/// Jobs of a loop whose full spines are kept for the replays.
const KEEP_SPINES: usize = 3;

/// NSGA-II shape of the tree workloads.
const TREE_POP: usize = 16;
const TREE_GENERATIONS: u32 = 10;
/// Explored axis of the tree workloads.
const TREE_DEPTH: &str = "2:4096:2";

/// NSGA-II shape of `surrogate_store` (the issue's Corundum run).
const SURROGATE_POP: usize = 64;
const SURROGATE_GENERATIONS: u32 = 40;

/// The program's set-up for `kind`: the job definition loaded from the
/// input tree under `dir` through the catalog (walk, parse, compile
/// order, top inference), checked by constructing a `Dovado` from it.
fn load(kind: Kind, dir: &Path, workers: usize) -> DovadoResult<JobDef> {
    let (sources, top) = load_project_tree(dir, None)?;
    let (space, eval, cfg, persist, reference) = match kind {
        Kind::RtlTree | Kind::FleetTree => {
            let space = ParameterSpace::new().with(
                "DEPTH",
                dovado::cli::parse_domain(TREE_DEPTH).expect("valid domain"),
            );
            let mut cfg = cli_default(
                Nsga2Config {
                    pop_size: TREE_POP,
                    seed: 7,
                    ..Nsga2Config::default()
                },
                TREE_GENERATIONS,
            );
            if kind == Kind::FleetTree {
                cfg.workers = Some(workers);
            }
            (
                space,
                EvalConfig::default(),
                cfg,
                false,
                vec![20_000.0, 20_000.0, 100.0, 0.0],
            )
        }
        Kind::SurrogateStore => {
            let cs = corundum::case_study();
            let mut cfg = cli_default(
                Nsga2Config {
                    pop_size: SURROGATE_POP,
                    seed: 11,
                    ..Nsga2Config::default()
                },
                SURROGATE_GENERATIONS,
            );
            cfg.metrics = cs.metrics.clone();
            cfg.surrogate = Some(SurrogateConfig::default());

            let eval = EvalConfig {
                part: cs.part.to_string(),
                ..EvalConfig::default()
            };
            (
                cs.space.clone(),
                eval,
                cfg,
                true,
                vec![100_000.0, 100_000.0, 1_000.0, 0.0],
            )
        }
    };
    let def = JobDef {
        sources,
        top,
        space,
        eval,
        cfg,
        persist,
        reference,
    };
    // Construction parses the sources and binds the space, exactly as
    // the first thing a CLI run does.
    Dovado::new(
        def.sources.clone(),
        &def.top,
        def.space.clone(),
        def.eval.clone(),
    )?;
    Ok(def)
}

/// Writes the seed's input files for `kind` under `dir`.
fn write_inputs(kind: Kind, seed: u64, dir: &Path) -> std::io::Result<()> {
    match kind {
        Kind::RtlTree | Kind::FleetTree => treegen::write(&treegen::generate(seed), dir),
        Kind::SurrogateStore => {
            // The seed varies the file's banner, never the design, so the
            // simulated answers are identical for every seed.
            let cs = corundum::case_study();
            for src in &cs.sources {
                let text = format!(
                    "// Corundum completion-queue manager, input variant {seed:#018x}.\n{}",
                    src.content
                );
                std::fs::write(dir.join(&src.name), text)?;
            }
            Ok(())
        }
    }
}

/// The backend a job runs on.
pub enum Tool {
    /// The default in-process simulator, fresh per job.
    Sim,
    /// The shared process fleet.
    Fleet(Arc<RemoteBackend>),
}

pub fn run_job(
    def: &JobDef,
    tool: &Tool,
    probe: Option<&Arc<Probe>>,
    persist_dir: Option<&Path>,
) -> DovadoResult<JobOut> {
    let start = Instant::now();
    let window_start = probe.map_or(0.0, |p| p.now());
    let inner: Option<Arc<dyn ToolBackend>> = match tool {
        Tool::Sim => {
            probe.map(|_| Arc::new(SimBackend::new(def.eval.seed)) as Arc<dyn ToolBackend>)
        }
        Tool::Fleet(fleet) => Some(fleet.clone() as Arc<dyn ToolBackend>),
    };
    let backend = match (inner, probe) {
        (Some(inner), Some(p)) => {
            Some(Arc::new(TracedBackend::new(inner, p.clone())) as Arc<dyn ToolBackend>)
        }
        (inner, _) => inner,
    };
    let tool = match backend {
        Some(b) => Dovado::with_backend(
            def.sources.clone(),
            &def.top,
            def.space.clone(),
            def.eval.clone(),
            b,
        )?,
        None => Dovado::new(
            def.sources.clone(),
            &def.top,
            def.space.clone(),
            def.eval.clone(),
        )?,
    };
    let persist = persist_dir.map(PersistConfig::new);
    let report = match probe {
        Some(p) => tool.explore_monitored(&def.cfg, persist.as_ref(), &GenMonitor(p.clone()))?,
        None => match &persist {
            Some(pc) => tool.explore_persistent(&def.cfg, pc)?,
            None => tool.explore(&def.cfg)?,
        },
    };
    let wall_s = start.elapsed().as_secs_f64();
    let window = (window_start, probe.map_or(0.0, |p| p.now()));
    let signature = signature(&report, &def.reference);
    let canonical = sim_tool_s(&report);
    if (report.tool_time_s - canonical).abs() > 1e-9 * canonical.abs() {
        return Err(dovado::DovadoError::Config(format!(
            "report tool_time_s {} disagrees with its spine's {canonical}",
            report.tool_time_s
        )));
    }
    Ok(JobOut {
        wall_s,
        window,
        report,
        signature,
    })
}

/// Runs jobs back to back for `seconds` of job time, each in a fresh
/// persistence directory when the job persists, and calls `between` at
/// each of the [`crate::SEGMENTS`] − 1 inner segment boundaries. Fails the
/// run on any error or any answer that differs from `expect`.
#[allow(clippy::too_many_arguments)]
fn job_loop(
    def: &JobDef,
    tool: &Tool,
    probe: Option<&Arc<Probe>>,
    work: &Work,
    seconds: f64,
    expect: &Signature,
    outcome: &mut Outcome,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Vec<JobOut> {
    let segment = seconds / crate::SEGMENTS as f64;
    let mut busy = 0.0;
    let mut boundary = segment;
    let mut jobs = Vec::new();
    while busy < seconds || jobs.is_empty() {
        if busy >= boundary {
            if let Err(e) = between() {
                outcome.fail(e);
                break;
            }
            while boundary <= busy {
                boundary += segment;
            }
        }
        let dir = def.persist.then(|| work.fresh("job"));
        outcome.attempted += 1;
        let job = run_job(def, tool, probe, dir.as_deref());
        busy += job.as_ref().map_or(0.0, |j| j.wall_s);
        match job {
            Ok(job) => {
                if job.signature != *expect {
                    outcome.fail(format!(
                        "job {} answered differently from the reference job: {:?} vs {:?}",
                        outcome.attempted, job.signature, expect
                    ));
                } else if job.report.failures > 0 {
                    outcome.fail(format!("job {} had failed evaluations", outcome.attempted));
                } else {
                    let mut job = job;
                    if jobs.len() >= KEEP_SPINES {
                        // Later jobs' spines are never read; dropping them
                        // keeps peak memory independent of the job count.
                        job.report.spine = Default::default();
                        job.report.events = Vec::new();
                    }
                    jobs.push(job);
                }
            }
            Err(e) => outcome.fail(format!("job {}: {e}", outcome.attempted)),
        }
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        if outcome.failed > 0 {
            break;
        }
    }
    jobs
}

/// Spawns the process fleet: `workers` copies of this benchmark binary
/// serving the worker protocol on their stdio.
fn spawn_fleet(eval: &EvalConfig, workers: usize) -> Result<Arc<RemoteBackend>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spec = format!("vivado-sim:{}", eval.seed);
    dovado::worker::process_fleet(
        vec![exe.to_string_lossy().into_owned(), "worker".into()],
        &spec,
        workers,
    )
    .map(Arc::new)
    .map_err(|e| format!("fleet: {e}"))
}

/// Runs one explore workload and fills `outcome` with its metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, work: &Work, outcome: &mut Outcome) {
    let threads = crate::cores();
    let input = work.fresh("input");
    if let Err(e) = write_inputs(kind, seed, &input) {
        return outcome.fail(format!("writing inputs: {e}"));
    }

    // Set-up: catalog walk + parse + Dovado construction, plus fleet
    // spawn + handshake on `fleet_tree`.
    let set_up = || {
        let def =
            load(kind, &input, threads).map_err(|e| format!("loading the input tree: {e}"))?;
        let fleet = match kind {
            Kind::FleetTree => Some(spawn_fleet(&def.eval, threads)?),
            _ => None,
        };
        Ok((def, fleet))
    };
    let mut timer = crate::SetupTimer::default();
    let (def, fleet) = match timer.burst(set_up) {
        Ok(built) => built,
        Err(e) => return outcome.fail(e),
    };
    let tool = match &fleet {
        Some(f) => Tool::Fleet(f.clone()),
        None => Tool::Sim,
    };

    // Reference answer: one untimed job whose answer every timed job must
    // repeat bitwise. On `fleet_tree` the fleet's reference must also
    // match the same job run in-process (`rtl_tree`) in front and counts.
    // Simulated seconds are compared within the fleet only: workers
    // rebuild their simulator per session, so the fleet's tool-level
    // checkpoint cache differs from the in-process one.
    let dir = def.persist.then(|| work.fresh("ref"));
    let expect = match run_job(&def, &tool, None, dir.as_deref()) {
        Ok(job) if job.report.failures == 0 => job.signature,
        Ok(_) => return outcome.fail("reference job had failed evaluations".into()),
        Err(e) => return outcome.fail(format!("reference job: {e}")),
    };
    if kind == Kind::FleetTree {
        let mut local = def.clone();
        local.cfg.workers = None;
        match run_job(&local, &Tool::Sim, None, None) {
            Ok(job) => {
                let in_process = Signature {
                    sim_tool_bits: expect.sim_tool_bits,
                    ..job.signature
                };
                if in_process != expect {
                    return outcome.fail(format!(
                        "fleet answer differs from the in-process answer: {expect:?} vs {in_process:?}"
                    ));
                }
                outcome.note(format!(
                    "fleet charges {:.4}x the in-process simulated tool seconds",
                    f64::from_bits(expect.sim_tool_bits)
                        / f64::from_bits(job.signature.sim_tool_bits)
                ));
            }
            Err(e) => return outcome.fail(format!("in-process reference job: {e}")),
        }
    }

    if !trace {
        // Later bursts drop what they built, so the jobs keep the set-up
        // of the first burst (and its fleet).
        let mut burst = || timer.burst(set_up).map(drop);
        let jobs = job_loop(
            &def, &tool, None, work, seconds, &expect, outcome, &mut burst,
        );
        if jobs.is_empty() {
            return;
        }
        // The last burst runs once this run's fleet is gone.
        drop((tool, fleet));
        if let Err(e) = burst() {
            return outcome.fail(e);
        }
        let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
        let total: f64 = walls.iter().sum();
        let evals: u64 = jobs.iter().map(|j| j.report.evaluations).sum();
        let first = &jobs[0];
        let m = &mut outcome.metrics;
        m.push("evals_per_s", evals as f64 / total, "1/s");
        m.push("job_p50_ms", median(&walls) * 1e3, "ms");
        m.push("job_p90_ms", quantile(&walls, 0.9) * 1e3, "ms");
        m.push("jobs_per_s", jobs.len() as f64 / total, "1/s");
        m.push("setup_s", timer.seconds(), "s");
        m.push("peak_rss_mb", crate::peak_rss_mb(), "MB");
        m.push("tool_runs", first.report.tool_runs as f64, "count");
        m.push(
            "sim_tool_s",
            f64::from_bits(first.signature.sim_tool_bits),
            "sim_s",
        );
        m.push(
            "hypervolume",
            f64::from_bits(first.signature.hypervolume_bits),
            "volume",
        );
        outcome.note(format!(
            "{} jobs: {:?}",
            jobs.len(),
            walls.iter().map(|w| (w * 1e3) as u64).collect::<Vec<_>>()
        ));
        return;
    }

    // Traced run: an untraced half for the overhead baseline, then a
    // traced half with the decorator, the monitor and the fleet hook.
    let mut nothing = || Ok(());
    let plain = job_loop(
        &def,
        &tool,
        None,
        work,
        seconds / 2.0,
        &expect,
        outcome,
        &mut nothing,
    );
    let probe = Probe::new();
    let lifecycle = Arc::new([(); 3].map(|_| AtomicU64::new(0)));
    if let Some(f) = &fleet {
        let counts = lifecycle.clone();
        f.set_lifecycle_hook(Arc::new(move |event| {
            let slot = match event {
                WorkerLifecycle::Spawned { .. } => 0,
                WorkerLifecycle::Died { .. } => 1,
                WorkerLifecycle::Requeued { .. } => 2,
                WorkerLifecycle::Stole { .. } => return,
            };
            counts[slot].fetch_add(1, Ordering::Relaxed);
        }));
    }
    let traced = job_loop(
        &def,
        &tool,
        Some(&probe),
        work,
        seconds / 2.0,
        &expect,
        outcome,
        &mut nothing,
    );
    if plain.is_empty() || traced.is_empty() {
        return;
    }
    let m = &mut outcome.metrics;
    let windows: Vec<(f64, f64)> = traced.iter().map(|j| j.window).collect();
    layer_metrics(m, &probe, &windows, &traced[0].report);

    // Layer replays on this workload's own inputs.
    let catalog_ms = replay::catalog_ms(|| {
        let cat = SourceCatalog::walk(&input).map_err(|e| e.to_string())?;
        let _ = cat.compile_order().count();
        cat.infer_top().map(|_| ()).map_err(|e| e.to_string())
    });
    match catalog_ms {
        Ok(ms) => m.push("hdl.catalog_ms", ms, "ms"),
        Err(e) => return outcome.fail(format!("catalog replay: {e}")),
    }
    m.push(
        "hdl.parse_mib_s",
        replay::parse_mib_s(&def.sources),
        "MiB/s",
    );
    let report = &traced[0].report;
    let probe_tool = Dovado::new(
        def.sources.clone(),
        &def.top,
        def.space.clone(),
        def.eval.clone(),
    );
    let outcomes = probe_tool
        .map_err(|e| e.to_string())
        .and_then(|t| replay::tool_outcomes(&t, report, &def.cfg.metrics));
    let outcomes = match outcomes {
        Ok(o) => o,
        Err(e) => return outcome.fail(format!("replaying tool outcomes: {e}")),
    };
    let estimated = replay::estimated_points(report, &def.space);
    replay::surrogate(m, &def.space, def.cfg.metrics.len(), &outcomes, &estimated);
    replay::moo(
        m,
        &def.cfg.metrics,
        &outcomes,
        def.cfg.algorithm.pop_size,
        &[report],
        &def.reference,
    );
    let spines: Vec<_> = traced
        .iter()
        .map(|j| &j.report.spine)
        .filter(|s| !s.events.is_empty())
        .collect();
    replay::encode(m, &spines);

    // Persistence: the same seeded job with and without the journal and
    // store, then the store's own keys replayed onto a fresh store.
    let local = {
        let mut d = def.clone();
        d.cfg.workers = None;
        d
    };
    match replay::persistence(m, work, |dir| {
        run_job(&local, &Tool::Sim, None, dir).map(|j| j.wall_s)
    }) {
        Ok(()) => {}
        Err(e) => return outcome.fail(format!("persistence replay: {e}")),
    }
    let hits = report.trace.store_hits as f64;
    m.push(
        "store.hit_ratio",
        hits / (hits + report.trace.attempts as f64).max(1.0),
        "ratio",
    );
    m.push("serve.queue_wait_p50_ms", 0.0, "ms");
    m.push("serve.stream_bytes_per_job", 0.0, "bytes");
    let [spawned, died, requeued] = &*lifecycle;
    let remote_p50 = if fleet.is_some() {
        m.get("eda.attempt_p50_us")
    } else {
        0.0
    };
    m.push("remote.attempt_p50_us", remote_p50, "us");
    m.push(
        "remote.spawned",
        spawned.load(Ordering::Relaxed) as f64,
        "count",
    );
    m.push("remote.died", died.load(Ordering::Relaxed) as f64, "count");
    m.push(
        "remote.requeued",
        requeued.load(Ordering::Relaxed) as f64,
        "count",
    );
    trace_overhead(m, &plain, &traced);
    outcome.note(format!(
        "{} untraced + {} traced jobs",
        plain.len(),
        traced.len()
    ));
}

/// `bench.trace_overhead_pct`: how much slower, in evaluations per host
/// second, the traced jobs ran than the untraced ones.
pub fn trace_overhead(m: &mut Metrics, plain: &[JobOut], traced: &[JobOut]) {
    let rate = |jobs: &[JobOut]| {
        let evals: u64 = jobs.iter().map(|j| j.report.evaluations).sum();
        evals as f64 / jobs.iter().map(|j| j.wall_s).sum::<f64>()
    };
    let (untraced, traced) = (rate(plain), rate(traced));
    m.push(
        "bench.trace_overhead_pct",
        (untraced - traced) / untraced * 100.0,
        "%",
    );
}

/// Per-layer metrics from the decorator's session records and the
/// monitor's generation stamps, attributed to jobs by their windows.
pub fn layer_metrics(m: &mut Metrics, probe: &Probe, windows: &[(f64, f64)], report: &DseReport) {
    let sessions = probe.sessions();
    let stamps = probe.generations();
    let mut attempt_us = Vec::new();
    let mut cached_us = Vec::new();
    let mut cold_us = Vec::new();
    let mut overhead_us = Vec::new();
    let (mut eval_s, mut session_s, mut bytes) = (0.0, 0.0, 0u64);
    let mut busy = Vec::new();
    let mut no_tool = Vec::new();
    let mut gen_ms = Vec::new();
    for s in &sessions {
        let d = s.end - s.start;
        attempt_us.push(d * 1e6);
        overhead_us.push((d - s.eval_s) * 1e6);
        if s.cached {
            cached_us.push(d * 1e6);
        } else {
            cold_us.push(d * 1e6);
        }
        eval_s += s.eval_s;
        session_s += d;
        bytes += s.bytes;
    }
    for &(a, b) in windows {
        let wall = b - a;
        let inside: Vec<(f64, f64)> = sessions
            .iter()
            .filter(|s| s.start >= a && s.end <= b)
            .map(|s| (s.start, s.end))
            .collect();
        let sum: f64 = inside.iter().map(|(s, e)| e - s).sum();
        busy.push(sum / wall);
        no_tool.push(1.0 - union_len(&inside) / wall);
        let mut last = a;
        for &t in stamps.iter().filter(|&&t| t >= a && t <= b) {
            gen_ms.push((t - last) * 1e3);
            last = t;
        }
    }
    let n = sessions.len().max(1) as f64;
    m.push(
        "eda.attempts",
        sessions.len() as f64 / windows.len() as f64,
        "count",
    );
    m.push("eda.attempt_p50_us", median(&attempt_us), "us");
    m.push("eda.attempt_p90_us", quantile(&attempt_us, 0.9), "us");
    m.push(
        "eda.eval_share",
        eval_s / session_s.max(f64::MIN_POSITIVE),
        "ratio",
    );
    m.push("eda.cached_attempt_p50_us", median(&cached_us), "us");
    m.push("eda.cold_attempt_p50_us", median(&cold_us), "us");
    m.push("eda.bytes_per_attempt", bytes as f64 / n, "bytes");
    m.push("engine.overhead_p50_us", median(&overhead_us), "us");
    m.push("engine.busy_threads", median(&busy), "threads");
    m.push("engine.no_tool_share", median(&no_tool), "ratio");
    m.push("dse.gen_p50_ms", median(&gen_ms), "ms");
    m.push(
        "surrogate.estimate_ratio",
        report.estimates as f64 / report.evaluations.max(1) as f64,
        "ratio",
    );
    let reselections = report
        .spine
        .events
        .iter()
        .filter(|(_, e)| matches!(e, ObsEvent::Reselected { .. }))
        .count();
    m.push("surrogate.reselections", reselections as f64, "count");
    m.push(
        "obs.events_per_job",
        report.spine.events.len() as f64,
        "count",
    );
}
