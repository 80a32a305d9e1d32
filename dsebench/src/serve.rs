//! `serve_tenants`: an in-process daemon driven by one closed-loop load
//! generator holding one connection per core.
//!
//! Each tenant submits its next job the moment the previous `done` line
//! arrives. Its job sequence is drawn from a generator seeded by the
//! tenant's index: fresh NSGA-II jobs on the embedded cv32e40p FIFO
//! (tool runs and store writes), exact repeats of the tenant's own
//! completed specs (store reads, zero attempts) and `--explorer auto`
//! jobs on a 256-point space (low-fidelity race plus hypervolume
//! scoring). Every job has the daemon's default shape (`JobSpec`:
//! pop 8 × 5 generations). Every tenant runs on its own `vivado-sim:<seed>` backend,
//! so which answers the shared store holds never depends on how the
//! tenants interleave, and the first [`PREFIX`] jobs of every tenant —
//! over which the exact metrics are taken — are the same in every run.
//! The run's `--seed` only varies the submitted source's banner line.

use crate::explore::{self, JobDef, Tool};
use crate::probe::{median, quantile, Probe};
use crate::replay;
use crate::treegen::Rng;
use crate::{Outcome, Work};
use dovado::casestudies::cv32e40p;
use dovado::dse::{DseConfig, Explorer};
use dovado::serve::{fold_stream, Client, JobSpec, Json, ServeConfig, Server};
use dovado::{EvalConfig, HdlSource, MetricSet, ParameterSpace, Totals};
use dovado_hdl::{CatalogSource, Language, SourceCatalog};
use dovado_moo::{Nsga2Config, Termination};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Jobs per tenant whose exact metrics are reported; the loop runs until
/// every tenant has completed at least this many.
const PREFIX: usize = 12;
/// Explored axis of fresh jobs (64 points).
const FRESH_DOMAIN: &str = "2:128:2";
/// Explored axis of `auto` jobs: above the 64-point shortcut, so the
/// selector races its candidates.
const AUTO_DOMAIN: &str = "2:512:2";
/// Hypervolume reference (LUT, FF, BRAM, −Fmax) in minimization space.
const REFERENCE: [f64; 4] = [20_000.0, 20_000.0, 100.0, 0.0];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Fresh,
    Repeat,
    Auto,
}

/// One completed job as the client saw it.
struct Record {
    kind: Kind,
    /// `submit` sent → `done` line read.
    wall_s: f64,
    /// `submit` acknowledged → first event line.
    queue_wait_s: f64,
    /// Bytes of every line before `done` (header, events, summary).
    stream_bytes: u64,
    event_lines: u64,
    totals: Totals,
    evaluations: u64,
    tool_runs: u64,
    /// Front values (for hypervolume) and their exact bits.
    front: Vec<Vec<f64>>,
    front_bits: Vec<String>,
}

/// The embedded FIFO source, bannered with the run's seed.
fn job_source(seed: u64) -> Vec<(String, String)> {
    cv32e40p::case_study()
        .sources
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                format!(
                    "// cv32e40p FIFO, input variant {seed:#018x}.\n{}",
                    s.content
                ),
            )
        })
        .collect()
}

fn backend_seed(tenant: usize) -> u64 {
    101 + tenant as u64
}

/// One tenant's seeded job stream.
struct Tenant {
    index: usize,
    name: String,
    rng: Rng,
    sources: Vec<(String, String)>,
    fresh: u64,
    auto: u64,
    /// Completed specs with their front bits, repeat candidates.
    done: Vec<(JobSpec, Vec<String>)>,
}

impl Tenant {
    fn new(index: usize, sources: Vec<(String, String)>) -> Tenant {
        Tenant {
            index,
            name: format!("tenant-{index}"),
            rng: Rng::new(0x7E4A_0000 + index as u64),
            sources,
            fresh: 0,
            auto: 0,
            done: Vec::new(),
        }
    }

    fn spec(&self, domain: &str, explorer: &str, seed: u64) -> JobSpec {
        JobSpec {
            sources: self.sources.clone(),
            top: "fifo_v3".into(),
            params: vec![("DEPTH".into(), domain.into())],
            seed,
            explorer: explorer.into(),
            backend: format!("vivado-sim:{}", backend_seed(self.index)),
            use_store: true,
            ..JobSpec::default()
        }
    }

    /// The next job, drawn 8 : 4 : 3 fresh : repeat (once something has
    /// completed) : `auto`. Fresh to repeat is the 2 : 1 of the CI serve
    /// smoke (two tenants' fresh jobs, then one warm repeat); the fifth
    /// of `auto` jobs is this benchmark's own choice.
    fn next(&mut self) -> (Kind, JobSpec, Option<Vec<String>>) {
        match self.rng.range(0, 14) {
            8..=11 if !self.done.is_empty() => {
                let pick = self.rng.range(0, self.done.len() as u64 - 1) as usize;
                let (spec, bits) = self.done[pick].clone();
                (Kind::Repeat, spec, Some(bits))
            }
            12..=14 => {
                self.auto += 1;
                let spec = self.spec(AUTO_DOMAIN, "auto", 500 + self.auto);
                (Kind::Auto, spec, None)
            }
            _ => {
                self.fresh += 1;
                let spec = self.spec(FRESH_DOMAIN, "nsga2", self.fresh);
                (Kind::Fresh, spec, None)
            }
        }
    }
}

/// Submits `spec` and reads its stream to the `done` line, timing both
/// ends client side.
fn run_one(
    client: &mut Client,
    tenant: &str,
    kind: Kind,
    spec: &JobSpec,
) -> Result<Record, String> {
    let start = Instant::now();
    client.submit(tenant, 1, spec)?;
    let acked = start.elapsed().as_secs_f64();
    let mut first_event = None;
    let mut lines = Vec::new();
    let mut bytes = 0u64;
    let done = loop {
        let line = client
            .read_line()
            .map_err(|e| format!("read: {e}"))?
            .ok_or("connection closed before the done line")?;
        if line.starts_with("{\"type\":\"done\"") {
            break Json::parse(&line).ok_or("unparseable done line")?;
        }
        if first_event.is_none() && line.starts_with("{\"seq\"") {
            first_event = Some(start.elapsed().as_secs_f64());
        }
        bytes += line.len() as u64 + 1;
        lines.push(line);
    };
    let wall_s = start.elapsed().as_secs_f64();
    let status = done.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "done" {
        return Err(format!("job ended `{status}`: {:?}", done.get("error")));
    }
    let totals = fold_stream(lines.iter().map(String::as_str));
    let summary = lines
        .iter()
        .find(|l| l.starts_with("{\"type\":\"summary\""))
        .and_then(|l| Json::parse(l))
        .ok_or("stream has no summary line")?;
    let count = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64);
    let agrees = count(&summary, "attempts") == Some(totals.summary.attempts)
        && count(&summary, "runs") == Some(totals.runs)
        && count(&summary, "store_hits") == Some(totals.summary.store_hits)
        && summary
            .get("tool_time_s")
            .and_then(Json::as_f64)
            .is_some_and(|t| (t - totals.tool_time_s).abs() <= 1e-9 * totals.tool_time_s.abs());
    if !agrees {
        return Err("the stream's events do not fold to its summary line".into());
    }
    let evaluations = count(&done, "evaluations").ok_or("done line lacks evaluations")?;
    let tool_runs = count(&done, "tool_runs").ok_or("done line lacks tool_runs")?;
    if totals.runs + totals.summary.store_hits != tool_runs {
        return Err(format!(
            "stream folds to {} run(s) + {} store hit(s), done reports {tool_runs} tool run(s)",
            totals.runs, totals.summary.store_hits
        ));
    }
    let mut front = Vec::new();
    let mut front_bits = Vec::new();
    for entry in done
        .get("pareto")
        .and_then(Json::as_arr)
        .ok_or("done line lacks pareto")?
    {
        let bits = entry
            .get("bits")
            .and_then(Json::as_arr)
            .ok_or("pareto entry lacks bits")?;
        let mut values = Vec::new();
        let mut text = entry
            .get("point")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        for b in bits {
            let hex = b.as_str().ok_or("non-string bits")?;
            let v = u64::from_str_radix(hex, 16).map_err(|_| "bad bits")?;
            values.push(f64::from_bits(v));
            text.push(' ');
            text.push_str(hex);
        }
        front.push(values);
        front_bits.push(text);
    }
    Ok(Record {
        kind,
        wall_s,
        queue_wait_s: first_event.ok_or("stream carried no events")? - acked,
        stream_bytes: bytes,
        event_lines: lines.iter().filter(|l| l.starts_with("{\"seq\"")).count() as u64,
        totals,
        evaluations,
        tool_runs,
        front,
        front_bits,
    })
}

/// Counts tenants down to their reported prefix and takes the process's
/// peak resident set when the last one gets there. The daemon keeps every
/// finished job's state, so its memory grows with the jobs it has served;
/// reading the peak at the fixed prefix keeps `peak_rss_mb` from rising
/// merely because a faster build serves more jobs in the same time.
struct PrefixWatch {
    left: AtomicUsize,
    rss_bits: AtomicU64,
}

impl PrefixWatch {
    fn reached(&self) {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.rss_bits
                .store(crate::peak_rss_mb().to_bits(), Ordering::SeqCst);
        }
    }
}

/// What one tenant's closed loop has done so far.
#[derive(Default)]
struct Progress {
    records: Vec<Record>,
    attempted: u64,
    error: Option<String>,
}

/// One segment of a tenant's closed loop: runs until `seconds` have
/// passed since `begin` and at least `min_records` jobs completed in all.
/// Stops at the first failed job.
fn tenant_loop(
    client: &mut Client,
    tenant: &mut Tenant,
    progress: &mut Progress,
    begin: Instant,
    seconds: f64,
    min_records: usize,
    watch: &PrefixWatch,
) {
    let records = &mut progress.records;
    while records.len() < min_records || begin.elapsed().as_secs_f64() < seconds {
        let (kind, spec, expect) = tenant.next();
        progress.attempted += 1;
        let record = match run_one(client, &tenant.name, kind, &spec) {
            Ok(r) => r,
            Err(e) => {
                progress.error = Some(format!("{}: {e}", tenant.name));
                return;
            }
        };
        if let Some(bits) = expect {
            if record.totals.summary.attempts != 0 || record.front_bits != bits {
                progress.error = Some(format!(
                    "{}: a repeat made {} attempt(s) or answered differently",
                    tenant.name, record.totals.summary.attempts
                ));
                return;
            }
        } else {
            tenant.done.push((spec, record.front_bits.clone()));
        }
        records.push(record);
        if records.len() == PREFIX {
            watch.reached();
        }
    }
}

/// Daemon start + store open + one connection and handshake per tenant.
fn start(root: &Path, tenants: usize) -> Result<(Server, Vec<Client>), String> {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        slots: tenants,
        root: Some(root.to_path_buf()),
        store_capacity: None,
    })
    .map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr().to_string();
    let mut clients = Vec::new();
    for t in 0..tenants {
        let mut c = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        c.hello(&format!("tenant-{t}"))?;
        clients.push(c);
    }
    Ok((server, clients))
}

/// A fresh job of tenant 0 as a local job definition, for replays: the
/// daemon runs jobs serially on the spec's backend.
fn local_def(spec: &JobSpec) -> Result<JobDef, String> {
    let mut sources = Vec::new();
    for (name, text) in &spec.sources {
        let lang = name
            .rsplit('.')
            .next()
            .and_then(Language::from_extension)
            .ok_or_else(|| format!("{name}: unknown HDL extension"))?;
        sources.push(HdlSource::new(name.clone(), lang, text.clone()));
    }
    let mut space = ParameterSpace::new();
    for (name, domain) in &spec.params {
        space = space.with(name, dovado::cli::parse_domain(domain)?);
    }
    let seed = spec.backend["vivado-sim:".len()..]
        .parse()
        .map_err(|_| "backend seed")?;
    Ok(JobDef {
        sources,
        top: spec.top.clone(),
        space,
        eval: EvalConfig {
            seed,
            ..EvalConfig::default()
        },
        cfg: DseConfig {
            explorer: Explorer::Nsga2,
            algorithm: Nsga2Config {
                pop_size: spec.pop,
                seed: spec.seed,
                ..Nsga2Config::default()
            },
            termination: Termination::Generations(spec.generations),
            parallel: false,
            ..DseConfig::default()
        },
        persist: false,
        reference: REFERENCE.to_vec(),
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool, work: &Work, outcome: &mut Outcome) {
    let tenants = crate::cores();
    let sources = job_source(seed);

    // Set-up: daemon start + store open + one connection and `hello` per
    // tenant. The timed set-ups run no jobs, so they restart on one root
    // whose store stays empty, and a fresh directory per sample does not
    // put the file system's latency into `setup_s`. The daemon under load
    // is the same set-up on a fresh root of its own.
    let set_up_root = work.fresh("setup-root");
    let set_up = || start(&set_up_root, tenants);
    let mut timer = crate::SetupTimer::default();
    if let Err(e) = timer.burst(set_up).map(drop) {
        return outcome.fail(e);
    }
    let (mut server, mut clients) = match start(&work.fresh("root"), tenants) {
        Ok(live) => live,
        Err(e) => return outcome.fail(e),
    };
    let store_dir = server
        .store()
        .expect("daemon has a root")
        .dir()
        .to_path_buf();

    let loop_s = if trace { seconds / 2.0 } else { seconds };
    let watch = PrefixWatch {
        left: AtomicUsize::new(tenants),
        rss_bits: AtomicU64::new(0),
    };
    let mut states: Vec<Tenant> = (0..tenants)
        .map(|t| Tenant::new(t, sources.clone()))
        .collect();
    let mut results: Vec<Progress> = (0..tenants).map(|_| Progress::default()).collect();
    // The untraced loop runs in segments with a set-up burst between each
    // two, once every tenant's job in flight has ended; the daemon under
    // load stays up and idle while a burst starts and stops its own.
    let segments = if trace { 1 } else { crate::SEGMENTS };
    let begin = Instant::now();
    let mut loop_wall = 0.0;
    for segment in 0..segments {
        if segment > 0 {
            if let Err(e) = timer.burst(set_up).map(drop) {
                return outcome.fail(e);
            }
        }
        let last = segment + 1 == segments;
        let until = loop_s * (segment + 1) as f64 / segments as f64 - loop_wall;
        let segment_start = Instant::now();
        std::thread::scope(|scope| {
            for ((client, tenant), progress) in
                clients.iter_mut().zip(&mut states).zip(&mut results)
            {
                let watch = &watch;
                let min_records = if last { PREFIX } else { 0 };
                scope.spawn(move || {
                    tenant_loop(
                        client,
                        tenant,
                        progress,
                        segment_start,
                        until,
                        min_records,
                        watch,
                    )
                });
            }
        });
        loop_wall += segment_start.elapsed().as_secs_f64();
        if results.iter().any(|p| p.error.is_some()) {
            break;
        }
    }
    drop(clients);
    server.shutdown();

    let mut records: Vec<&Record> = Vec::new();
    let mut prefix: Vec<&Record> = Vec::new();
    for progress in &results {
        outcome.attempted += progress.attempted;
        if let Some(e) = &progress.error {
            outcome.fail(e.clone());
        }
        records.extend(progress.records.iter());
        prefix.extend(progress.records.iter().take(PREFIX));
    }
    if outcome.failed > 0 || prefix.len() < PREFIX * tenants {
        if outcome.failed == 0 {
            outcome.fail("a tenant completed fewer than the reported prefix".into());
        }
        return;
    }
    let mut mix = Vec::new();
    for kind in [Kind::Fresh, Kind::Repeat, Kind::Auto] {
        let walls: Vec<f64> = records
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.wall_s)
            .collect();
        mix.push(format!(
            "{} {kind:?} (p50 {:.1} ms)",
            walls.len(),
            median(&walls) * 1e3
        ));
    }
    outcome.note(format!("{} jobs: {}", records.len(), mix.join(", ")));
    let walls: Vec<f64> = records.iter().map(|r| r.wall_s).collect();
    let mean =
        |f: &dyn Fn(&Record) -> f64| prefix.iter().map(|r| f(r)).sum::<f64>() / prefix.len() as f64;

    if !trace {
        if let Err(e) = timer.burst(set_up).map(drop) {
            return outcome.fail(e);
        }
        let evals: u64 = records.iter().map(|r| r.evaluations).sum();
        let m = &mut outcome.metrics;
        m.push("evals_per_s", evals as f64 / loop_wall, "1/s");
        m.push("job_p50_ms", median(&walls) * 1e3, "ms");
        m.push("job_p90_ms", quantile(&walls, 0.9) * 1e3, "ms");
        m.push("jobs_per_s", records.len() as f64 / loop_wall, "1/s");
        m.push("setup_s", timer.seconds(), "s");
        m.push(
            "peak_rss_mb",
            f64::from_bits(watch.rss_bits.load(Ordering::SeqCst)),
            "MB",
        );
        m.push("tool_runs", mean(&|r| r.tool_runs as f64), "count");
        m.push("sim_tool_s", mean(&|r| r.totals.tool_time_s), "sim_s");
        let metrics = MetricSet::area_frequency();
        let hv = |r: &Record| explore::hypervolume(&metrics, &r.front, &REFERENCE);
        m.push("hypervolume", mean(&hv), "volume");
        return;
    }

    // Traced run: the client-side numbers of the loop above, then a fresh
    // job of tenant 0 replayed locally, untraced and traced, for the
    // layers inside the daemon.
    let waits: Vec<f64> = records.iter().map(|r| r.queue_wait_s).collect();
    let m = &mut outcome.metrics;
    m.push("serve.queue_wait_p50_ms", median(&waits) * 1e3, "ms");
    m.push(
        "serve.stream_bytes_per_job",
        mean(&|r| r.stream_bytes as f64),
        "bytes",
    );
    let hits = prefix
        .iter()
        .map(|r| r.totals.summary.store_hits)
        .sum::<u64>() as f64;
    let attempts = prefix
        .iter()
        .map(|r| r.totals.summary.attempts)
        .sum::<u64>() as f64;
    m.push(
        "store.hit_ratio",
        hits / (hits + attempts).max(1.0),
        "ratio",
    );

    let spec = Tenant::new(0, sources.clone()).spec(FRESH_DOMAIN, "nsga2", 1);
    let def = match local_def(&spec) {
        Ok(d) => d,
        Err(e) => return outcome.fail(format!("replay job: {e}")),
    };
    let half = (seconds - begin.elapsed().as_secs_f64()).max(1.0) / 4.0;
    let replay_jobs = |probe: Option<&Arc<Probe>>| -> Result<Vec<explore::JobOut>, String> {
        let t = Instant::now();
        let mut jobs = Vec::new();
        while jobs.len() < 5 || t.elapsed().as_secs_f64() < half {
            jobs.push(explore::run_job(&def, &Tool::Sim, probe, None).map_err(|e| e.to_string())?);
        }
        Ok(jobs)
    };
    let probe = Probe::new();
    let (plain, traced) = match (replay_jobs(None), replay_jobs(Some(&probe))) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(e), _) | (_, Err(e)) => return outcome.fail(format!("replay job: {e}")),
    };
    let windows: Vec<(f64, f64)> = traced.iter().map(|j| j.window).collect();
    let report = &traced[0].report;
    explore::layer_metrics(m, &probe, &windows, report);
    // The daemon's own event count replaces the replay's.
    m.push(
        "obs.events_per_job",
        mean(&|r| r.event_lines as f64),
        "count",
    );

    let catalog = replay::catalog_ms(|| {
        let srcs = def
            .sources
            .iter()
            .map(|s| CatalogSource::new(s.name.clone(), s.language, s.content.clone()))
            .collect();
        let cat = SourceCatalog::from_sources(srcs).map_err(|e| e.to_string())?;
        let _ = cat.compile_order().count();
        cat.infer_top().map(|_| ()).map_err(|e| e.to_string())
    });
    match catalog {
        Ok(ms) => m.push("hdl.catalog_ms", ms, "ms"),
        Err(e) => return outcome.fail(format!("catalog replay: {e}")),
    }
    m.push(
        "hdl.parse_mib_s",
        replay::parse_mib_s(&def.sources),
        "MiB/s",
    );
    let outcomes = dovado::Dovado::new(
        def.sources.clone(),
        &def.top,
        def.space.clone(),
        def.eval.clone(),
    )
    .map_err(|e| e.to_string())
    .and_then(|t| replay::tool_outcomes(&t, report, &def.cfg.metrics));
    let outcomes = match outcomes {
        Ok(o) => o,
        Err(e) => return outcome.fail(format!("replaying tool outcomes: {e}")),
    };
    replay::surrogate(m, &def.space, def.cfg.metrics.len(), &outcomes, &[]);
    // Hypervolume scoring of every auto job's front, sorting on the
    // replayed job's outcomes.
    replay::moo(
        m,
        &def.cfg.metrics,
        &outcomes,
        def.cfg.algorithm.pop_size,
        &[report],
        &REFERENCE,
    );
    let auto_fronts: Vec<&Record> = records
        .iter()
        .filter(|r| r.kind == Kind::Auto)
        .copied()
        .collect();
    if !auto_fronts.is_empty() {
        let fronts: Vec<Vec<Vec<f64>>> = auto_fronts
            .iter()
            .map(|r| {
                r.front
                    .iter()
                    .map(|v| explore::min_space(&def.cfg.metrics, v))
                    .collect()
            })
            .collect();
        replay::hypervolume(m, &fronts, &REFERENCE);
    }
    let spines: Vec<_> = traced
        .iter()
        .map(|j| &j.report.spine)
        .filter(|s| !s.events.is_empty())
        .collect();
    replay::encode(m, &spines);
    if let Err(e) = replay::persistence(m, work, |dir| {
        explore::run_job(&def, &Tool::Sim, None, dir).map(|j| j.wall_s)
    }) {
        return outcome.fail(format!("persistence replay: {e}"));
    }
    // Store get/put on the daemon's own keys replaces the replay job's.
    if let Err(e) = replay::store(m, &store_dir, work) {
        return outcome.fail(format!("store replay: {e}"));
    }
    for name in [
        "remote.attempt_p50_us",
        "remote.spawned",
        "remote.died",
        "remote.requeued",
    ] {
        m.push(
            name,
            0.0,
            if name.ends_with("_us") { "us" } else { "count" },
        );
    }
    explore::trace_overhead(m, &plain, &traced);
}
