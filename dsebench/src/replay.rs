//! Replays of public layer functions on inputs a workload produced, each
//! timed from outside: the per-layer numbers that no decorator or hook
//! can see.

use crate::explore::min_space;
use crate::probe::median;
use crate::{Metrics, Work};
use dovado::{
    write_jsonl, DesignPoint, Dovado, DovadoResult, DseReport, HdlSource, MetricSet, ObsEvent,
    ParameterSpace, SpineSnapshot,
};
use dovado_eda::store::EvalKey;
use dovado_eda::EvalStore;
use dovado_moo::Individual;
use dovado_surrogate::{SurrogateController, ThresholdPolicy};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Minimum host time one replay spends, so its median rests on many
/// repetitions even when one call takes microseconds.
const REPLAY_S: f64 = 0.2;

/// Calls `f` until [`REPLAY_S`] has passed (at least 5 times) and returns
/// the median call time in seconds.
fn timed(mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || begin.elapsed().as_secs_f64() < REPLAY_S {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Median milliseconds of one catalog pass (walk + compile order + top
/// inference).
pub fn catalog_ms(mut pass: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    pass()?;
    Ok(timed(|| {
        let _ = black_box(pass());
    }) * 1e3)
}

/// Parse throughput of `dovado_hdl::parse_source` over `sources`, MiB/s.
pub fn parse_mib_s(sources: &[HdlSource]) -> f64 {
    let bytes: usize = sources.iter().map(|s| s.content.len()).sum();
    let s = timed(|| {
        for src in sources {
            let _ = black_box(dovado_hdl::parse_source(
                src.language,
                black_box(&src.content),
            ));
        }
    });
    bytes as f64 / s / (1024.0 * 1024.0)
}

/// A job's tool outcomes as `(genome, metric values)` pairs.
pub type Outcomes = Vec<(Vec<i64>, Vec<f64>)>;

/// Parses an `A=1 B=2` point label back into a design point.
fn parse_label(label: &str) -> Option<DesignPoint> {
    let mut names = Vec::new();
    let mut values = Vec::new();
    for pair in label.split_whitespace() {
        let (n, v) = pair.split_once('=')?;
        names.push(n.to_string());
        values.push(v.parse().ok()?);
    }
    Some(DesignPoint::new(names, values))
}

/// The job's tool outcomes: every point the tool answered, re-evaluated
/// on `tool` (a cold instance of the same job), as `(genome, metric
/// values)` pairs in first-attempt order.
pub fn tool_outcomes(
    tool: &Dovado,
    report: &DseReport,
    metrics: &MetricSet,
) -> Result<Outcomes, String> {
    let mut seen = BTreeSet::new();
    let mut points = Vec::new();
    for (_, event) in &report.spine.events {
        if let ObsEvent::Attempt(a) = event {
            if seen.insert(a.point.clone()) {
                points.push(parse_label(&a.point).ok_or("unparseable point label")?);
            }
        }
    }
    let mut out = Vec::with_capacity(points.len());
    for r in tool.evaluate_points(&points, true) {
        let eval = r.result.map_err(|e| e.to_string())?;
        let genome = tool.space().encode(&r.point).map_err(|e| e.to_string())?;
        out.push((genome, metrics.extract(&eval)));
    }
    if out.is_empty() {
        return Err("the job made no tool attempts".into());
    }
    Ok(out)
}

/// Genomes the job's surrogate answered with an estimate.
pub fn estimated_points(report: &DseReport, space: &ParameterSpace) -> Vec<Vec<i64>> {
    report
        .spine
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            ObsEvent::SurrogateDecision { point, choice } if *choice == "estimated" => {
                parse_label(point).and_then(|p| space.encode(&p).ok())
            }
            _ => None,
        })
        .collect()
}

/// `surrogate.pretrain_ms` (the paper's controller pretrained on the
/// job's tool outcomes) and `surrogate.predict_us` (one prediction per
/// estimated point, or per tool point when the job estimated nothing).
pub fn surrogate(
    m: &mut Metrics,
    space: &ParameterSpace,
    outputs: usize,
    outcomes: &[(Vec<i64>, Vec<f64>)],
    estimated: &[Vec<i64>],
) {
    let fresh = || {
        SurrogateController::new(
            space.index_bounds(),
            outputs,
            ThresholdPolicy::paper_default(),
        )
    };
    let pretrain = timed(|| {
        let mut c = fresh();
        c.pretrain(outcomes.to_vec());
        black_box(&c);
    });
    let mut trained = fresh();
    trained.pretrain(outcomes.to_vec());
    let queries: Vec<&Vec<i64>> = if estimated.is_empty() {
        outcomes.iter().map(|(g, _)| g).collect()
    } else {
        estimated.iter().collect()
    };
    let predict = timed(|| {
        for q in &queries {
            black_box(trained.predict(q));
        }
    });
    m.push("surrogate.pretrain_ms", pretrain * 1e3, "ms");
    m.push(
        "surrogate.predict_us",
        predict / queries.len() as f64 * 1e6,
        "us",
    );
}

/// `moo.sort_ms` (non-dominated sort of 2 × pop objective vectors drawn
/// from the job's tool outcomes, the NSGA-II merge size) and
/// `moo.hypervolume_ms` (hypervolume of each report's front).
pub fn moo(
    m: &mut Metrics,
    metrics: &MetricSet,
    outcomes: &[(Vec<i64>, Vec<f64>)],
    pop: usize,
    reports: &[&DseReport],
    reference: &[f64],
) {
    let merged: Vec<Individual> = outcomes
        .iter()
        .cycle()
        .take(2 * pop)
        .map(|(g, v)| Individual::new(g.clone(), v.clone(), min_space(metrics, v)))
        .collect();
    let sort = timed(|| {
        let mut pop = merged.clone();
        black_box(dovado_moo::sorting::fast_non_dominated_sort(&mut pop));
    });
    m.push("moo.sort_ms", sort * 1e3, "ms");
    let fronts: Vec<Vec<Vec<f64>>> = reports
        .iter()
        .map(|r| {
            r.pareto
                .iter()
                .map(|e| min_space(&r.metrics, &e.values))
                .collect()
        })
        .collect();
    hypervolume(m, &fronts, reference);
}

/// `moo.hypervolume_ms`: `hypervolume_of` per front (minimization-space
/// objective vectors).
pub fn hypervolume(m: &mut Metrics, fronts: &[Vec<Vec<f64>>], reference: &[f64]) {
    let fronts: Vec<Vec<Individual>> = fronts
        .iter()
        .map(|f| {
            f.iter()
                .map(|v| Individual::new(Vec::new(), v.clone(), v.clone()))
                .collect()
        })
        .collect();
    let hv = timed(|| {
        for f in &fronts {
            black_box(dovado_moo::metrics::hypervolume_of(f, reference));
        }
    });
    m.push(
        "moo.hypervolume_ms",
        hv / fronts.len().max(1) as f64 * 1e3,
        "ms",
    );
}

/// `obs.encode_mib_s`: `write_jsonl` throughput over the jobs' spines.
pub fn encode(m: &mut Metrics, spines: &[&SpineSnapshot]) {
    let mut bytes = 0usize;
    let s = timed(|| {
        bytes = 0;
        for spine in spines {
            let mut buf = Vec::new();
            write_jsonl(spine, &mut buf).expect("writing to memory cannot fail");
            bytes += black_box(buf).len();
        }
    });
    m.push(
        "obs.encode_mib_s",
        bytes as f64 / s / (1024.0 * 1024.0),
        "MiB/s",
    );
}

/// Pairs of the same seeded job without and with persistence
/// (`run(None)` vs `run(Some(dir))`, alternating which goes first):
/// `persist.overhead_ms` is the difference of their medians and
/// `persist.journal_bytes` the journal's final size. The last persisted
/// store's keys are then replayed onto a fresh store.
pub fn persistence(
    m: &mut Metrics,
    work: &Work,
    mut run: impl FnMut(Option<&Path>) -> DovadoResult<f64>,
) -> Result<(), String> {
    const PAIRS: usize = 3;
    let (mut plain, mut persisted) = (Vec::new(), Vec::new());
    let mut last_dir = None;
    for i in 0..PAIRS {
        let dir = work.fresh("persist");
        for first in [i % 2 == 0, i % 2 != 0] {
            if first {
                plain.push(run(None).map_err(|e| e.to_string())?);
            } else {
                persisted.push(run(Some(&dir)).map_err(|e| e.to_string())?);
            }
        }
        if let Some(old) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let dir = last_dir.expect("ran at least one pair");
    let journal = std::fs::metadata(dir.join("journal.dovado"))
        .map(|md| md.len())
        .map_err(|e| format!("journal: {e}"))?;
    m.push(
        "persist.overhead_ms",
        (median(&persisted) - median(&plain)) * 1e3,
        "ms",
    );
    m.push("persist.journal_bytes", journal as f64, "bytes");
    let result = store(m, &dir.join("store"), work);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// `store.put_us` / `store.get_us`: every entry of the store at `dir`
/// written into, then read back from, a fresh on-disk store.
pub fn store(m: &mut Metrics, dir: &Path, work: &Work) -> Result<(), String> {
    let source = EvalStore::open(dir).map_err(|e| format!("store: {e}"))?;
    let mut entries = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| format!("store: {e}"))? {
            let path = entry.map_err(|e| format!("store: {e}"))?.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let Some(hex) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".entry"))
            else {
                continue;
            };
            let (Ok(hi), Ok(lo)) = (
                u64::from_str_radix(&hex[..16], 16),
                u64::from_str_radix(&hex[16..], 16),
            ) else {
                continue;
            };
            let key = EvalKey { hi, lo };
            let payload = source.get(&key).ok_or("store entry did not read back")?;
            entries.push((key, payload));
        }
    }
    if entries.is_empty() {
        return Err("the store holds no entries".into());
    }
    entries.sort_by_key(|(k, _)| k.hex());
    let fresh_dir = work.fresh("store");
    let fresh = EvalStore::open(&fresh_dir).map_err(|e| format!("store: {e}"))?;
    let t = Instant::now();
    for (key, payload) in &entries {
        fresh
            .put(key, payload)
            .map_err(|e| format!("store put: {e}"))?;
    }
    let put = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (key, payload) in &entries {
        if fresh.get(key).as_deref() != Some(payload.as_str()) {
            return Err("replayed store entry read back differently".into());
        }
    }
    let get = t.elapsed().as_secs_f64();
    let n = entries.len() as f64;
    m.push("store.put_us", put / n * 1e6, "us");
    m.push("store.get_us", get / n * 1e6, "us");
    let _ = std::fs::remove_dir_all(fresh_dir);
    Ok(())
}
