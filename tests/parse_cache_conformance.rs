//! Parse-cache conformance: a tool session whose sources come out of a
//! warm [`ParseCache`] is indistinguishable from one that parses them.
//!
//! Each case study and the `--project` fixture tree is evaluated through
//! the real engine on a recording backend, which keeps every session's
//! file writes and scripts. Each recorded session is then replayed twice
//! on a fresh simulator: once with a cold cache, once with a cache that
//! already holds every text. Files, journal and simulated time must match
//! byte for byte, and so must any error.

use dovado::backend::{SimBackend, ToolBackend, ToolSession};
use dovado::casestudies::{self, CaseStudy};
use dovado::{Dovado, EvalConfig, HdlSource, ParameterSpace};
use dovado_eda::error::EdaResult;
use dovado_eda::{FaultInjector, VivadoSim};
use dovado_hdl::ParseCache;
use std::sync::{Arc, Mutex};

/// One operation a session received.
#[derive(Clone)]
enum Op {
    Write(String, String),
    Eval(String),
}

type Log = Arc<Mutex<Vec<Vec<Op>>>>;

/// A backend that forwards to the simulator and records every session.
struct Recorder {
    inner: SimBackend,
    log: Log,
}

struct RecordingSession {
    inner: Box<dyn ToolSession + Send>,
    ops: Vec<Op>,
    log: Log,
}

impl ToolBackend for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open_session(&self) -> Box<dyn ToolSession + Send> {
        Box::new(RecordingSession {
            inner: self.inner.open_session(),
            ops: Vec::new(),
            log: Arc::clone(&self.log),
        })
    }

    fn injector(&self) -> Option<&FaultInjector> {
        None
    }
}

impl ToolSession for RecordingSession {
    fn write_file(&mut self, path: &str, content: String) {
        self.ops.push(Op::Write(path.to_string(), content.clone()));
        self.inner.write_file(path, content);
    }

    fn read_file(&self, path: &str) -> Option<&str> {
        self.inner.read_file(path)
    }

    fn eval(&mut self, script: &str) -> EdaResult<String> {
        self.ops.push(Op::Eval(script.to_string()));
        self.inner.eval(script)
    }

    fn elapsed_s(&self) -> f64 {
        self.inner.elapsed_s()
    }

    fn used_exact_checkpoint(&self) -> bool {
        self.inner.used_exact_checkpoint()
    }

    fn files(&self) -> Vec<(String, String)> {
        self.inner.files()
    }
}

impl Drop for RecordingSession {
    fn drop(&mut self) {
        if let Ok(mut log) = self.log.lock() {
            log.push(std::mem::take(&mut self.ops));
        }
    }
}

/// Everything observable about a replayed session.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Result<String, String>>,
    files: Vec<(String, String)>,
    journal: Vec<String>,
    sim_time_bits: u64,
}

fn replay(ops: &[Op], parses: &ParseCache) -> Observed {
    let mut sim = VivadoSim::new(EvalConfig::default().seed);
    sim.set_parse_cache(parses.clone());
    let mut results = Vec::new();
    for op in ops {
        match op {
            Op::Write(path, content) => sim.write_file(path.clone(), content.clone()),
            Op::Eval(script) => results.push(sim.eval(script).map_err(|e| e.to_string())),
        }
    }
    Observed {
        results,
        files: sim.files(),
        journal: sim.journal.clone(),
        sim_time_bits: sim.sim_time_s.to_bits(),
    }
}

/// Records the tool sessions of four evaluations spread over `space`.
fn record(
    sources: Vec<HdlSource>,
    top: &str,
    space: ParameterSpace,
    config: EvalConfig,
) -> Vec<Vec<Op>> {
    let log: Log = Arc::default();
    let backend = Recorder {
        inner: SimBackend::new(config.seed),
        log: Arc::clone(&log),
    };
    let points: Vec<_> = (0..4u64)
        .map(|i| {
            let indices: Vec<i64> = space
                .params()
                .iter()
                .map(|p| ((i * 5 + 1) % p.domain.cardinality()) as i64)
                .collect();
            space.decode(&indices).unwrap()
        })
        .collect();
    let tool = Dovado::with_backend(sources, top, space, config, Arc::new(backend)).unwrap();
    for point in &points {
        tool.evaluate_point(point).unwrap();
    }
    drop(tool);
    let sessions = log.lock().unwrap().clone();
    assert!(!sessions.is_empty());
    sessions
}

/// Replays every session cold and warm and requires identical results;
/// returns how many reads the warm replays answered from the cache.
fn warm_equals_cold(name: &str, sessions: &[Vec<Op>]) -> u64 {
    let warm = ParseCache::new();
    for ops in sessions {
        replay(ops, &warm);
    }
    let filled = warm.stats();
    for (i, ops) in sessions.iter().enumerate() {
        let cold = replay(ops, &ParseCache::new());
        let hot = replay(ops, &warm);
        assert_eq!(
            hot, cold,
            "{name}: session {i} differs when served from the cache"
        );
    }
    let after = warm.stats();
    assert_eq!(
        after.entries, filled.entries,
        "{name}: warm replays stored new texts"
    );
    after.hits - filled.hits
}

fn case_study_config(cs: &CaseStudy) -> EvalConfig {
    EvalConfig {
        part: cs.part.to_string(),
        ..EvalConfig::default()
    }
}

#[test]
fn warm_sessions_match_cold_sessions_on_every_case_study() {
    for cs in casestudies::all() {
        let sessions = record(
            cs.sources.clone(),
            &cs.top,
            cs.space.clone(),
            case_study_config(&cs),
        );
        let hits = warm_equals_cold(cs.name, &sessions);
        assert!(
            hits > 0,
            "{}: no session read its source from the cache",
            cs.name
        );
    }
}

#[test]
fn warm_sessions_match_cold_sessions_on_the_project_tree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/project_tree");
    let (sources, top) = dovado::flow::load_project_tree(&dir, None).unwrap();
    let space = ParameterSpace::new().with("DEPTH", dovado::cli::parse_domain("2:64:2").unwrap());
    let sessions = record(sources, &top, space, EvalConfig::default());
    // Every fixture file is shorter than the cache's minimum stored
    // length, so here the warm path is the parse path; it must agree all
    // the same.
    warm_equals_cold("project_tree", &sessions);
}

#[test]
fn a_broken_source_fails_identically_cold_and_warm() {
    // Long enough to be stored, were it clean.
    let text = format!("module m(input wire c);\n// {}\n", "x".repeat(2048));
    let ops = vec![
        Op::Write("src/bad.v".into(), text),
        Op::Eval("create_project p -part xc7k70tfbv676-1\nread_verilog src/bad.v".into()),
    ];
    let warm = ParseCache::new();
    let first = replay(&ops, &warm);
    assert!(first.results[0].is_err(), "{first:?}");
    assert_eq!(replay(&ops, &warm), first);
    assert_eq!(replay(&ops, &ParseCache::new()), first);
    assert_eq!(warm.stats().entries, 0, "a failing text is never stored");
}
