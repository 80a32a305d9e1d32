//! Instruments for the traced run, all outside the program: a
//! [`ToolBackend`] decorator timing every tool session, an
//! [`ExploreMonitor`] stamping generation boundaries, and the summary
//! statistics the per-layer report is built from.

use dovado::dse::ExploreMonitor;
use dovado::{ToolBackend, ToolSession};
use dovado_eda::error::EdaResult;
use dovado_eda::fault::FaultInjector;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished tool session as the decorator saw it. Times are seconds
/// since the probe's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SessionRecord {
    /// `open_session` called.
    pub start: f64,
    /// Session dropped (after the inner session's own drop).
    pub end: f64,
    /// Time inside `ToolSession::eval`.
    pub eval_s: f64,
    /// Bytes passed through `write_file`.
    pub bytes: u64,
    /// Whether the tool answered a stage from an exact checkpoint.
    pub cached: bool,
}

/// Shared sink of session records and generation stamps.
pub struct Probe {
    epoch: Instant,
    sessions: Mutex<Vec<SessionRecord>>,
    generations: Mutex<Vec<f64>>,
}

impl Probe {
    /// A probe whose clock starts now.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            sessions: Mutex::new(Vec::new()),
            generations: Mutex::new(Vec::new()),
        })
    }

    /// Seconds since the probe's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Every session recorded so far, in completion order.
    pub fn sessions(&self) -> Vec<SessionRecord> {
        self.sessions.lock().expect("probe poisoned").clone()
    }

    /// Every generation boundary stamped so far.
    pub fn generations(&self) -> Vec<f64> {
        self.generations.lock().expect("probe poisoned").clone()
    }
}

/// Decorator around the backend a workload uses. `name()` and
/// `injector()` delegate, so store keys and fault streams are those of
/// the inner backend.
pub struct TracedBackend {
    inner: Arc<dyn ToolBackend>,
    probe: Arc<Probe>,
}

impl TracedBackend {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Arc<dyn ToolBackend>, probe: Arc<Probe>) -> TracedBackend {
        TracedBackend { inner, probe }
    }
}

impl ToolBackend for TracedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open_session(&self) -> Box<dyn ToolSession + Send> {
        let start = self.probe.now();
        let inner = self.inner.open_session();
        Box::new(TracedSession {
            inner: Some(inner),
            probe: Arc::clone(&self.probe),
            start,
            eval_s: 0.0,
            bytes: 0,
        })
    }

    fn injector(&self) -> Option<&FaultInjector> {
        self.inner.injector()
    }
}

struct TracedSession {
    inner: Option<Box<dyn ToolSession + Send>>,
    probe: Arc<Probe>,
    start: f64,
    eval_s: f64,
    bytes: u64,
}

impl TracedSession {
    fn inner(&self) -> &(dyn ToolSession + Send) {
        self.inner.as_deref().expect("session used after drop")
    }
}

impl ToolSession for TracedSession {
    fn write_file(&mut self, path: &str, content: String) {
        self.bytes += content.len() as u64;
        self.inner
            .as_mut()
            .expect("session used after drop")
            .write_file(path, content);
    }

    fn read_file(&self, path: &str) -> Option<&str> {
        self.inner().read_file(path)
    }

    fn eval(&mut self, script: &str) -> EdaResult<String> {
        let t = Instant::now();
        let out = self
            .inner
            .as_mut()
            .expect("session used after drop")
            .eval(script);
        self.eval_s += t.elapsed().as_secs_f64();
        out
    }

    fn elapsed_s(&self) -> f64 {
        self.inner().elapsed_s()
    }

    fn used_exact_checkpoint(&self) -> bool {
        self.inner().used_exact_checkpoint()
    }

    fn files(&self) -> Vec<(String, String)> {
        self.inner().files()
    }
}

impl Drop for TracedSession {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let cached = inner.used_exact_checkpoint();
        // Time the inner session's teardown too (a remote session hands
        // its worker back to the fleet here).
        drop(inner);
        let record = SessionRecord {
            start: self.start,
            end: self.probe.now(),
            eval_s: self.eval_s,
            bytes: self.bytes,
            cached,
        };
        if let Ok(mut sessions) = self.probe.sessions.lock() {
            sessions.push(record);
        }
    }
}

/// Stamps every generation boundary of a monitored exploration.
pub struct GenMonitor(pub Arc<Probe>);

impl ExploreMonitor for GenMonitor {
    fn on_generation(&self, _generation: u64, _evaluations: u64) -> bool {
        let t = self.0.now();
        self.0.generations.lock().expect("probe poisoned").push(t);
        true
    }
}

/// Length of the union of `[start, end)` intervals.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let u = union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]);
        assert!((u - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
