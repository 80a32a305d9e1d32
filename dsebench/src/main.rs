//! Whole-run benchmark of dovado-rs design-space exploration.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path dsebench/Cargo.toml -- \
//!     --workload rtl_tree --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Generates the workload's inputs from `--seed` inside `.bench_work/`
//! of the current directory, sets the program up, runs exploration jobs
//! for `--seconds`, checks every answer, prints each metric by name with
//! its unit, and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones from a
//! separately instrumented run. See `dsebench/README.md`.

mod explore;
mod probe;
mod replay;
mod serve;
mod treegen;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets one metric, replacing an earlier value of the same name.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    /// A metric pushed earlier (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, v, _)| *v)
    }
}

/// What a run reports: its checks, its operation counts and its metrics.
#[derive(Default)]
pub struct Outcome {
    /// Jobs started.
    pub attempted: u64,
    /// Jobs that errored or answered wrongly.
    pub failed: u64,
    /// Output-check failures, in order.
    pub errors: Vec<String>,
    /// Human-readable notes printed before the result.
    pub notes: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records a failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Records a note for the human-readable report.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// The run's scratch directory inside the checkout, removed on drop.
pub struct Work {
    root: PathBuf,
    next: AtomicU64,
}

impl Work {
    fn new(workload: &str) -> std::io::Result<Work> {
        let root = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Work {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty directory under the run's scratch root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}-{n}"));
        let _ = std::fs::create_dir_all(&dir);
        dir
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The timed part of a run is cut into this many equal segments of job
/// time; a burst of set-ups runs before the first, between each two and
/// after the last, while no job is in flight.
pub const SEGMENTS: usize = 24;
/// The first burst repeats the set-up at least [`BURST_MIN`] times and,
/// up to [`BURST_CAP`] repetitions, until [`BURST_S`] has passed; every
/// later burst repeats it as often as the first did.
const BURST_MIN: usize = 5;
const BURST_S: f64 = 0.01;
const BURST_CAP: usize = 500;

/// Set-up times, taken in bursts spread over the whole run.
///
/// The host's single-thread speed switches between modes every few
/// seconds, so one burst lands in one mode. `setup_s` therefore averages
/// each repetition index over every burst of the run and reports the
/// median of those means: each mean spans the run as the job metrics do,
/// and the median drops a repetition that is slow in every burst.
#[derive(Default)]
pub struct SetupTimer {
    reps: usize,
    bursts: Vec<Vec<f64>>,
}

impl SetupTimer {
    /// One burst of timed set-ups; `once` performs one complete set-up.
    /// Each set-up is torn down, untimed, before the next starts; the
    /// last one is returned.
    pub fn burst<T>(&mut self, mut once: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let begin = std::time::Instant::now();
        let mut samples = Vec::new();
        let mut built = None;
        loop {
            let enough = match self.reps {
                0 => {
                    samples.len() >= BURST_CAP
                        || (samples.len() >= BURST_MIN && begin.elapsed().as_secs_f64() >= BURST_S)
                }
                reps => samples.len() >= reps,
            };
            if enough {
                break;
            }
            drop(built.take());
            let t = std::time::Instant::now();
            built = Some(once()?);
            samples.push(t.elapsed().as_secs_f64());
        }
        self.reps = samples.len();
        self.bursts.push(samples);
        Ok(built.expect("a burst sets up at least once"))
    }

    /// `setup_s`: the median over repetition indices of the mean over
    /// bursts.
    pub fn seconds(&self) -> f64 {
        let means: Vec<f64> = (0..self.reps)
            .map(|r| self.bursts.iter().map(|b| b[r]).sum::<f64>() / self.bursts.len() as f64)
            .collect();
        probe::median(&means)
    }
}

/// Cores available to this process; sizes every pool, slot, worker
/// fleet and connection count.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds: want 0 < s <= 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: want 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.0.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failed == 0 && outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Worker mode: `fleet_tree` spawns this binary as its worker processes.
    if argv.first().map(String::as_str) == Some("worker") {
        return match dovado::worker::serve_stdio() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsebench: {e}");
            eprintln!(
                "usage: dsebench --workload rtl_tree|surrogate_store|serve_tenants|fleet_tree \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work = match Work::new(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("dsebench: scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut outcome = Outcome::default();
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "rtl_tree" => explore::run(
            explore::Kind::RtlTree,
            seed,
            seconds,
            trace,
            &work,
            &mut outcome,
        ),
        "fleet_tree" => explore::run(
            explore::Kind::FleetTree,
            seed,
            seconds,
            trace,
            &work,
            &mut outcome,
        ),
        "surrogate_store" => explore::run(
            explore::Kind::SurrogateStore,
            seed,
            seconds,
            trace,
            &work,
            &mut outcome,
        ),
        "serve_tenants" => serve::run(seed, seconds, trace, &work, &mut outcome),
        other => {
            eprintln!("dsebench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    }
    drop(work);
    println!(
        "dsebench {} seed={seed} seconds={seconds} trace={} cores={}",
        args.workload,
        trace as u8,
        cores()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &outcome.metrics.0 {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for e in &outcome.errors {
        println!("  CHECK FAILED: {e}");
    }
    let finite = outcome.metrics.0.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        outcome
            .errors
            .push("a metric is not a finite number".into());
        outcome.metrics.0.retain(|(_, v, _)| v.is_finite());
    }
    println!("{}", result_line(&outcome));
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
