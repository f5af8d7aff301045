//! The repository benchmark.
//!
//! ```text
//! caraml-perfbench --workload <train|decode|simulate> --seed <n> \
//!     --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! Each workload is a closed loop: one step, token or simulation is issued
//! after the previous one finishes. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` records spans around every layer call and reports
//! the per-layer metrics instead. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; progress
//! and a readable table go to standard error. See `README.md` beside this
//! crate for every metric.

mod decode;
mod probe;
mod simulate;
mod trace;
mod train;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// What one workload run produced: operation counts, output-check
/// problems and the metrics in report order.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Record an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

/// One part of the benchmark, driven a unit of closed-loop work at a time.
///
/// Every run drives all three sections, interleaved unit by unit over the
/// whole run: the section the workload names gets `OWN_SHARE` of the
/// measured time, the other two split the rest by `OTHER_WEIGHT`, so that
/// every run reports every metric and a slow spell of the host hits all
/// sections alike.
pub trait Section {
    /// Untimed warm-up; its outputs are the reference later units repeat.
    fn warm_up(&mut self, report: &mut Report);
    /// One unit of work.
    fn unit(&mut self, tr: &mut Tracer, report: &mut Report);
    /// Whether the section may stop: it has its minimum sample, the full
    /// one when it is the workload's `own` section, and ends on a whole
    /// unit of its output checks.
    fn enough(&self, own: bool) -> bool;
    /// Output checks over everything run, then the metrics.
    fn finish(&mut self, tr: &Tracer, report: &mut Report);
}

/// Share of the measured time that goes to the workload's own section.
const OWN_SHARE: f64 = 0.5;

/// How the rest of the time is split between the other two sections, in
/// `WORKLOADS` order. `train` needs the least: its steps are short and
/// steady, so a small share still samples hundreds of them.
const OTHER_WEIGHT: [f64; 3] = [2.0, 3.0, 3.0];

/// Worker threads of the `rayon` pool every section runs in. The shim
/// spawns scoped threads on every parallel call, and on a shared virtual
/// machine each wake-up of a parked vCPU can wait for the host: with two
/// threads a run reads up to three times slower in a busy spell, while
/// one thread keeps its vCPU busy and steady. The traced run measures the
/// `nproc`-thread GPT step and the dispatch cost beside it.
pub const THREADS: usize = 1;

/// A run sets its section up at least `SETUP_REPS` times and for at
/// least `SETUP_MIN_S` seconds; `setup_s` is the median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

const WORKLOADS: [&str; 3] = ["train", "decode", "simulate"];

/// Set up section `i` of `WORKLOADS`.
fn build(i: usize, seed: u64) -> Box<dyn Section> {
    match i {
        0 => Box::new(train::Train::new(seed)),
        1 => Box::new(decode::Decode::new(seed)),
        _ => Box::new(simulate::Simulate::new(seed)),
    }
}

fn main() -> ExitCode {
    if !probe::steady_allocator() {
        eprintln!("warning: could not fix the allocator's thresholds; host times may vary more");
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(focus) = WORKLOADS.iter().position(|w| *w == args.workload) else {
        eprintln!(
            "error: unknown workload {} (train, decode, simulate)",
            args.workload
        );
        return ExitCode::from(2);
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("rayon pool")
        .install(|| run(&args, focus))
}

/// Set up, warm up and measure the sections; `focus` indexes `WORKLOADS`.
fn run(args: &Args, focus: usize) -> ExitCode {
    // Set-up of the workload's own section only: BPE training and model
    // init (`train`), weight build and quantization of every tier
    // (`decode`), or the device registry and the simulators' inputs
    // (`simulate`). The first set-up is kept and warmed up, and peak
    // memory is sampled then, before any other section exists. Further
    // set-ups, each dropped at once, give `setup_s` its median.
    let t = Instant::now();
    let mut own = build(focus, args.seed);
    let mut setup = vec![probe::secs(t)];
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    own.warm_up(&mut report);
    let peak_rss_mib = probe::peak_rss_mib();
    while setup.len() < SETUP_REPS || setup.iter().sum::<f64>() < SETUP_MIN_S {
        let t = Instant::now();
        let again = build(focus, args.seed);
        setup.push(probe::secs(t));
        drop(again);
    }

    // The other two sections: built once and warmed up, untimed.
    let mut sections: Vec<Box<dyn Section>> = Vec::with_capacity(WORKLOADS.len());
    for i in (0..WORKLOADS.len()).filter(|&i| i != focus) {
        let mut section = build(i, args.seed);
        section.warm_up(&mut report);
        sections.push(section);
    }
    sections.insert(focus, own);
    // Each unit goes to the section furthest behind its share of the time
    // spent so far. Once `--seconds` have passed, only sections short of
    // their minimum sample run on.
    let others: f64 = (0..WORKLOADS.len())
        .filter(|&i| i != focus)
        .map(|i| OTHER_WEIGHT[i])
        .sum();
    let share = |i: usize| {
        if i == focus {
            OWN_SHARE
        } else {
            (1.0 - OWN_SHARE) * OTHER_WEIGHT[i] / others
        }
    };
    let mut busy = [0.0f64; 3];
    let start = Instant::now();
    loop {
        let over = probe::secs(start) >= args.seconds;
        let next = (0..sections.len())
            .filter(|&i| !over || !sections[i].enough(i == focus))
            .min_by(|&a, &b| (busy[a] / share(a)).total_cmp(&(busy[b] / share(b))));
        let Some(i) = next else { break };
        let t = Instant::now();
        sections[i].unit(&mut tracer, &mut report);
        busy[i] += probe::secs(t);
    }
    eprintln!(
        "measured {:.1} s: train {:.1} s, decode {:.1} s, simulate {:.1} s",
        probe::secs(start),
        busy[0],
        busy[1],
        busy[2]
    );
    for section in &mut sections {
        section.finish(&tracer, &mut report);
    }
    if tracer.is_on() {
        if let Err(e) = tracer.check_nesting() {
            report.problems.push(e);
        }
    } else {
        report.metric("setup_s", probe::median(&setup), "s");
        report.metric("peak_rss_mib", peak_rss_mib, "MiB");
    }
    if let Some(path) = &args.trace_out {
        if tracer.is_on() {
            if let Err(e) = std::fs::write(path, tracer.to_chrome_trace()) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<34} {value:>14.6} {unit}");
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
