//! `simulate`: host cost of the simulators — the fleet and single-node
//! serving event loops, the `accel` cost model, `engine`/`jpwr` energy
//! accounting and `sweep`/`jube` dispatch — with no tensor kernels.
//!
//! Fleet: the 10⁵-request bursty trace of `tests/fleet_props.rs`
//! (`pinned_bench`) at 600 req/s on 4 H100 replicas with the
//! f32/bf16/int8/int8 ladder, under each routing policy plus a
//! disaggregated, autoscaled configuration. Serve: the same trace shape
//! through one bf16 `ServeBenchmark` replica at a rate it sustains. Sweep:
//! the paper's evaluation grid, serial and sharded on a `SlurmSim`.

use crate::probe::{median, nproc, secs};
use crate::trace::Tracer;
use crate::{Report, Section};
use caraml::fleet::{fleet_trace, AutoscaleConfig, FleetBenchmark, RoutePolicy};
use caraml::llm::FIG2_BATCHES;
use caraml::resnet::{FIG3_BATCHES, FIG4_BATCHES, FIG4_DEVICES};
use caraml::serve::ArrivalKind;
use caraml::{FleetFom, LlmBenchmark, ResnetBenchmark, ServeBenchmark, ServeFom, ServePoint};
use caraml::{ShardPlan, SweepRunner};
use caraml_accel::{
    AccelError, DeviceKind, DeviceRegistry, Precision, SystemId, EMBEDDED_DEVICE_FILES,
};
use jube::SlurmSim;
use std::sync::Arc;
use std::time::Instant;

const REQUESTS: u32 = 100_000;
const FLEET_RATE: f64 = 600.0;
/// One bf16 H100 replica on this trace serves every request at 150 and
/// 175 req/s and first sheds at 190 (seeds 1–70 and 42); 150 keeps a
/// step of margin below that knee. The run checks that nothing is shed.
const SERVE_RATE: f64 = 150.0;
const BATCH_CAP: u32 = 16;
/// Serial and sharded sweeps per pass.
const SERIAL_REPS: usize = 3;
const SHARDED_REPS: usize = 2;
/// Serve simulations per pass.
const SERVE_REPS: usize = 3;
/// Seed whose least-kv-load figures are pinned.
const PINNED_SEED: u64 = 42;
/// Bits of the least-kv-load fleet's p99 TTFT (0.154822 s, the 0.155 s
/// of the fleet acceptance scenario in `crates/core/tests/fleet_props.rs`),
/// goodput and Wh/ktok at `PINNED_SEED`.
const PINNED_LKV: [u64; 3] = [
    0x3fc3_d137_7afd_74b9,
    0x40c5_401d_719f_58a3,
    0x3f94_0ceb_2845_8672,
];

/// One fleet configuration with the names of its spans.
struct Fleet {
    tag: &'static str,
    simulate: &'static str,
    run: &'static str,
    bench: FleetBenchmark,
}

macro_rules! fleet {
    ($tag:literal, $bench:expr) => {
        Fleet {
            tag: $tag,
            simulate: concat!("fleet.", $tag, ".simulate"),
            run: concat!("fleet.", $tag, ".run"),
            bench: $bench,
        }
    };
}

/// The fleet configurations, in report order.
fn fleets(seed: u64) -> Vec<Fleet> {
    let mut base = FleetBenchmark::new(SystemId::H100Jrdc);
    let serve = &mut base.config.serve;
    serve.seed = seed;
    serve.num_requests = REQUESTS;
    serve.gen_tokens = (8, 32);
    serve.arrival = ArrivalKind::Bursty {
        burst_factor: 8.0,
        mean_burst: 6.0,
    };
    serve.kv_mem_frac = 0.05;
    base.config.sessions = 8;
    base.config.replica_precisions = Some(vec![
        Precision::F32,
        Precision::Bf16,
        Precision::Int8,
        Precision::Int8,
    ]);
    vec![
        fleet!("rr", base.clone().with_policy(RoutePolicy::RoundRobin)),
        fleet!("lkv", base.clone().with_policy(RoutePolicy::LeastKvLoad)),
        fleet!("sa", base.clone().with_policy(RoutePolicy::SessionAffinity)),
        fleet!(
            "disagg",
            base.with_policy(RoutePolicy::LeastKvLoad)
                .disaggregated(true)
                .with_autoscale(AutoscaleConfig::default())
        ),
    ]
}

/// One cell of the evaluation grid: a Fig. 2 LLM point, or a Fig. 3 /
/// Fig. 4 ResNet point, on one registry device.
#[derive(Clone, Copy)]
struct Cell {
    llm: bool,
    system: SystemId,
    devices: u32,
    batch: u64,
}

/// Every non-IPU registry device × the Fig. 2, Fig. 3 and Fig. 4 grids.
fn grid() -> Vec<Cell> {
    let registry = DeviceRegistry::global();
    let mut cells = Vec::new();
    for entry in registry.entries() {
        if entry.node.device.kind == DeviceKind::Ipu {
            continue;
        }
        let system = registry
            .resolve(&entry.tag)
            .expect("registry resolves its own tags");
        let fig2 = LlmBenchmark::fig2(system).devices;
        let fig3 = ResnetBenchmark::fig3(system).devices;
        cells.extend(FIG2_BATCHES.iter().map(|&batch| Cell {
            llm: true,
            system,
            devices: fig2,
            batch,
        }));
        cells.extend(FIG3_BATCHES.iter().map(|&batch| Cell {
            llm: false,
            system,
            devices: fig3,
            batch,
        }));
        for &devices in &FIG4_DEVICES {
            cells.extend(FIG4_BATCHES.iter().map(|&batch| Cell {
                llm: false,
                system,
                devices,
                batch,
            }));
        }
    }
    cells
}

/// What one cell produced: throughput and energy bits, or one of the
/// outcomes the paper's figures leave blank — out of memory, or a
/// configuration the system cannot hold (more devices than its node, a
/// batch that does not split over its data-parallel ranks). Only
/// `Failed` is a failure.
#[derive(Debug, Clone, PartialEq)]
enum CellOutcome {
    Ran(u64, u64),
    Oom,
    Invalid,
    Failed(String),
}

fn run_cell(cell: Cell) -> CellOutcome {
    let result = if cell.llm {
        let mut bench = LlmBenchmark::fig2(cell.system);
        bench.devices = cell.devices;
        bench
            .run(cell.batch)
            .map(|r| (r.fom.tokens_per_s_per_device, r.fom.energy_wh_per_device))
    } else {
        let mut bench = ResnetBenchmark::fig3(cell.system);
        bench.devices = cell.devices;
        bench
            .run(cell.batch)
            .map(|r| (r.fom.images_per_s, r.fom.energy_wh_per_epoch))
    };
    match result {
        Ok((rate, wh)) => CellOutcome::Ran(rate.to_bits(), wh.to_bits()),
        Err(e) if e.is_oom() => CellOutcome::Oom,
        Err(AccelError::InvalidConfig(_)) => CellOutcome::Invalid,
        Err(e) => CellOutcome::Failed(e.to_string()),
    }
}

fn nodes_of(cell: &Cell) -> u32 {
    caraml_accel::NodeConfig::shared(cell.system).nodes_for(cell.devices)
}

/// Simulated outputs that must repeat bit for bit on every pass.
fn fleet_signature(f: &FleetFom) -> Vec<u64> {
    [
        f.ttft.p99,
        f.tpot.p99,
        f.goodput_tokens_per_s,
        f.tokens_per_s,
        f.energy_wh_per_ktoken,
    ]
    .iter()
    .map(|x| x.to_bits())
    .chain([f.served, f.shed, f.kv_handoffs])
    .collect()
}

fn serve_signature(f: &ServeFom) -> Vec<u64> {
    [f.ttft.p99, f.goodput_tokens_per_s, f.energy_wh_per_ktoken]
        .iter()
        .map(|x| x.to_bits())
        .chain([f.served, f.shed])
        .collect()
}

fn point(rate_per_s: f64) -> ServePoint {
    ServePoint {
        rate_per_s,
        batch_cap: BATCH_CAP,
    }
}

/// Timings and outputs of one pass over every simulator.
#[derive(Default)]
struct PassOut {
    traced: bool,
    serve_run_s: Vec<f64>,
    /// Host time of each fleet's `run`, in `fleets` order.
    fleet_run_s: Vec<f64>,
    sweep_serial_s: Vec<f64>,
    queue_s: Vec<f64>,
    serves: Vec<ServeFom>,
    fleets: Vec<FleetFom>,
}

/// Units per pass: serve, each fleet, the sweeps.
const UNITS_PER_PASS: usize = 6;
/// Fewest passes a run reports from, when `simulate` is the workload and
/// when it is not. A traced run traces every other pass, so both need two.
const MIN_PASSES: usize = 4;
const MIN_OTHER_PASSES: usize = 2;

/// The `simulate` section: the simulators' configurations, inputs and
/// the passes run so far.
pub struct Simulate {
    seed: u64,
    fleets: Vec<Fleet>,
    serve: ServeBenchmark,
    cells: Vec<Cell>,
    slurm: Arc<SlurmSim>,
    registry_ms: f64,
    /// The warm-up pass, whose outputs every later pass must repeat.
    reference: PassOut,
    passes: Vec<PassOut>,
    units: usize,
}

impl Simulate {
    /// Set-up: load and validate the device registry, build the fleet,
    /// serve and grid configurations, and start a `SlurmSim` partition of
    /// `nproc` nodes.
    pub fn new(seed: u64) -> Simulate {
        let t = Instant::now();
        DeviceRegistry::from_files(EMBEDDED_DEVICE_FILES).expect("embedded device files are valid");
        let registry_ms = secs(t) * 1e3;
        DeviceRegistry::global();
        let fleets = fleets(seed);
        Simulate {
            seed,
            serve: ServeBenchmark {
                config: fleets[0].bench.config.serve.clone(),
            },
            fleets,
            cells: grid(),
            slurm: SlurmSim::new(nproc() as u32),
            registry_ms,
            reference: PassOut::default(),
            passes: Vec::new(),
            units: 0,
        }
    }

    /// Unit `k` of a pass: the serve simulator, fleet `k - 1`, or the
    /// serial and sharded sweeps. `simulate` is called on its own, beside
    /// `run`, only when tracing, to split event loop from energy
    /// accounting.
    fn run_unit(
        &self,
        k: usize,
        step: u64,
        tr: &mut Tracer,
        out: &mut PassOut,
        report: &mut Report,
    ) {
        let traced = tr.is_on();
        match k {
            0 => {
                if traced {
                    tr.scope("fleet.trace", step, || {
                        fleet_trace(&self.fleets[0].bench.config, FLEET_RATE).len()
                    });
                    let sim = tr.scope("serve.simulate", step, || {
                        self.serve.simulate(point(SERVE_RATE))
                    });
                    tr.count("serve.decode_steps", sim.map_or(0, |r| r.decode_steps));
                }
                for _ in 0..SERVE_REPS {
                    let t = Instant::now();
                    let fom = tr.scope("serve.run", step, || self.serve.run(point(SERVE_RATE)));
                    out.serve_run_s.push(secs(t));
                    match fom {
                        Ok(f) => out.serves.push(f),
                        Err(e) => {
                            report.failed += 1;
                            report.problems.push(format!("serve: {e}"));
                        }
                    }
                }
            }
            1..=4 => {
                let f = &self.fleets[k - 1];
                if traced {
                    let sim = tr.scope(f.simulate, step, || f.bench.simulate(point(FLEET_RATE)));
                    if let Ok(sim) = sim {
                        let tag = f.tag;
                        tr.count(format!("fleet.{tag}.decode_steps"), sim.decode_steps);
                        tr.count(format!("fleet.{tag}.handoffs"), sim.handoffs);
                        tr.count(
                            format!("fleet.{tag}.scale_events"),
                            sim.scale_events.len() as u64,
                        );
                    }
                }
                let t = Instant::now();
                let fom = tr.scope(f.run, step, || f.bench.run(point(FLEET_RATE)));
                out.fleet_run_s.push(secs(t));
                match fom {
                    Ok(fom) => out.fleets.push(fom),
                    Err(e) => {
                        report.failed += 1;
                        report.problems.push(format!("fleet {}: {e}", f.tag));
                    }
                }
            }
            _ => self.sweeps(step, tr, out, report),
        }
    }

    /// The grid `SERIAL_REPS` times serially, then `SHARDED_REPS` times
    /// sharded; every result must equal the first serial one.
    fn sweeps(&self, step: u64, tr: &mut Tracer, out: &mut PassOut, report: &mut Report) {
        let mut first: Option<Vec<CellOutcome>> = None;
        for _ in 0..SERIAL_REPS {
            let t = Instant::now();
            let serial = tr.scope("sweep.serial", step, || {
                SweepRunner::serial().map(self.cells.clone(), run_cell)
            });
            out.sweep_serial_s.push(secs(t));
            report.attempted += serial.len() as u64;
            for cell in &serial {
                if let CellOutcome::Failed(e) = cell {
                    report.failed += 1;
                    report.problems.push(format!("grid cell: {e}"));
                }
            }
            let first = first.get_or_insert_with(|| serial.clone());
            report.check(serial == *first, || "serial sweeps differ".into());
        }
        let serial = first.expect("at least one serial sweep");
        for _ in 0..SHARDED_REPS {
            let sharded = tr.scope("sweep.sharded", step, || {
                SweepRunner::parallel().map_sharded_with(
                    &self.slurm,
                    ShardPlan::new(nproc()),
                    self.cells.clone(),
                    nodes_of,
                    run_cell,
                )
            });
            out.queue_s
                .push(sharded.shards.iter().map(|s| s.queue_s).sum());
            report.attempted += sharded.results.len() as u64;
            report.check(sharded.results == serial, || {
                "sharded sweep differs from the serial sweep".into()
            });
        }
    }

    /// Served + shed equals offered on every simulator, the single
    /// replica sheds nothing, and the simulated outputs equal the
    /// reference pass bit for bit.
    fn check(&self, out: &PassOut, report: &mut Report) {
        let offered = REQUESTS as u64;
        report.attempted += offered * (out.serves.len() + out.fleets.len()) as u64;
        let sig = |p: &PassOut| {
            let serves: Vec<Vec<u64>> = p.serves.iter().map(serve_signature).collect();
            let fleets: Vec<Vec<u64>> = p.fleets.iter().map(fleet_signature).collect();
            (serves, fleets)
        };
        report.check(sig(out) == sig(&self.reference), || {
            "simulated outputs changed between passes".into()
        });
        for s in &out.serves {
            report.check(
                s.served + s.shed == offered && s.requests == offered,
                || {
                    format!(
                        "serve: {} served + {} shed != {offered} offered",
                        s.served, s.shed
                    )
                },
            );
            report.check(s.shed == 0, || {
                format!("serve: {} shed at {SERVE_RATE} req/s", s.shed)
            });
        }
        for (fleet, f) in self.fleets.iter().zip(&out.fleets) {
            report.check(
                f.served + f.shed == offered && f.requests == offered,
                || {
                    format!(
                        "fleet {}: {} served + {} shed != {offered} offered",
                        fleet.tag, f.served, f.shed
                    )
                },
            );
        }
    }
}

impl Section for Simulate {
    fn warm_up(&mut self, report: &mut Report) {
        let mut off = Tracer::new(false);
        let mut reference = PassOut::default();
        for k in 0..UNITS_PER_PASS {
            self.run_unit(k, 0, &mut off, &mut reference, report);
        }
        report.check(
            reference.serves.len() == SERVE_REPS && reference.fleets.len() == self.fleets.len(),
            || "a simulator failed in the warm-up pass".into(),
        );
        self.reference = reference;
    }

    /// One sixth of a pass. A traced run traces every other pass; the
    /// difference between traced and untraced passes is the tracing
    /// overhead.
    fn unit(&mut self, tr: &mut Tracer, report: &mut Report) {
        let k = self.units % UNITS_PER_PASS;
        if k == 0 {
            let traced = tr.is_on() && self.passes.len().is_multiple_of(2);
            self.passes.push(PassOut {
                traced,
                ..PassOut::default()
            });
        }
        let step = self.passes.len() as u64;
        let mut out = self.passes.pop().expect("pass started");
        let mut off = Tracer::new(false);
        let t = if out.traced { tr } else { &mut off };
        self.run_unit(k, step, t, &mut out, report);
        self.passes.push(out);
        self.units += 1;
    }

    fn enough(&self, own: bool) -> bool {
        let min = if own { MIN_PASSES } else { MIN_OTHER_PASSES };
        self.units.is_multiple_of(UNITS_PER_PASS) && self.passes.len() >= min
    }

    fn finish(&mut self, tr: &Tracer, report: &mut Report) {
        for out in &self.passes {
            self.check(out, report);
        }
        let Some(lkv) = self.reference.fleets.get(1) else {
            return;
        };
        let lkv_bits = [
            lkv.ttft.p99,
            lkv.goodput_tokens_per_s,
            lkv.energy_wh_per_ktoken,
        ]
        .map(f64::to_bits);
        eprintln!(
            "simulate: least-kv-load p99 TTFT {:.6} s, goodput {:.3} tok/s, {:.6} Wh/ktok \
             (bits {lkv_bits:x?})",
            lkv.ttft.p99, lkv.goodput_tokens_per_s, lkv.energy_wh_per_ktoken
        );
        report.check(self.seed != PINNED_SEED || lkv_bits == PINNED_LKV, || {
            format!("least-kv-load figures differ from the seed-{PINNED_SEED} pin")
        });
        if let Some(s) = self.reference.serves.first() {
            eprintln!(
                "simulate: serve at {SERVE_RATE} req/s: {} served, {} shed, p99 TTFT {:.6} s",
                s.served, s.shed, s.ttft.p99
            );
        }
        let passes = |traced: bool| self.passes.iter().filter(move |o| o.traced == traced);
        // Host seconds of one run of every fleet: the sum over fleets of
        // each fleet's median run.
        let fleets_s = |traced: bool| -> f64 {
            (0..self.fleets.len())
                .map(|f| median(&passes(traced).map(|o| o.fleet_run_s[f]).collect::<Vec<_>>()))
                .sum()
        };
        let pooled = |traced: bool, f: fn(&PassOut) -> &[f64]| {
            passes(traced).flat_map(f).copied().collect::<Vec<_>>()
        };

        if !tr.is_on() {
            let n = REQUESTS as f64;
            report.metric(
                "serve_req_per_s",
                n / median(&pooled(false, |o| &o.serve_run_s)),
                "req/s",
            );
            let offered = n * self.fleets.len() as f64;
            report.metric("fleet_req_per_s", offered / fleets_s(false), "req/s");
            let cells = self.cells.len() as f64;
            report.metric(
                "sweep_cells_per_s",
                cells / median(&pooled(false, |o| &o.sweep_serial_s)),
                "cells/s",
            );
            report.metric("fleet_p99_ttft_s", lkv.ttft.p99, "s");
            report.metric("fleet_goodput_tok_per_s", lkv.goodput_tokens_per_s, "tok/s");
            report.metric("fleet_wh_per_ktok", lkv.energy_wh_per_ktoken, "Wh/ktok");
            return;
        }

        let ms = |name: &str| median(&tr.durations_ms(name));
        let per_step_ns = |name: &str, steps: &str| {
            let steps = tr.counts(steps);
            let ns: Vec<f64> = tr
                .durations_ms(name)
                .iter()
                .zip(steps)
                .map(|(ms, &n)| ms * 1e6 / n.max(1) as f64)
                .collect();
            median(&ns)
        };
        let serve_sim_ms = ms("serve.simulate");
        report.metric("serve.simulate_ms", serve_sim_ms, "ms");
        report.metric("serve.energy_ms", ms("serve.run") - serve_sim_ms, "ms");
        report.metric(
            "serve.host_ns_per_step",
            per_step_ns("serve.simulate", "serve.decode_steps"),
            "ns",
        );
        report.metric("fleet.trace_ms", ms("fleet.trace"), "ms");
        let last = |name: &str| tr.counts(name).last().copied().unwrap_or(0) as f64;
        let (mut energy_ms, mut sim_ns, mut steps) = (0.0, 0.0, 0.0);
        for (fleet, f) in self.fleets.iter().zip(&self.reference.fleets) {
            let tag = fleet.tag;
            let sim_ms = ms(fleet.simulate);
            let decode_steps = last(&format!("fleet.{tag}.decode_steps"));
            energy_ms += ms(fleet.run) - sim_ms;
            sim_ns += sim_ms * 1e6;
            steps += decode_steps;
            report.metric(format!("fleet.{tag}.simulate_ms"), sim_ms, "ms");
            report.metric(format!("fleet.{tag}.decode_steps"), decode_steps, "count");
            report.metric(format!("fleet.{tag}.shed"), f.shed as f64, "count");
            report.metric(format!("fleet.{tag}.p99_ttft_s"), f.ttft.p99, "s");
        }
        report.metric("fleet.energy_ms", energy_ms, "ms");
        report.metric("fleet.host_ns_per_step", sim_ns / steps, "ns");
        report.metric(
            "fleet.disagg.handoffs",
            last("fleet.disagg.handoffs"),
            "count",
        );
        report.metric(
            "fleet.disagg.scale_events",
            last("fleet.disagg.scale_events"),
            "count",
        );
        report.metric("sweep.serial_ms", ms("sweep.serial"), "ms");
        let sharded_ms = ms("sweep.sharded");
        report.metric("sweep.sharded_ms", sharded_ms, "ms");
        report.metric(
            "sweep.host_us_per_cell",
            sharded_ms * 1e3 / self.cells.len() as f64,
            "us",
        );
        report.metric(
            "jube.queue_ms",
            median(&pooled(true, |o| &o.queue_s)) * 1e3,
            "ms",
        );
        report.metric("accel.registry_load_ms", self.registry_ms, "ms");
        report.metric(
            "simulate.trace_overhead_pct",
            100.0 * (fleets_s(true) / fleets_s(false) - 1.0),
            "%",
        );
    }
}
