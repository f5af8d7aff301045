//! The ResNet50 training benchmark (paper §III-A2, results §IV-B).
//!
//! ResNet50 is trained from scratch; throughput is `global_batch_size /
//! elapsed_time_per_iteration` in images/s, energy is reported per full
//! epoch over the 1 281 167 ImageNet training images. Data parallelism
//! (Horovod in the paper) scales the benchmark to multiple devices and —
//! for systems with an InfiniBand interconnect in Table I — to multiple
//! nodes, giving the Fig. 4 heatmaps with their OOM cells.

use crate::engine::{self, Executed, MeterSpec, PhasePlan, PhaseSpec, RunContext};
use crate::fom::{CvFom, HeatmapCell};
use crate::sweep::{grid, SweepRunner};
use caraml_accel::affinity::{BindingPolicy, NumaTopology};
use caraml_accel::ipu::{IpuResnetModel, GRAPH_COMPILE_S, GRAPH_COMPILE_W};
use caraml_accel::spec::Workload;
use caraml_accel::{AccelError, NodeConfig, PhaseKind, SystemId};
use caraml_data::IMAGENET_TRAIN_IMAGES;
use caraml_models::resnet::cost::ResnetCost;
use caraml_models::ResnetConfig;
use caraml_parallel::comm::CollectiveModel;

/// Relative utilization while stalled on input staging.
const STALL_UTILIZATION: f64 = 0.15;
/// Relative utilization during the gradient all-reduce.
const COMM_UTILIZATION: f64 = 0.35;
/// Dual-GCD throughput penalty (see `llm.rs`).
const MI250_DUAL_GCD_PENALTY: f64 = 0.95;
/// Per-GCD sustained-power factor when both GCDs of an OAM package are
/// active: the shared board infrastructure (VRs, HBM PHYs) is amortized,
/// so each GCD draws less than a lone GCD at the same utilization. This
/// is what makes the paper's MI250:GPU run use "slightly lower amounts of
/// energy ... and a slightly higher energy efficiency" than MI250:GCD.
const MI250_DUAL_GCD_POWER_FACTOR: f64 = 0.84;

/// Configuration of one ResNet50 benchmark execution.
///
/// ```
/// use caraml::resnet::ResnetBenchmark;
/// use caraml_accel::SystemId;
///
/// let run = ResnetBenchmark::fig3(SystemId::Gh200Jrdc).run(256).unwrap();
/// assert!(run.fom.images_per_s > 1000.0);
/// // A100-40GB cannot hold a 2048-image batch: the Fig. 4 OOM cell.
/// let err = ResnetBenchmark::fig3(SystemId::A100).run(2048).unwrap_err();
/// assert!(err.is_oom());
/// ```
#[derive(Debug, Clone)]
pub struct ResnetBenchmark {
    pub system: SystemId,
    pub model: ResnetConfig,
    /// Data-parallel devices (1 for the Fig. 3 single-device runs).
    pub devices: u32,
    /// Images per epoch (ImageNet's 1 281 167 by default).
    pub epoch_images: u64,
    /// jpwr sampling interval on the virtual timeline, seconds.
    pub sample_interval_s: f64,
    /// CPU binding policy (§V-C).
    pub binding: BindingPolicy,
}

impl ResnetBenchmark {
    /// The Fig. 3 single-device setup.
    pub fn fig3(system: SystemId) -> Self {
        ResnetBenchmark {
            system,
            model: ResnetConfig::resnet50(),
            devices: 1,
            epoch_images: IMAGENET_TRAIN_IMAGES,
            sample_interval_s: 1.0,
            binding: BindingPolicy::GpuCentric,
        }
    }

    /// The Fig. 3 "AMD MI250:GPU" variant: one full MI250 package
    /// (2 GCDs, data parallelism of 2).
    pub fn fig3_mi250_gpu() -> Self {
        let mut b = Self::fig3(SystemId::Mi250);
        b.devices = 2;
        b
    }

    pub fn label(&self) -> String {
        let node = NodeConfig::shared(self.system);
        if self.system == SystemId::Mi250 {
            if self.devices == 1 {
                "AMD MI250:GCD".to_string()
            } else {
                "AMD MI250:GPU".to_string()
            }
        } else {
            node.platform.clone()
        }
    }

    /// Per-iteration time decomposition for a global batch, without
    /// driving the power simulation (used by the heatmaps).
    fn iteration_time(&self, global_batch: u64) -> Result<IterTime, AccelError> {
        if self.system == SystemId::Gc200 {
            return Err(AccelError::InvalidConfig(
                "use run_ipu / heatmap_ipu for Graphcore".into(),
            ));
        }
        let node_cfg = NodeConfig::shared(self.system);
        if self.devices == 0 || self.devices > node_cfg.max_devices() {
            return Err(AccelError::InvalidConfig(format!(
                "{} devices outside 1..={}",
                self.devices,
                node_cfg.max_devices()
            )));
        }
        if !global_batch.is_multiple_of(u64::from(self.devices)) {
            return Err(AccelError::InvalidConfig(format!(
                "global batch {global_batch} not divisible by {} devices",
                self.devices
            )));
        }
        let per_device = global_batch / u64::from(self.devices);
        let cost = ResnetCost::new(self.model.clone());

        // OOM check against the device memory (Fig. 4's OOM cells).
        let spec = &node_cfg.device;
        let needed = cost.memory_bytes_per_device(per_device);
        if needed > spec.mem_bytes {
            return Err(AccelError::OutOfMemory {
                device: spec.name.clone(),
                requested: needed,
                available: spec.mem_bytes,
                capacity: spec.mem_bytes,
            });
        }

        let roofline = caraml_accel::RooflineModel::for_device(spec, Workload::Cv);
        let calib = spec.cv;
        let profile = cost.iteration_profile(per_device);
        let est = roofline.estimate(&profile, per_device as f64);
        // Mis-bound tasks also slow the host-side launch path.
        let affinity = NumaTopology::for_system(self.system).efficiency(self.binding);
        let mut t_compute = est.compute_s.max(est.memory_s) + calib.overhead_s / affinity;
        // Dual-GCD penalty: the ResNet benchmark allocates GCDs
        // package-first, so any multi-device MI250 run drives both halves
        // of at least one OAM package.
        if self.system == SystemId::Mi250 && self.devices >= 2 {
            t_compute /= MI250_DUAL_GCD_PENALTY;
        }

        let t_staging = per_device as f64 / (node_cfg.staging_images_per_s * affinity);
        let t_busy = t_compute.max(t_staging);

        // All-reduce over the slowest link the collective crosses.
        let topo = caraml_accel::interconnect::Topology {
            intra: node_cfg.accel_accel,
            inter: node_cfg.internode,
            node_width: node_cfg.devices_per_node,
        };
        let t_comm = match topo.bottleneck_for(self.devices) {
            Some(link) => {
                CollectiveModel::new(link).allreduce_s(cost.gradient_bytes(), self.devices)
                    / affinity
            }
            None => 0.0,
        };
        Ok(IterTime {
            t_compute,
            t_stall: t_busy - t_compute,
            t_comm,
            t_iter: t_busy + t_comm,
            mfu_rel: (est.mfu / calib.mfu_max).clamp(0.0, 1.0),
        })
    }

    /// Aggregate throughput in images/s for a global batch (heatmap path;
    /// no energy measurement).
    pub fn throughput(&self, global_batch: u64) -> Result<f64, AccelError> {
        let it = self.iteration_time(global_batch)?;
        Ok(global_batch as f64 / it.t_iter)
    }

    /// Full measurement (Fig. 3): trains one epoch and reports throughput
    /// plus per-device epoch energy via the jpwr virtual sampling loop.
    pub fn run(&self, global_batch: u64) -> Result<ResnetRun, AccelError> {
        engine::execute(&ResnetWorkload {
            bench: self,
            global_batch,
        })
        .into_result()
    }

    /// Table III: a single GC200 IPU training one epoch, graph
    /// compilation excluded from timings (as in the paper).
    pub fn run_ipu(global_batch: u64, sample_interval_s: f64) -> Result<ResnetRun, AccelError> {
        engine::execute(&IpuResnetWorkload {
            global_batch,
            sample_interval_s,
        })
        .into_result()
    }

    /// One Fig. 4 heatmap cell: aggregate throughput or OOM.
    pub fn heatmap_cell(system: SystemId, devices: u32, global_batch: u64) -> HeatmapCell {
        if system == SystemId::Gc200 {
            let model = IpuResnetModel::default();
            if devices > 4 || !devices.is_power_of_two() {
                return HeatmapCell::Invalid;
            }
            return HeatmapCell::Throughput(model.scaled_images_per_s(devices, global_batch));
        }
        let bench = ResnetBenchmark {
            system,
            model: ResnetConfig::resnet50(),
            devices,
            epoch_images: IMAGENET_TRAIN_IMAGES,
            sample_interval_s: 1.0,
            binding: BindingPolicy::GpuCentric,
        };
        match bench.throughput(global_batch) {
            Ok(t) => HeatmapCell::Throughput(t),
            Err(e) if e.is_oom() => HeatmapCell::Oom,
            Err(_) => HeatmapCell::Invalid,
        }
    }

    /// A full Fig. 4 heatmap: rows = device counts, columns = global
    /// batch sizes. Cells are independent, so the grid is evaluated by
    /// the parallel [`SweepRunner`] and reshaped row-major.
    pub fn heatmap(
        system: SystemId,
        device_counts: &[u32],
        batches: &[u64],
    ) -> Vec<Vec<HeatmapCell>> {
        if batches.is_empty() {
            return device_counts.iter().map(|_| Vec::new()).collect();
        }
        let cells = SweepRunner::parallel().map(grid(system, device_counts, batches), |p| {
            Self::heatmap_cell(p.system, p.devices, p.batch)
        });
        cells
            .chunks(batches.len())
            .map(<[HeatmapCell]>::to_vec)
            .collect()
    }
}

/// One Fig. 3 / Fig. 4 grid point of [`ResnetBenchmark`] as an engine
/// workload.
pub struct ResnetWorkload<'a> {
    pub bench: &'a ResnetBenchmark,
    pub global_batch: u64,
}

/// Cost-model state carried from planning to FOM extraction.
pub struct ResnetPlanState {
    t_iter: f64,
    total_s: f64,
}

impl engine::Workload for ResnetWorkload<'_> {
    type Plan = ResnetPlanState;
    type Output = ResnetRun;

    fn system(&self) -> SystemId {
        self.bench.system
    }

    fn plan(&self, ctx: &RunContext) -> Result<(ResnetPlanState, PhasePlan), AccelError> {
        let bench = self.bench;
        let global_batch = self.global_batch;
        let it = bench.iteration_time(global_batch)?;
        let active = bench.devices.min(ctx.config().devices_per_node) as usize;

        let iters = (bench.epoch_images as f64 / global_batch as f64)
            .ceil()
            .max(1.0);
        let spec = ctx.device(0).spec();
        let mut sustained = spec.cv.sustained_w;
        if bench.system == SystemId::Mi250 && bench.devices >= 2 {
            sustained *= MI250_DUAL_GCD_POWER_FACTOR;
        }
        let total_s = iters * it.t_iter;

        let phase_plan = PhasePlan {
            allocations: vec![],
            phases: vec![
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "training compute",
                    active,
                    duration_s: iters * it.t_compute,
                    utilization: it.mfu_rel,
                    sustained_w: sustained,
                },
                PhaseSpec {
                    kind: PhaseKind::Staging,
                    label: "input staging stall",
                    active,
                    duration_s: iters * it.t_stall,
                    utilization: STALL_UTILIZATION,
                    sustained_w: sustained,
                },
                PhaseSpec {
                    kind: PhaseKind::Communication,
                    label: "gradient all-reduce",
                    active,
                    duration_s: iters * it.t_comm,
                    utilization: COMM_UTILIZATION,
                    sustained_w: sustained,
                },
            ],
            meter: MeterSpec {
                devices: active,
                prefix: "dev",
                method: "pynvml",
                interval_s: (bench.sample_interval_s).min(total_s / 16.0).max(1e-3),
                window: (0.0, total_s),
            },
            // `ResnetRun` carries no timeline; skip the trace work.
            timeline_devices: 0,
        };
        Ok((
            ResnetPlanState {
                t_iter: it.t_iter,
                total_s,
            },
            phase_plan,
        ))
    }

    fn finish(&self, plan: ResnetPlanState, exec: Executed, _ctx: &RunContext) -> ResnetRun {
        let bench = self.bench;
        let m = exec.measurement;
        // Fig. 3 reports "consumed energy for the whole epoch" of the
        // benchmarked unit: for the MI250:GPU run that unit is one OAM
        // package (2 GCDs), so device energies are summed, not averaged.
        let energy_wh_per_epoch = m.df.energy_all_wh().iter().sum::<f64>();
        let images_per_s = self.global_batch as f64 / plan.t_iter;

        ResnetRun {
            fom: CvFom {
                system: bench.label(),
                global_batch: self.global_batch,
                devices: bench.devices,
                images_per_s,
                energy_wh_per_epoch,
                images_per_wh: bench.epoch_images as f64 / energy_wh_per_epoch,
                // Mean power of the benchmarked unit (all active devices).
                mean_power_w: energy_wh_per_epoch * 3600.0 / plan.total_s,
            },
            epoch_s: plan.total_s,
            t_iter_s: plan.t_iter,
            measurement: m,
        }
    }
}

/// The Table III IPU protocol as an engine workload: graph compilation
/// runs first but is excluded from the measurement window, exactly like
/// the paper's methodology.
pub struct IpuResnetWorkload {
    pub global_batch: u64,
    pub sample_interval_s: f64,
}

/// Plan state of the IPU ResNet path.
pub struct IpuResnetPlanState {
    t0: f64,
    t1: f64,
    images_per_s: f64,
    iter_s: f64,
}

impl engine::Workload for IpuResnetWorkload {
    type Plan = IpuResnetPlanState;
    type Output = ResnetRun;

    fn system(&self) -> SystemId {
        SystemId::Gc200
    }

    fn plan(&self, ctx: &RunContext) -> Result<(IpuResnetPlanState, PhasePlan), AccelError> {
        let global_batch = self.global_batch;
        if global_batch == 0 {
            return Err(AccelError::InvalidConfig("batch must be positive".into()));
        }
        let model = IpuResnetModel::default();
        let spec = ctx.device(0).spec();

        let compile_u = invert_power(GRAPH_COMPILE_W, spec);
        let t0 = GRAPH_COMPILE_S;

        let iters = (IMAGENET_TRAIN_IMAGES as f64 / global_batch as f64).ceil();
        let t_compute = IMAGENET_TRAIN_IMAGES as f64 * model.per_image_s;
        let t_sync = iters * model.sync_s;
        let exec_u = invert_power(model.compute_w, spec);
        let sync_u = invert_power(model.sync_w, spec);
        let t1 = t0 + t_compute + t_sync;

        let phase_plan = PhasePlan {
            allocations: vec![],
            phases: vec![
                PhaseSpec {
                    kind: PhaseKind::Setup,
                    label: "graph compilation",
                    active: 1,
                    duration_s: GRAPH_COMPILE_S,
                    utilization: compile_u,
                    sustained_w: spec.cv.sustained_w,
                },
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "epoch compute",
                    active: 1,
                    duration_s: t_compute,
                    utilization: exec_u,
                    sustained_w: spec.cv.sustained_w.max(model.compute_w),
                },
                PhaseSpec {
                    kind: PhaseKind::Communication,
                    label: "host sync",
                    active: 1,
                    duration_s: t_sync,
                    utilization: sync_u,
                    sustained_w: spec.cv.sustained_w.max(model.sync_w),
                },
            ],
            meter: MeterSpec {
                devices: 1,
                prefix: "ipu",
                method: "gcipuinfo",
                interval_s: self.sample_interval_s,
                window: (t0, t1),
            },
            timeline_devices: 0,
        };
        Ok((
            IpuResnetPlanState {
                t0,
                t1,
                images_per_s: model.images_per_s(global_batch),
                iter_s: model.iter_s(global_batch),
            },
            phase_plan,
        ))
    }

    fn finish(&self, plan: IpuResnetPlanState, exec: Executed, _ctx: &RunContext) -> ResnetRun {
        let m = exec.measurement;
        let energy_wh_per_epoch = m.df.energy_wh(0);
        ResnetRun {
            fom: CvFom {
                system: "Graphcore GC200".into(),
                global_batch: self.global_batch,
                devices: 1,
                images_per_s: plan.images_per_s,
                energy_wh_per_epoch,
                images_per_wh: IMAGENET_TRAIN_IMAGES as f64 / energy_wh_per_epoch,
                mean_power_w: energy_wh_per_epoch * 3600.0 / (plan.t1 - plan.t0),
            },
            epoch_s: plan.t1 - plan.t0,
            t_iter_s: plan.iter_s,
            measurement: m,
        }
    }
}

/// Invert the power curve (see `llm::power_to_utilization`; CV variant).
fn invert_power(target_w: f64, spec: &caraml_accel::DeviceSpec) -> f64 {
    let sustained = spec.cv.sustained_w.max(target_w);
    if sustained <= spec.idle_w {
        return 1.0;
    }
    (((target_w - spec.idle_w) / (sustained - spec.idle_w)).clamp(0.0, 1.0))
        .powf(1.0 / spec.power_alpha)
}

#[derive(Debug, Clone, Copy)]
struct IterTime {
    t_compute: f64,
    t_stall: f64,
    t_comm: f64,
    t_iter: f64,
    mfu_rel: f64,
}

/// A completed ResNet measurement point.
#[derive(Debug, Clone)]
pub struct ResnetRun {
    pub fom: CvFom,
    pub epoch_s: f64,
    pub t_iter_s: f64,
    pub measurement: jpwr::Measurement,
}

/// The Fig. 3 batch sweep.
pub const FIG3_BATCHES: [u64; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// The Table III batch sweep.
pub const TABLE3_BATCHES: [u64; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Fig. 4 heatmap axes: device counts (up to 2 nodes where available)
/// and global batch sizes.
pub const FIG4_DEVICES: [u32; 4] = [1, 2, 4, 8];
pub const FIG4_BATCHES: [u64; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// One system's Fig. 4 device-count axis: powers of two up to two nodes,
/// or one node where no interconnect exists (`max_nodes == 1`).
pub fn fig4_device_counts(system: SystemId) -> Vec<u32> {
    let node = NodeConfig::shared(system);
    let max = (node.devices_per_node * node.max_nodes.min(2)).max(1);
    std::iter::successors(Some(1u32), |d| d.checked_mul(2))
        .take_while(|&d| d <= max)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(system: SystemId) -> ResnetBenchmark {
        ResnetBenchmark::fig3(system)
    }

    #[test]
    fn newer_generations_are_faster() {
        let a100 = bench(SystemId::A100).throughput(512).unwrap();
        let h100 = bench(SystemId::H100Jrdc).throughput(512).unwrap();
        let gh = bench(SystemId::Gh200Jrdc).throughput(512).unwrap();
        assert!(a100 < h100, "A100 {a100:.0} < H100 {h100:.0}");
        assert!(h100 < gh, "H100 {h100:.0} < GH200 {gh:.0}");
    }

    #[test]
    fn westai_sxm_beats_pcie_variant() {
        let sxm = bench(SystemId::WaiH100).throughput(512).unwrap();
        let pcie = bench(SystemId::H100Jrdc).throughput(512).unwrap();
        assert!(sxm > pcie);
    }

    #[test]
    fn gh200_jrdc_beats_jedi_especially_at_large_batch() {
        let small_ratio = bench(SystemId::Gh200Jrdc).throughput(32).unwrap()
            / bench(SystemId::Jedi).throughput(32).unwrap();
        let large_ratio = bench(SystemId::Gh200Jrdc).throughput(2048).unwrap()
            / bench(SystemId::Jedi).throughput(2048).unwrap();
        assert!(
            large_ratio >= small_ratio,
            "{small_ratio:.3} -> {large_ratio:.3}"
        );
        assert!(large_ratio > 1.05, "JRDC must beat JEDI at large batch");
    }

    #[test]
    fn a100_ooms_at_batch_2048_single_device() {
        // The Fig. 4a OOM cell: 40 GB cannot hold a 2048-image batch.
        let err = bench(SystemId::A100).throughput(2048).unwrap_err();
        assert!(err.is_oom());
        assert!(bench(SystemId::A100).throughput(1024).is_ok());
        // 80 GB H100 survives 2048.
        assert!(bench(SystemId::H100Jrdc).throughput(2048).is_ok());
    }

    #[test]
    fn mi250_gpu_mode_doubles_gcd_throughput_roughly() {
        let gcd = bench(SystemId::Mi250).run(512).unwrap().fom;
        let gpu = ResnetBenchmark::fig3_mi250_gpu().run(512).unwrap().fom;
        assert_eq!(gcd.system, "AMD MI250:GCD");
        assert_eq!(gpu.system, "AMD MI250:GPU");
        let ratio = gpu.images_per_s / gcd.images_per_s;
        assert!(ratio > 1.6 && ratio < 2.1, "2-GCD speedup {ratio:.2}");
        // "slightly lower amounts of energy needed to process the whole
        // dataset, and a slightly higher energy efficiency".
        assert!(gpu.energy_wh_per_epoch < gcd.energy_wh_per_epoch);
        assert!(gpu.images_per_wh > gcd.images_per_wh);
    }

    #[test]
    fn mi250_best_efficiency_at_large_batch() {
        // "The AMD MI250 gives the best efficiency in terms of images per
        // unit of energy for higher batch sizes".
        let mi = bench(SystemId::Mi250).run(2048).unwrap().fom;
        for sys in [SystemId::H100Jrdc, SystemId::WaiH100] {
            let other = bench(sys).run(2048).unwrap().fom;
            assert!(
                mi.images_per_wh > other.images_per_wh,
                "MI250 {:.0} img/Wh must beat {} ({:.0})",
                mi.images_per_wh,
                other.system,
                other.images_per_wh
            );
        }
        // The A100 OOMs at 2048 on one device (Fig. 4a); compare it at
        // its largest feasible batch.
        {
            let sys = SystemId::A100;
            let other = bench(sys).run(1024).unwrap().fom;
            assert!(
                mi.images_per_wh > other.images_per_wh,
                "MI250 {:.0} img/Wh must beat {} ({:.0})",
                mi.images_per_wh,
                other.system,
                other.images_per_wh
            );
        }
    }

    #[test]
    fn h100_pcie_or_gh200_best_at_small_batch() {
        // "while for smaller batches the H100 and GH200 (JRDC) devices
        // are more energy efficient".
        let mi = bench(SystemId::Mi250).run(16).unwrap().fom;
        let pcie = bench(SystemId::H100Jrdc).run(16).unwrap().fom;
        let gh = bench(SystemId::Gh200Jrdc).run(16).unwrap().fom;
        assert!(pcie.images_per_wh > mi.images_per_wh);
        assert!(gh.images_per_wh > mi.images_per_wh);
    }

    #[test]
    fn ipu_table3_reproduced() {
        let expect = [
            (16u64, 1827.72, 32.09),
            (32, 1857.90, 31.73),
            (64, 1879.29, 31.75),
            (128, 1888.11, 31.67),
            (256, 1887.23, 31.58),
            (512, 1891.74, 31.49),
            (1024, 1893.07, 31.50),
            (2048, 1889.87, 31.53),
            (4096, 1891.58, 31.51),
        ];
        for (batch, img_s, wh) in expect {
            let run = ResnetBenchmark::run_ipu(batch, 0.5).unwrap();
            let rel_t = (run.fom.images_per_s - img_s).abs() / img_s;
            assert!(rel_t < 0.005, "batch {batch}: images/s rel {rel_t:.4}");
            let rel_e = (run.fom.energy_wh_per_epoch - wh).abs() / wh;
            assert!(
                rel_e < 0.03,
                "batch {batch}: {:.2} Wh vs paper {wh} (rel {rel_e:.4})",
                run.fom.energy_wh_per_epoch
            );
        }
    }

    #[test]
    fn ipu_epoch_takes_10_to_15_minutes() {
        // "The compiled model graph upon execution is able to complete an
        // epoch with 1 281 167 samples in 10 to 15 minutes."
        let run = ResnetBenchmark::run_ipu(1024, 1.0).unwrap();
        assert!(
            run.epoch_s > 600.0 && run.epoch_s < 900.0,
            "epoch took {:.0} s",
            run.epoch_s
        );
    }

    #[test]
    fn ipu_energy_efficiency_is_promising_vs_gpus() {
        // "The energy efficiency compared to classical GPUs looks very
        // promising": the IPU must beat at least the A100 and H100s.
        let ipu = ResnetBenchmark::run_ipu(512, 1.0).unwrap().fom;
        for sys in [SystemId::A100, SystemId::WaiH100, SystemId::H100Jrdc] {
            let gpu = bench(sys).run(512).unwrap().fom;
            assert!(
                ipu.images_per_wh > gpu.images_per_wh,
                "IPU {:.0} img/Wh vs {} {:.0}",
                ipu.images_per_wh,
                gpu.system,
                gpu.images_per_wh
            );
        }
    }

    #[test]
    fn heatmap_has_oom_in_top_right() {
        let grid = ResnetBenchmark::heatmap(SystemId::A100, &[1, 2, 4, 8], &FIG4_BATCHES);
        // Single device, batch 2048: OOM.
        assert!(grid[0][7].is_oom());
        // 8 devices (2 nodes), batch 2048: fine (256/device).
        assert!(grid[3][7].value().is_some());
    }

    #[test]
    fn heatmap_throughput_grows_with_devices_and_batch() {
        let grid = ResnetBenchmark::heatmap(SystemId::WaiH100, &[1, 2, 4, 8], &FIG4_BATCHES);
        // "In nearly all GPU cases, the best value achieved is for the
        // largest batch size using most GPUs".
        let best = grid
            .iter()
            .flatten()
            .filter_map(HeatmapCell::value)
            .fold(0.0, f64::max);
        assert_eq!(grid[3][7].value().unwrap(), best);
        // Monotone in devices at fixed batch 256 (column index 4).
        let col: Vec<f64> = (0..4).map(|r| grid[r][4].value().unwrap()).collect();
        assert!(col.windows(2).all(|w| w[1] > w[0]), "{col:?}");
    }

    #[test]
    fn heatmap_ipu_peak_at_2_ipus_batch_16() {
        let grid = ResnetBenchmark::heatmap(SystemId::Gc200, &[1, 2, 4], &FIG4_BATCHES);
        let best = grid
            .iter()
            .flatten()
            .filter_map(HeatmapCell::value)
            .fold(0.0, f64::max);
        // Row 1 (2 IPUs), column 0 (batch 16).
        assert_eq!(grid[1][0].value().unwrap(), best);
    }

    #[test]
    fn indivisible_batch_is_invalid_not_oom() {
        let cell = ResnetBenchmark::heatmap_cell(SystemId::A100, 3, 16);
        assert!(!cell.is_oom());
        assert_eq!(cell.value(), None);
    }

    #[test]
    fn epoch_energy_scales_with_throughput() {
        let run = bench(SystemId::A100).run(512).unwrap();
        // Epoch time × throughput ≈ epoch images.
        let images = run.epoch_s * run.fom.images_per_s;
        let rel = (images - IMAGENET_TRAIN_IMAGES as f64).abs() / IMAGENET_TRAIN_IMAGES as f64;
        assert!(rel < 0.01, "epoch accounting off by {rel:.3}");
    }
}

#[cfg(test)]
mod affinity_tests {
    use super::*;

    /// §V-C ablation: on the A100's EPYC node (where "not all CPU
    /// chiplets have GPU affinity"), binding policy visibly moves the
    /// staging-sensitive throughput; GPU-centric binding wins.
    #[test]
    fn binding_policy_ordering_on_a100() {
        let run = |policy: BindingPolicy| {
            let mut b = ResnetBenchmark::fig3(SystemId::A100);
            b.devices = 4;
            b.binding = policy;
            b.throughput(4096).unwrap()
        };
        let gpu_centric = run(BindingPolicy::GpuCentric);
        let unbound = run(BindingPolicy::None);
        let compact = run(BindingPolicy::Compact);
        let tight = run(BindingPolicy::GpuCentricTightMask);
        assert!(gpu_centric >= unbound);
        assert!(unbound > compact, "compact packing must be the worst");
        assert!(gpu_centric >= tight);
    }

    /// On GH200 superchips the Slurm options already give proper
    /// affinity; binding barely matters.
    #[test]
    fn jedi_binding_insensitive_except_compact() {
        let run = |policy: BindingPolicy| {
            let mut b = ResnetBenchmark::fig3(SystemId::Jedi);
            b.devices = 4;
            b.binding = policy;
            b.throughput(2048).unwrap()
        };
        let centric = run(BindingPolicy::GpuCentric);
        let unbound = run(BindingPolicy::None);
        assert!((centric - unbound).abs() / centric < 1e-9);
        assert!(run(BindingPolicy::Compact) < centric);
    }
}
