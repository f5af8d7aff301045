//! Ablation study of CPU binding policies (paper §V-C), driven through
//! JUBE: "Beyond machine learning hyperparameters, this exploration can
//! be extended to system-level configurations, including number of CPU
//! cores or threads, CPU binding strategies and accelerator affinity in
//! terms of NUMA domains."
//!
//! It then prints the cost-model ablations of DESIGN.md §4: ring vs
//! tree all-reduce, activation-recomputation strategies, and the
//! pipeline bubble over the micro-batch count.
//!
//! ```text
//! cargo run --example affinity_ablation -- A100
//! ```

use caraml::resnet::ResnetBenchmark;
use caraml_accel::{BindingPolicy, Link, LinkKind, NodeConfig, SystemId};
use caraml_models::gpt::cost::{GptCost, Recompute};
use caraml_models::GptConfig;
use caraml_parallel::comm::{AllReduceAlgo, CollectiveModel};
use caraml_parallel::PipelineSchedule;
use jube::{Benchmark, Parameter, ParameterSet, ResultTable, Step};
use std::collections::BTreeMap;

fn main() {
    let tag = std::env::args().nth(1).unwrap_or_else(|| "A100".into());
    let Some(system) = SystemId::from_jube_tag(&tag) else {
        eprintln!("unknown system tag '{tag}'");
        std::process::exit(2);
    };
    if system == SystemId::Gc200 {
        eprintln!("binding ablation applies to the GPU systems");
        std::process::exit(2);
    }
    let node = NodeConfig::for_system(system);
    println!(
        "CPU binding ablation on {} ({} devices, ResNet50, global batches 64 and 4096)\n",
        node.platform, node.devices_per_node
    );

    let benchmark = Benchmark::new("binding_ablation")
        .with_parameter_set(
            ParameterSet::new("sweep")
                .with(Parameter::sweep(
                    "binding",
                    ["none", "compact", "spread", "gpu-centric", "tight-mask"],
                ))
                .with(Parameter::sweep("global_batch", [64, 4096])),
        )
        .with_step(Step::new("train", move |ctx| {
            let policy = match ctx.param("binding").map_err(|e| e.to_string())? {
                "none" => BindingPolicy::None,
                "compact" => BindingPolicy::Compact,
                "spread" => BindingPolicy::Spread,
                "gpu-centric" => BindingPolicy::GpuCentric,
                "tight-mask" => BindingPolicy::GpuCentricTightMask,
                other => return Err(format!("unknown policy {other}")),
            };
            let mut bench = ResnetBenchmark::fig3(system);
            bench.devices = NodeConfig::for_system(system).devices_per_node;
            bench.binding = policy;
            let batch: u64 = ctx
                .param("global_batch")
                .map_err(|e| e.to_string())?
                .parse()
                .map_err(|e| format!("{e}"))?;
            let t = bench.throughput(batch).map_err(|e| e.to_string())?;
            let mut out = BTreeMap::new();
            out.insert("images_per_s".into(), format!("{t:.1}"));
            out.insert("slurm_hint".into(), policy.slurm_hint().to_string());
            Ok(out)
        }));

    let result = benchmark.run(&[]).expect("ablation runs");
    let mut table = ResultTable::new(
        ["global_batch", "binding", "images_per_s", "slurm_hint"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for wp in &result.workpackages {
        let mut merged = wp.params.clone();
        merged.extend(wp.values.clone());
        table.push_from(&merged);
    }
    table.sort_by_column("images_per_s");
    table.sort_by_column("global_batch");
    println!("{}", table.to_ascii());
    println!("(the GPU-centric policy of §V-C should rank first)");
    model_ablations();
}

/// The design choices of DESIGN.md §4 as model outputs: all-reduce
/// algorithm, recomputation strategy and pipeline micro-batch count.
fn model_ablations() {
    let link = Link::new(LinkKind::InfiniBandNdr, 100.0, 3.0e-6);
    let ring = CollectiveModel::new(link);
    let tree = ring.with_algo(AllReduceAlgo::Tree);
    println!("\nall-reduce over 32 ranks (NDR InfiniBand):");
    println!(
        "  1.6 GB: ring {:.3} s, tree {:.3} s",
        ring.allreduce_s(1_600_000_000, 32),
        tree.allreduce_s(1_600_000_000, 32)
    );
    println!(
        "  4 KiB:  ring {:.1} us, tree {:.1} us",
        ring.allreduce_s(4096, 32) * 1e6,
        tree.allreduce_s(4096, 32) * 1e6
    );

    println!("\nactivation recomputation, GPT 800M, micro-batch 4:");
    for r in [Recompute::None, Recompute::Selective, Recompute::Full] {
        let cost = GptCost::new(GptConfig::gpt_800m()).with_recompute(r);
        println!(
            "  {:<9} {:.2} GFLOP/token, {:.2} GiB activations",
            format!("{r:?}"),
            cost.train_flops_per_token() / 1e9,
            cost.activation_bytes_per_device(4, 1, 1) as f64 / (1u64 << 30) as f64
        );
    }

    println!("\npipeline bubble, 4 stages:");
    let sched = PipelineSchedule::new(4, 0.2186);
    for m in [1u64, 4, 16, 64, 256] {
        println!(
            "  m={m:<3} bubble {:>5.1} %, efficiency {:.3}",
            100.0 * sched.bubble_fraction(m),
            sched.efficiency(m)
        );
    }
}
