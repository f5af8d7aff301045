//! Quickstart: run one CARAML measurement point on each benchmark and
//! print the figures of merit.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use caraml::llm::LlmBenchmark;
use caraml::resnet::ResnetBenchmark;
use caraml_accel::SystemId;

fn main() {
    println!("CARAML-rs quickstart\n====================\n");

    // 1. LLM training: 800M GPT on a 4x A100 node, global batch 512.
    let mut llm = LlmBenchmark::fig2(SystemId::A100);
    llm.duration_s = 600.0; // ten simulated minutes
    let run = llm.run(512).expect("A100 run");
    println!("LLM (800M GPT, {}, global batch 512):", run.fom.system);
    println!(
        "  {:>12.0} tokens/s per GPU",
        run.fom.tokens_per_s_per_device
    );
    println!(
        "  {:>12.1} Wh per GPU over the window",
        run.fom.energy_wh_per_device
    );
    println!("  {:>12.0} tokens/Wh", run.fom.tokens_per_wh);
    println!("  {:>12.1} W mean device power\n", run.fom.mean_power_w);

    // 2. ResNet50: one GH200, one ImageNet epoch, global batch 256.
    let cv = ResnetBenchmark::fig3(SystemId::Gh200Jrdc);
    let run = cv.run(256).expect("GH200 run");
    println!("CV (ResNet50, {}, global batch 256):", run.fom.system);
    println!("  {:>12.0} images/s", run.fom.images_per_s);
    println!("  {:>12.1} Wh per epoch", run.fom.energy_wh_per_epoch);
    println!("  {:>12.0} images/Wh", run.fom.images_per_wh);
    println!("  {:>12.1} min per epoch\n", run.epoch_s / 60.0);

    // 3. The Graphcore IPU path (Table II / Table III protocols).
    let ipu = LlmBenchmark::run_ipu(1024, 1.0).expect("IPU GPT");
    println!("IPU (117M GPT, POD4, global batch 1024 tokens):");
    println!("  {:>12.2} tokens/s", ipu.fom.tokens_per_s_per_device);
    println!(
        "  {:>12.2} Wh per IPU per epoch",
        ipu.fom.energy_wh_per_device
    );
    println!("  {:>12.2} tokens/Wh", ipu.fom.tokens_per_wh);
}
