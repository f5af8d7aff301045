//! Regenerate Fig. 4 (a–g): ResNet50 throughput heatmaps over number of
//! devices × global batch size for all seven systems, with OOM cells.
//!
//! Multi-node rows appear only for the systems with an InfiniBand
//! interconnect in Table I (JEDI, WestAI H100, MI250, A100), matching
//! the paper's "where resources were available".

use caraml::report::render_heatmap;
use caraml::resnet::{fig4_device_counts, ResnetBenchmark, FIG4_BATCHES};
use caraml_accel::{NodeConfig, SystemId};

fn main() {
    println!("FIG. 4 — ResNet50 throughput (images/s) vs devices x global batch\n");
    let panels = [
        ('a', SystemId::A100),
        ('b', SystemId::H100Jrdc),
        ('c', SystemId::WaiH100),
        ('d', SystemId::Gh200Jrdc),
        ('e', SystemId::Jedi),
        ('f', SystemId::Mi250),
        ('g', SystemId::Gc200),
    ];
    for (letter, sys) in panels {
        let node = NodeConfig::shared(sys);
        let devices = fig4_device_counts(sys);
        let grid = ResnetBenchmark::heatmap(sys, &devices, &FIG4_BATCHES);
        let title = format!("Fig. 4{letter}: {} ({})", node.platform, sys.jube_tag());
        println!("{}", render_heatmap(&title, &devices, &FIG4_BATCHES, &grid));
    }
    println!(
        "OOM = global batch per device exceeds device memory; '-' = configuration not executable."
    );
}
