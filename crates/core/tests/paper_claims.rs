//! Integration tests pinning the paper's qualitative findings (§IV and
//! §VI) across the full stack: simulator + models + parallelism + jpwr.
//!
//! These are the eight "shape targets" of DESIGN.md — who wins, by
//! roughly what factor, where crossovers fall.

use caraml::llm::{LlmBenchmark, FIG2_BATCHES};
use caraml::resnet::{ResnetBenchmark, FIG4_BATCHES};
use caraml_accel::SystemId;

fn llm(system: SystemId) -> LlmBenchmark {
    let mut b = LlmBenchmark::fig2(system);
    b.duration_s = 600.0;
    b
}

#[test]
fn claim1_gh200_peak_and_ratio_vs_a100() {
    let gh = llm(SystemId::Gh200Jrdc).run(4096).unwrap().fom;
    let a100 = llm(SystemId::A100).run(4096).unwrap().fom;
    // "GH200 nodes yielding a throughput of up to 47505 Tokens/s/GPU,
    // 2.45× higher than throughput achieved on A100 GPU nodes."
    assert!((gh.tokens_per_s_per_device - 47505.0).abs() / 47505.0 < 0.05);
    let ratio = gh.tokens_per_s_per_device / a100.tokens_per_s_per_device;
    assert!((ratio - 2.45).abs() < 0.25, "ratio {ratio:.2}");
}

#[test]
fn claim2_westai_processes_1_3x_jrdc_tokens() {
    let wai = llm(SystemId::WaiH100).run(2048).unwrap().fom;
    let jrdc = llm(SystemId::H100Jrdc).run(2048).unwrap().fom;
    let ratio = wai.tokens_per_s_per_device / jrdc.tokens_per_s_per_device;
    assert!((ratio - 1.3).abs() < 0.15, "ratio {ratio:.2}");
}

#[test]
fn claim3_pcie_h100_most_energy_efficient_despite_half_throughput() {
    let pcie = llm(SystemId::H100Jrdc).run(4096).unwrap().fom;
    let gh = llm(SystemId::Gh200Jrdc).run(4096).unwrap().fom;
    assert!(pcie.tokens_per_wh > gh.tokens_per_wh);
    assert!(pcie.tokens_per_wh < 1.4 * gh.tokens_per_wh, "up to ~25%");
    assert!(gh.tokens_per_s_per_device > 1.8 * pcie.tokens_per_s_per_device);
}

#[test]
fn claim4_mi250_gcd_mode_beats_gpu_mode_per_device() {
    let gcd = {
        let mut b = LlmBenchmark::fig2_mi250_gcd();
        b.duration_s = 600.0;
        b.run(2048).unwrap().fom
    };
    let gpu = llm(SystemId::Mi250).run(2048).unwrap().fom;
    assert!(gcd.tokens_per_s_per_device > gpu.tokens_per_s_per_device);
    assert!(gcd.tokens_per_wh > gpu.tokens_per_wh);
}

#[test]
fn claim5_throughput_monotone_and_saturating_in_batch() {
    for system in [SystemId::A100, SystemId::Gh200Jrdc, SystemId::WaiH100] {
        let bench = llm(system);
        let mut prev = 0.0;
        let mut gains = Vec::new();
        for &batch in &FIG2_BATCHES {
            let t = bench.run(batch).unwrap().fom.tokens_per_s_per_device;
            assert!(t > prev, "{system:?}: batch {batch} regressed");
            gains.push(t - prev);
            prev = t;
        }
        // Saturation: the last doubling gains less than the first.
        assert!(gains.last().unwrap() < &gains[1]);
    }
}

#[test]
fn claim6_efficiency_improves_with_batch() {
    let bench = llm(SystemId::A100);
    let lo = bench.run(16).unwrap().fom.tokens_per_wh;
    let hi = bench.run(4096).unwrap().fom.tokens_per_wh;
    assert!(hi > lo);
}

#[test]
fn claim7_fig4_gpu_heatmaps_peak_at_max_devices_max_batch() {
    // "In nearly all GPU cases, the best value achieved is for the
    // largest batch size using most GPUs."
    for system in [SystemId::WaiH100, SystemId::A100, SystemId::Mi250] {
        let node = caraml_accel::NodeConfig::for_system(system);
        let devs: Vec<u32> = (0..)
            .map(|i| 1u32 << i)
            .take_while(|&d| d <= node.devices_per_node * 2)
            .collect();
        let grid = ResnetBenchmark::heatmap(system, &devs, &FIG4_BATCHES);
        let best = grid
            .iter()
            .flatten()
            .filter_map(|c| c.value())
            .fold(0.0, f64::max);
        let corner = grid.last().unwrap().last().unwrap();
        assert_eq!(
            corner.value(),
            Some(best),
            "{system:?}: best cell is not (max devices, max batch)"
        );
    }
}

#[test]
fn claim8_ipu_flat_heatmap_with_peak_at_2x16() {
    let grid = ResnetBenchmark::heatmap(SystemId::Gc200, &[1, 2, 4], &FIG4_BATCHES);
    let best = grid
        .iter()
        .flatten()
        .filter_map(|c| c.value())
        .fold(0.0, f64::max);
    assert_eq!(
        grid[1][0].value(),
        Some(best),
        "peak must be 2 IPUs × batch 16"
    );
    // "performance behavior is relatively flat over a large range":
    // within one row, max/min ratio stays small for batch ≥ 32.
    let row: Vec<f64> = grid[0][1..].iter().filter_map(|c| c.value()).collect();
    let (lo, hi) = row
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
    assert!(hi / lo < 1.1, "IPU row not flat: {row:?}");
}

#[test]
fn fig4_multinode_rows_exist_only_with_interconnect() {
    // H100 (JRDC) has no InfiniBand in Table I: 8 devices is invalid.
    let cell = ResnetBenchmark::heatmap_cell(SystemId::H100Jrdc, 8, 512);
    assert_eq!(cell.value(), None);
    assert!(!cell.is_oom());
    // JEDI does have 4× NDR200: 8 devices work.
    let cell = ResnetBenchmark::heatmap_cell(SystemId::Jedi, 8, 512);
    assert!(cell.value().is_some());
}

#[test]
fn tokens_per_wh_consistency_across_the_stack() {
    // The efficiency FOM must equal throughput × window / energy for
    // every system — i.e. the jpwr measurement and the throughput model
    // agree on the same timeline.
    for system in [SystemId::A100, SystemId::Jedi, SystemId::Mi250] {
        let run = llm(system).run(1024).unwrap();
        let recomputed = run.fom.tokens_per_s_per_device * 600.0 / run.fom.energy_wh_per_device;
        let rel = (recomputed - run.fom.tokens_per_wh).abs() / run.fom.tokens_per_wh;
        assert!(rel < 1e-9, "{system:?}: inconsistent FOMs");
    }
}
