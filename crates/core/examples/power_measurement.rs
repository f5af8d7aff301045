//! Demonstrate the jpwr measurement tool in both modes:
//! 1. wall-clock: sample the real /proc/stat CPU method around an actual
//!    computation, like `jpwr -- <command>` does;
//! 2. virtual: replay the sampling loop over a simulated GH200 run with
//!    both backends the paper uses on Grace-Hopper (pynvml + gh/hwmon).

use caraml_accel::{NodeConfig, SimNode, SystemId};
use jpwr::measure::{get_power, sample_virtual};
use jpwr::method::{PowerMethod, ProcStatMethod};

fn main() {
    // --- wall-clock mode ---
    println!("wall-clock measurement of a real CPU burn:");
    let methods: Vec<Box<dyn PowerMethod>> = vec![Box::new(ProcStatMethod::new(15.0, 120.0))];
    let scope = get_power(methods, 20);
    let mut acc = 0u64;
    for i in 0..80_000_000u64 {
        acc = acc.wrapping_add(i * i);
    }
    std::hint::black_box(acc);
    let m = scope.finish();
    for (device, method, wh) in m.energy() {
        println!(
            "  {method}/{device}: {:.6} Wh over {} samples",
            wh,
            m.df.num_rows()
        );
    }

    // --- virtual mode ---
    println!("\nvirtual measurement of a simulated GH200 hour:");
    let node = SimNode::new(NodeConfig::for_system(SystemId::Gh200Jrdc));
    node.run_phase(1, 3000.0, 1.0, 650.0).unwrap(); // 50 min of training
    node.run_phase(1, 600.0, 0.2, 650.0).unwrap(); // 10 min of data staging
    node.idle_phase(0.0).unwrap();
    // Two methods at once, "useful for GH200" (§III-A4): the GPU sensor
    // and the full-module hwmon view (+ Grace CPU rail).
    let gpu = node.device(0).power_register().clone();
    let sources = vec![
        ("gpu0".to_string(), "pynvml".to_string(), gpu.clone()),
        ("module0".to_string(), "gh".to_string(), gpu),
    ];
    let m = sample_virtual(&sources, 1.0, 0.0, 3600.0);
    for (device, method, wh) in m.energy() {
        println!("  {method}/{device}: {:.1} Wh over one hour", wh);
    }
    println!("\n(write results: --df-out/--df-filetype in the jpwr CLI: cargo run -p jpwr --bin jpwr -- --methods procstat --df-out /tmp/jpwr -- sleep 1)");
}
