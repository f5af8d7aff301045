//! Drive a full CARAML benchmark through the JUBE workflow engine on a
//! simulated Slurm partition — parameter expansion, tag selection, job
//! scheduling, and the final `jube result` table.
//!
//! ```text
//! cargo run --example jube_workflow -- GC200
//! ```

use caraml::suite::resnet50_benchmark;
use jube::SlurmSim;

fn main() {
    let tags: Vec<String> = {
        let t: Vec<String> = std::env::args().skip(1).collect();
        if t.is_empty() {
            vec!["GH200".to_string()]
        } else {
            t
        }
    };
    println!(
        "jube run resnet50/resnet50_benchmark.xml --tag {}\n",
        tags.join(" ")
    );

    // A 4-node partition; each workpackage is one Slurm job.
    let slurm = SlurmSim::new(4);
    let benchmark = resnet50_benchmark();
    let result = benchmark.run_on(&slurm, &tags, 1).expect("benchmark runs");

    println!("jube result resnet50_benchmark_run -i last:\n");
    let mut table = result.table(&[
        "system",
        "platform",
        "global_batch",
        "images_per_s",
        "energy_wh_per_epoch",
        "images_per_wh",
        "error",
    ]);
    table.sort_by_column("global_batch");
    println!("{}", table.to_ascii());

    println!("slurm accounting:");
    for rec in slurm.records() {
        println!(
            "  job {:>3} {:<28} {:?} queue {:>6.3}s run {:>6.3}s",
            rec.id, rec.name, rec.state, rec.queue_s, rec.run_s
        );
    }
}
