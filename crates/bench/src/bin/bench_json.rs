//! The repo's timing sweep: times the tensor-stack hot kernels (GEMM
//! variants, batched matmul, ResNet50-shaped convolutions, the fused
//! non-GEMM kernel layer, the quantized tier), end-to-end training and
//! decode steps, the serve/fleet/sweep simulators, the paper's Fig. 2–4
//! and Table II/III simulator calls, BPE preprocessing and the threaded
//! ring all-reduce. Each case runs one warm-up call and then N timed
//! single calls; its median lands in the shared `results.jsonl` history
//! store as one `bench-json` generation, keyed
//! `bench/{kernel}/{shape}/median_ms` with the SIMD arm and precision on
//! each record (`just bench-json`; `caraml trend` analyses the store).
//!
//! The dual-arm kernels are re-timed with the dispatcher pinned to the
//! scalar and (when the host has it) the AVX2 arm, so the SIMD speedup
//! is part of the tracked trajectory. Compute-bound kernels print
//! GFLOP/s, bandwidth-bound kernels GB/s of the bytes they actually
//! move, steps and simulators items/s.
//!
//! * `--check` re-times everything and gates the fresh medians against
//!   the latest stored `bench-json` generation through
//!   [`Baseline::compare`] at ±25%; series stored under
//!   [`CHECK_MIN_MS`] are exempt, and a stored series the run no longer
//!   produces fails. It never writes (`just bench-check`).
//! * `--report` renders the fresh run against that same generation as
//!   `docs/performance.md` (`just bench-report`).
//! * `--filter <substr>[,<substr>...]` re-times just the matching kernel
//!   families and prints them without writing (`just bench-quant`).

use caraml::continuous::{default_label, Baseline, History, HistoryRecord, RegressionReport};
use caraml::fleet::{AutoscaleConfig, FleetBenchmark, RoutePolicy};
use caraml::llm::LlmBenchmark;
use caraml::resnet::{ResnetBenchmark, FIG4_BATCHES};
use caraml::serve::{ArrivalKind, ServeBenchmark, ServePoint};
use caraml::sweep::{grid, ShardPlan};
use caraml::SweepRunner;
use caraml_accel::SystemId;
use caraml_data::{BpeTokenizer, SyntheticCorpus, SyntheticImages};
use caraml_models::{GptConfig, GptInfer, GptModel, ResnetConfig, ResnetModel};
use caraml_tensor::attention::{fused_causal_attention, fused_causal_attention_backward};
use caraml_tensor::conv::{conv2d, Conv2dCfg};
use caraml_tensor::matmul::{bmm, matmul, matmul_at, matmul_bt};
use caraml_tensor::optim::{Adam, Optimizer, Sgd};
use caraml_tensor::simd::{avx2_available, with_arm, Arm};
use caraml_tensor::{kernels, nn, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The history store every run appends to and `--check`/`--report`
/// read from.
const HISTORY: &str = "results.jsonl";

/// Scenario name of the kernel snapshots in [`HISTORY`].
const SCENARIO: &str = "bench-json";

/// Series whose stored median is below this are reported but exempt
/// from `--check`: sub-quarter-millisecond medians are dominated by
/// timer and scheduler jitter, so a percentage gate on them only flakes.
const CHECK_MIN_MS: f64 = 0.25;

/// Timed calls per case unless the case sets its own count.
const SAMPLES: usize = 15;

fn seeded(n: usize) -> Tensor {
    Tensor::from_vec(
        (0..n)
            .map(|i| ((i as u64 * 2654435761) % 97) as f32 / 97.0 - 0.5)
            .collect(),
        [n],
    )
}

/// The timing harness: every case's median becomes one history record
/// of the generation this run appends.
struct Sweep {
    generation: u64,
    label: String,
    /// SIMD arm the cases run on: `default` (runtime dispatch) or a
    /// pinned `scalar` / `avx2` arm.
    arm: &'static str,
    /// `--filter` substrings; `None` runs everything.
    filter: Option<Vec<String>>,
    records: Vec<HistoryRecord>,
}

/// One timed case, built by [`Sweep::case`] and run by [`Case::time`].
/// The work counts only set the printed rate.
struct Case<'s> {
    sweep: &'s mut Sweep,
    kernel: &'s str,
    shape: String,
    precision: &'static str,
    samples: usize,
    flops: u64,
    bytes: u64,
    items: u64,
}

impl Sweep {
    fn new(generation: u64, label: String, filter: Option<Vec<String>>) -> Sweep {
        Sweep {
            generation,
            label,
            arm: "default",
            filter,
            records: Vec::new(),
        }
    }

    /// Whether a kernel name survives `--filter` (substring match
    /// against any needle; no filter = everything runs).
    fn selected(&self, kernel: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|needles| needles.iter().any(|n| kernel.contains(n.as_str())))
    }

    fn case<'s>(&'s mut self, kernel: &'s str, shape: impl Into<String>) -> Case<'s> {
        Case {
            sweep: self,
            kernel,
            shape: shape.into(),
            precision: "f32",
            samples: SAMPLES,
            flops: 0,
            bytes: 0,
            items: 0,
        }
    }

    /// Run `body` once per SIMD arm this host has, with the dispatcher
    /// pinned and the records tagged with that arm.
    fn on_each_arm(&mut self, body: impl Fn(&mut Sweep)) {
        let arms: &[(Arm, &str)] = if avx2_available() {
            &[(Arm::Scalar, "scalar"), (Arm::Avx2, "avx2")]
        } else {
            &[(Arm::Scalar, "scalar")]
        };
        for &(arm, label) in arms {
            self.arm = label;
            with_arm(arm, || body(self));
        }
        self.arm = "default";
    }

    /// The run's medians as the [`Baseline`] the gate compares.
    fn baseline(&self) -> Baseline {
        History {
            records: self.records.clone(),
        }
        .generation_baseline(SCENARIO, self.generation)
    }
}

impl Case<'_> {
    fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    fn items(mut self, items: u64) -> Self {
        self.items = items;
        self
    }

    fn precision(mut self, precision: &'static str) -> Self {
        self.precision = precision;
        self
    }

    fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Median wall time of `samples` timed calls after one warm-up
    /// (which populates the workspace pool and faults pages in).
    fn time(self, mut f: impl FnMut()) {
        let sweep = self.sweep;
        if !sweep.selected(self.kernel) {
            return;
        }
        f();
        let mut times: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        let rate = if self.flops > 0 {
            format!("{:>8.2} GFLOP/s", self.flops as f64 / median / 1e9)
        } else if self.bytes > 0 {
            format!("{:>8.2} GB/s", self.bytes as f64 / median / 1e9)
        } else {
            format!("{:>8.0} items/s", self.items as f64 / median)
        };
        let name = match sweep.arm {
            "default" => self.kernel.to_string(),
            arm => format!("{} [{arm}]", self.kernel),
        };
        println!(
            "{name:<16} {:<28} {:>9.3} ms  {rate}",
            self.shape,
            median * 1e3
        );
        let record = HistoryRecord::new(
            sweep.generation,
            sweep.label.clone(),
            SCENARIO,
            sweep.arm,
            self.precision,
            format!("bench/{}/{}/median_ms", self.kernel, self.shape),
            median * 1e3,
        )
        .expect("a wall-clock median is finite");
        sweep.records.push(record);
    }
}

fn gemm_and_conv(s: &mut Sweep) {
    // Square GEMM sweep, all three transpose variants.
    for &n in &[64usize, 128, 256, 512] {
        let a = seeded(n * n).reshape([n, n]).unwrap();
        let b = seeded(n * n).reshape([n, n]).unwrap();
        let flops = 2 * (n as u64).pow(3);
        let bytes = 3 * (n * n * 4) as u64;
        let shape = format!("{n}x{n}x{n}");
        s.case("matmul", &shape).flops(flops).bytes(bytes).time(|| {
            black_box(matmul(&a, &b).unwrap());
        });
        s.case("matmul_bt", &shape)
            .flops(flops)
            .bytes(bytes)
            .time(|| {
                black_box(matmul_bt(&a, &b).unwrap());
            });
        s.case("matmul_at", &shape)
            .flops(flops)
            .bytes(bytes)
            .time(|| {
                black_box(matmul_at(&a, &b).unwrap());
            });
    }

    // GPT-ish rectangular GEMM: [tokens, hidden] x [hidden, 4*hidden].
    let (m, k, n) = (256usize, 256usize, 1024usize);
    let a = seeded(m * k).reshape([m, k]).unwrap();
    let b = seeded(k * n).reshape([k, n]).unwrap();
    s.case("matmul", format!("{m}x{k}x{n} (mlp)"))
        .flops(2 * (m * k * n) as u64)
        .bytes(((m * k + k * n + m * n) * 4) as u64)
        .time(|| {
            black_box(matmul(&a, &b).unwrap());
        });

    // Attention-shaped batched matmul: 8 heads of 64x64.
    let a = seeded(8 * 64 * 64).reshape([8, 64, 64]).unwrap();
    let b = seeded(8 * 64 * 64).reshape([8, 64, 64]).unwrap();
    s.case("bmm", "8x64x64x64 (attention)")
        .flops(2 * 8 * 64u64.pow(3))
        .bytes(3 * 8 * 64 * 64 * 4)
        .time(|| {
            black_box(bmm(&a, &b).unwrap());
        });

    // ResNet50-realistic convolutions (batch 4): the stem, an early 3x3
    // bottleneck stage, a mid-network stage, and a 1x1 expansion.
    let conv_cases: &[(&str, [usize; 4], [usize; 4], Conv2dCfg)] = &[
        (
            "7x7s2 stem 3->64 @224",
            [4, 3, 224, 224],
            [64, 3, 7, 7],
            Conv2dCfg::new(2, 3),
        ),
        (
            "3x3 64->64 @56",
            [4, 64, 56, 56],
            [64, 64, 3, 3],
            Conv2dCfg::new(1, 1),
        ),
        (
            "3x3 128->128 @28",
            [4, 128, 28, 28],
            [128, 128, 3, 3],
            Conv2dCfg::new(1, 1),
        ),
        (
            "1x1 256->512 @28",
            [4, 256, 28, 28],
            [512, 256, 1, 1],
            Conv2dCfg::new(1, 0),
        ),
    ];
    for (label, xd, wd, cfg) in conv_cases {
        let x = seeded(xd.iter().product()).reshape(*xd).unwrap();
        let w = seeded(wd.iter().product()).reshape(*wd).unwrap();
        let oh = cfg.out_dim(xd[2], wd[2]);
        let ow = cfg.out_dim(xd[3], wd[3]);
        let flops = 2 * (xd[0] * wd[0] * wd[1] * wd[2] * wd[3] * oh * ow) as u64;
        let bytes = ((xd.iter().product::<usize>()
            + wd.iter().product::<usize>()
            + xd[0] * wd[0] * oh * ow)
            * 4) as u64;
        s.case("conv2d", *label)
            .samples(7)
            .flops(flops)
            .bytes(bytes)
            .time(|| {
                black_box(conv2d(&x, &w, *cfg).unwrap());
            });
    }
}

/// The fused non-GEMM kernel layer at a transformer-realistic shape
/// (128 rows of hidden size 1024). Bytes count the reads and writes the
/// kernel actually performs, so fused variants credit their saved
/// traffic as higher effective GB/s.
fn elementwise_kernels(s: &mut Sweep) {
    let (rows, n) = (128usize, 1024usize);
    let plane = (rows * n * 4) as u64;
    let x = seeded(rows * n).reshape([rows, n]).unwrap();
    let x2 = seeded(rows * n).reshape([rows, n]).unwrap();
    let bias = seeded(n);
    let shape = format!("{rows}x{n}");

    s.case("softmax_last", &shape).bytes(2 * plane).time(|| {
        black_box(nn::softmax_last(&x));
    });
    let y = nn::softmax_last(&x);
    s.case("softmax_bwd", &shape).bytes(3 * plane).time(|| {
        black_box(nn::softmax_last_backward(&y, &x2));
    });
    let targets: Vec<usize> = (0..rows).map(|r| (r * 17) % n).collect();
    s.case("softmax_xent", &shape).bytes(2 * plane).time(|| {
        black_box(nn::cross_entropy_logits(&x, &targets));
    });
    let gamma = seeded(n);
    let beta = seeded(n);
    s.case("layernorm", &shape).bytes(3 * plane).time(|| {
        black_box(nn::layernorm(&x, &gamma, &beta, 1e-5));
    });
    let (_, cache) = nn::layernorm(&x, &gamma, &beta, 1e-5);
    s.case("layernorm_bwd", &shape).bytes(3 * plane).time(|| {
        black_box(nn::layernorm_backward(&cache, &gamma, &x2));
    });
    s.case("gelu", &shape).bytes(2 * plane).time(|| {
        black_box(nn::gelu(&x));
    });
    s.case("bias_gelu", &shape).bytes(3 * plane).time(|| {
        black_box(nn::bias_gelu(&x, &bias));
    });
    let (_, pre) = nn::bias_gelu(&x, &bias);
    s.case("bias_gelu_bwd", &shape).bytes(3 * plane).time(|| {
        black_box(nn::bias_gelu_backward(&pre, &x2));
    });
    s.case("add_relu", &shape).bytes(3 * plane).time(|| {
        black_box(nn::add_relu(&x, &x2));
    });
    s.case("bias_add", format!("{shape}+{n}"))
        .bytes(2 * plane)
        .time(|| {
            black_box(x.add(&bias).unwrap());
        });
    s.case("sum_axis0", &shape).bytes(plane).time(|| {
        black_box(x.sum_axis0());
    });
    let r = seeded(8 * 128 * 64).reshape([8, 128, 64]).unwrap();
    s.case("rope", "8x128x64")
        .bytes(2 * (8 * 128 * 64 * 4) as u64)
        .time(|| {
            black_box(nn::rope(&r, false));
        });

    // Fused single-pass Adam on a 1M-parameter slab: param/m/v are read
    // and written, the gradient is read — 7 slab traversals of traffic
    // in one pass.
    let len = 1 << 20;
    let grad = seeded(len).data().to_vec();
    let mut param = seeded(len).data().to_vec();
    let mut m = vec![0.0f32; len];
    let mut v = vec![0.0f32; len];
    s.case("adam_fused", "1M params")
        .bytes(7 * (len * 4) as u64)
        .time(|| {
            kernels::adam_update(
                &mut param, &grad, &mut m, &mut v, 1e-4, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.001,
            );
            black_box(&param);
        });
}

/// Fused causal attention (QKᵀ·scale → mask → softmax → ·V in one
/// streamed pass) at a transformer-realistic shape: 8 heads, sequence
/// 128, head dim 64. FLOPs count the two causal-prefix contractions
/// (scores and ·V) forward, five backward.
fn attention_records(s: &mut Sweep) {
    let (bh, seq, d) = (8usize, 128usize, 64usize);
    let q = seeded(bh * seq * d).reshape([bh, seq, d]).unwrap();
    let k = seeded(bh * seq * d).reshape([bh, seq, d]).unwrap();
    let v = seeded(bh * seq * d).reshape([bh, seq, d]).unwrap();
    let scale = 1.0 / (d as f32).sqrt();
    let contraction = bh as u64 * (seq * (seq + 1) / 2) as u64 * d as u64;
    let shape = format!("{bh}x{seq}x{d}");
    s.case("attention_fused", &shape)
        .flops(4 * contraction)
        .time(|| {
            black_box(fused_causal_attention(&q, &k, &v, scale));
        });
    let (out, probs) = fused_causal_attention(&q, &k, &v, scale);
    s.case("attention_fused_bwd", &shape)
        .flops(10 * contraction)
        .time(|| {
            black_box(fused_causal_attention_backward(
                &q, &k, &v, &probs, &out, scale,
            ));
        });
}

/// The quantized tier's kernels: per-channel int8 quantize/dequantize at
/// a weight-matrix shape and the int8×int8→i32 packed-panel GEMM with
/// its fused dequant epilogue.
fn quant_kernels(s: &mut Sweep) {
    use caraml_tensor::quant::{gemm_i8_nt, QTensor};
    let (rows, cols) = (1024usize, 1024usize);
    let numel = rows * cols;
    let src = seeded(numel).data().to_vec();
    let qt = QTensor::quantize(&src, rows, cols);
    let mut dq = vec![0.0f32; numel];
    let shape = format!("{rows}x{cols}");

    let n = 256usize;
    let qa = QTensor::quantize(seeded(n * n).data(), n, n);
    let qb = QTensor::quantize(seeded(n * n).data(), n, n);
    let bias = seeded(n).data().to_vec();
    let mut c = vec![0.0f32; n * n];

    // quantize reads f32, writes i8 + one f32 scale per row.
    s.case("quantize", &shape)
        .precision("int8")
        .bytes((numel * 4 + numel + rows * 4) as u64)
        .time(|| {
            black_box(QTensor::quantize(&src, rows, cols));
        });
    s.case("dequantize", &shape)
        .precision("int8")
        .bytes((numel + rows * 4 + numel * 4) as u64)
        .time(|| {
            qt.dequantize_into(&mut dq);
            black_box(&dq);
        });
    s.case("gemm_i8", format!("{n}x{n}x{n}"))
        .precision("int8")
        .flops(2 * (n as u64).pow(3))
        .bytes((2 * n * n + n * n * 4) as u64)
        .time(|| {
            gemm_i8_nt(&qa, &qb, Some(&bias), &mut c);
            black_box(&c);
        });
}

/// Single-token decode steps through the quantized GPT inference tier,
/// one record per precision. The shape is decode-realistic (weights far
/// exceed cache, batch 1), so the step is memory-bound and the
/// items/s ratio between tiers tracks the bytes-per-element win.
fn decode_steps(s: &mut Sweep) {
    use caraml_accel::Precision;
    let cfg = GptConfig {
        name: "bench".into(),
        layers: 4,
        hidden: 1024,
        heads: 16,
        seq_len: 96,
        vocab: 4096,
    };
    let cases = [
        (Precision::F32, "decode_step_f32"),
        (Precision::Bf16, "decode_step_bf16"),
        (Precision::Int8, "decode_step_int8"),
    ];
    for (precision, name) in cases {
        if !s.selected(name) {
            continue; // skip the synthetic-weight build too under --filter
        }
        let mut infer = GptInfer::synthetic(cfg.clone(), 3, precision);
        infer.prefill(&[1, 2, 3, 4]);
        let mut token = 5u32;
        s.case(name, "4L h1024 v4096 b1")
            .samples(9)
            .precision(precision.tag())
            .items(1)
            .time(|| {
                black_box(infer.decode_step(token % 4096));
                token = token.wrapping_add(1);
            });
    }
}

/// End-to-end training steps (forward + backward + optimizer) for the
/// two paper workloads at laptop scale.
fn train_steps(s: &mut Sweep) {
    let (vocab, seq, batch) = (256usize, 32usize, 4usize);
    let model = GptModel::new(GptConfig::tiny(vocab, seq), 0);
    let params = model.parameters();
    let mut opt = Adam::new(1e-3);
    let rows = |shift: u32| -> Vec<Vec<u32>> {
        (0..batch as u32)
            .map(|r| {
                (0..seq as u32)
                    .map(|i| (r * 13 + i + shift) % vocab as u32)
                    .collect()
            })
            .collect()
    };
    let (inputs, targets) = (rows(0), rows(1));
    s.case("train_step_gpt", format!("tiny v{vocab} s{seq} b{batch}"))
        .samples(9)
        .items((batch * seq) as u64)
        .time(|| {
            model.loss(&inputs, &targets).backward();
            opt.step(&params);
        });

    let (classes, img, rbatch) = (8usize, 32usize, 8usize);
    let model = ResnetModel::new(ResnetConfig::tiny(classes, img), 1);
    let params = model.parameters();
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let src = SyntheticImages::new(7, classes, 3, img, img);
    let (images, labels) = src.batch(0, rbatch);
    s.case(
        "train_step_resnet",
        format!("tiny c{classes} i{img} b{rbatch}"),
    )
    .samples(7)
    .items(rbatch as u64)
    .time(|| {
        model.loss(&images, &labels).backward();
        opt.step(&params);
    });
}

/// The serving simulator's event loop: wall-clock time to drive a full
/// load point through the continuous batcher, with items/s = simulated
/// generated tokens per wall second.
fn serve_steps(s: &mut Sweep) {
    let mut bench = ServeBenchmark::new(SystemId::H100Jrdc);
    bench.config.num_requests = 256;
    let bursty = ArrivalKind::Bursty {
        burst_factor: 8.0,
        mean_burst: 6.0,
    };
    let cases = [
        ("serve_poisson", ArrivalKind::Poisson, 64.0, 16),
        ("serve_poisson", ArrivalKind::Poisson, 256.0, 64),
        ("serve_bursty", bursty, 64.0, 16),
    ];
    for (name, arrival, rate_per_s, batch_cap) in cases {
        bench.config.arrival = arrival;
        let point = ServePoint {
            rate_per_s,
            batch_cap,
        };
        let tokens = bench
            .simulate(point)
            .expect("load point runs")
            .served_tokens;
        s.case(name, format!("n256 r{rate_per_s:.0} c{batch_cap}"))
            .samples(9)
            .items(tokens)
            .time(|| {
                black_box(bench.simulate(point).unwrap());
            });
    }
}

/// The fleet scheduler's event loop: wall-clock time to route, autoscale
/// and drain a bursty trace across N replica batchers, with items/s =
/// simulated generated tokens per wall second. One record per routing
/// policy (same trace), plus a disaggregated + autoscaled configuration
/// exercising the KV-handoff and cold-start paths.
fn fleet_steps(s: &mut Sweep) {
    let point = ServePoint {
        rate_per_s: 96.0,
        batch_cap: 16,
    };
    let run = |s: &mut Sweep, name: &str, shape: &str, mut bench: FleetBenchmark| {
        bench.config.serve.num_requests = 256;
        bench.config.serve.arrival = ArrivalKind::Bursty {
            burst_factor: 8.0,
            mean_burst: 6.0,
        };
        let tokens = bench
            .simulate(point)
            .expect("load point runs")
            .served_tokens;
        s.case(name, shape).samples(9).items(tokens).time(|| {
            black_box(bench.simulate(point).unwrap());
        });
    };
    for policy in RoutePolicy::ALL {
        let name = format!("fleet_{}", policy.tag().replace('-', "_"));
        let bench = FleetBenchmark::new(SystemId::H100Jrdc).with_policy(policy);
        run(s, &name, "n256 x4 r96 c16", bench);
    }
    let bench = FleetBenchmark::new(SystemId::H100Jrdc)
        .with_replicas(2)
        .disaggregated(true)
        .with_autoscale(AutoscaleConfig::default());
    run(s, "fleet_disagg_autoscale", "n256 x2+ r96 c16", bench);
}

/// The sweep dispatch paths: one full Fig. 4 (device × batch) grid of
/// full-measurement cells, run serially on the calling thread, in
/// parallel on the rayon pool, and sharded over a simulated 4-node Slurm
/// partition. items/s = grid cells per wall second.
fn sweep_steps(s: &mut Sweep) {
    let devices = [1u32, 2, 4, 8];
    let points = grid(SystemId::H100Jrdc, &devices, &FIG4_BATCHES);
    let cells = points.len() as u64;
    let cell = |p: caraml::SweepPoint| {
        let mut bench = ResnetBenchmark::fig3(p.system);
        bench.devices = p.devices;
        black_box(bench.run(p.batch).map(|r| r.fom.images_per_s).ok());
    };
    let shape = format!("resnet d{} x b{}", devices.len(), FIG4_BATCHES.len());
    s.case("sweep_serial", &shape)
        .samples(9)
        .items(cells)
        .time(|| {
            black_box(SweepRunner::serial().map(points.clone(), cell));
        });
    s.case("sweep_parallel", &shape)
        .samples(9)
        .items(cells)
        .time(|| {
            black_box(SweepRunner::parallel().map(points.clone(), cell));
        });
    let slurm = jube::SlurmSim::new(4);
    s.case("sweep_sharded", &shape)
        .samples(9)
        .items(cells)
        .time(|| {
            black_box(
                SweepRunner::parallel()
                    .map_sharded(&slurm, ShardPlan::new(4), points.clone(), cell)
                    .results,
            );
        });
}

/// The paper's simulator calls: one Fig. 2 point, one Table II row, one
/// Table III row and a full Fig. 4 heatmap — regenerating the paper's
/// evaluation costs milliseconds, not GPU-hours.
fn paper_simulator_steps(s: &mut Sweep) {
    let mut fig2 = LlmBenchmark::fig2(SystemId::Gh200Jrdc);
    fig2.duration_s = 600.0;
    s.case("fig2_point", "GH200 b4096").items(1).time(|| {
        black_box(fig2.run(4096).unwrap().fom.tokens_per_s_per_device);
    });
    s.case("table2_row", "GC200 b1024").items(1).time(|| {
        black_box(LlmBenchmark::run_ipu(1024, 1.0).unwrap());
    });
    s.case("table3_row", "GC200 b512").items(1).time(|| {
        black_box(ResnetBenchmark::run_ipu(512, 1.0).unwrap());
    });
    let devices = [1u32, 2, 4, 8];
    s.case("fig4_heatmap", format!("A100 d4 x b{}", FIG4_BATCHES.len()))
        .items((devices.len() * FIG4_BATCHES.len()) as u64)
        .time(|| {
            black_box(ResnetBenchmark::heatmap(
                SystemId::A100,
                &devices,
                &FIG4_BATCHES,
            ));
        });
}

/// GPT-2-style BPE preprocessing: vocabulary training, encode and
/// decode over a synthetic corpus. GB/s counts the text bytes.
fn tokenizer_steps(s: &mut Sweep) {
    let corpus = SyntheticCorpus::new(42, 120);
    let train_text = corpus.text(20, 300);
    let encode_text = corpus.text(5, 400);
    s.case("bpe_train", format!("v512 {}B", train_text.len()))
        .samples(9)
        .bytes(train_text.len() as u64)
        .time(|| {
            black_box(BpeTokenizer::train(&train_text, 512));
        });
    let tok = BpeTokenizer::train(&train_text, 512);
    let text_bytes = encode_text.len() as u64;
    s.case("bpe_encode", format!("v512 {text_bytes}B"))
        .bytes(text_bytes)
        .time(|| {
            black_box(tok.encode(&encode_text));
        });
    let ids = tok.encode(&encode_text);
    s.case("bpe_decode", format!("v512 {text_bytes}B"))
        .bytes(text_bytes)
        .time(|| {
            black_box(tok.decode(&ids));
        });
}

/// The real threaded ring all-reduce (the Horovod analogue behind the
/// data-parallel benchmarks). Each call builds the rank buffers and
/// reduces them; GB/s counts the buffers' bytes.
fn allreduce_steps(s: &mut Sweep) {
    for ranks in [2usize, 4, 8] {
        for len in [1_000usize, 100_000] {
            s.case("ring_allreduce", format!("{ranks} ranks x {len}"))
                .bytes((ranks * len * 4) as u64)
                .time(|| {
                    let bufs: Vec<Vec<f32>> = (0..ranks).map(|r| vec![r as f32; len]).collect();
                    black_box(caraml_parallel::ring_allreduce(bufs));
                });
        }
    }
}

/// Device-registry cold load: parse + validate + intern every embedded
/// device TOML. items/s = device files per wall second.
fn registry_steps(s: &mut Sweep) {
    use caraml_accel::{DeviceRegistry, EMBEDDED_DEVICE_FILES};
    let files = EMBEDDED_DEVICE_FILES.len() as u64;
    s.case("registry_load", format!("{files} device files"))
        .samples(25)
        .items(files)
        .time(|| {
            black_box(DeviceRegistry::from_files(EMBEDDED_DEVICE_FILES).unwrap());
        });
}

fn run_all(s: &mut Sweep) {
    let dual_arm = |s: &mut Sweep| {
        gemm_and_conv(s);
        elementwise_kernels(s);
        attention_records(s);
        quant_kernels(s);
    };
    dual_arm(s);
    decode_steps(s);
    train_steps(s);
    serve_steps(s);
    fleet_steps(s);
    sweep_steps(s);
    registry_steps(s);
    paper_simulator_steps(s);
    tokenizer_steps(s);
    allreduce_steps(s);
    s.on_each_arm(dual_arm);
}

/// The `--check` rule: fresh medians against the stored generation at
/// ±25%, skipping series stored under [`CHECK_MIN_MS`]. A stored series
/// the run no longer produces is `Missing` and fails; a new one is
/// `New` and passes.
fn check(stored: &Baseline, fresh: &Baseline) -> RegressionReport {
    let jitter = |key: &String| stored.metrics.get(key).is_some_and(|&ms| ms < CHECK_MIN_MS);
    let (mut base, mut now) = (stored.clone(), fresh.clone());
    base.metrics.retain(|key, _| !jitter(key));
    now.metrics.retain(|key, _| !jitter(key));
    base.compare(&now, 0.25)
}

/// Render the fresh run against the stored generation as the markdown
/// regression report committed to `docs/performance.md`.
fn render_report(fresh: &[HistoryRecord], stored: &Baseline) -> String {
    use std::fmt::Write;
    let series = |r: &HistoryRecord| {
        r.key
            .trim_start_matches("bench/")
            .trim_end_matches("/median_ms")
            .to_string()
    };
    let mut md = String::new();
    let _ = writeln!(md, "# Kernel performance report");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Generated by `just bench-report` (`bench_json --report`): fresh medians \
         (one warm-up, then 7 to 25 timed single calls per case), compared \
         against the latest `bench-json` generation in `results.jsonl` (label \
         `{}`). Speedup > 1 is faster than the stored median. See `DESIGN.md` \
         §4g for the SIMD dispatch architecture these numbers track.",
        stored.label
    );
    let _ = writeln!(md);
    let _ = writeln!(md, "## Medians vs stored generation");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "| kernel/shape | arm | stored ms | current ms | speedup |"
    );
    let _ = writeln!(md, "|---|---|---:|---:|---:|");
    let mut new = 0usize;
    for rec in fresh {
        match stored.metrics.get(&rec.series_label()) {
            Some(old_ms) => {
                let _ = writeln!(
                    md,
                    "| {} | {} | {old_ms:.3} | {:.3} | {:.2}x |",
                    series(rec),
                    rec.arm,
                    rec.value,
                    old_ms / rec.value
                );
            }
            None => new += 1,
        }
    }
    if new > 0 {
        let _ = writeln!(md);
        let _ = writeln!(
            md,
            "{new} fresh series have no stored counterpart (new kernels or \
             newly timed arms) and are omitted above."
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(md, "## Scalar vs AVX2 arm");
    let _ = writeln!(md);
    let _ = writeln!(
        md,
        "Dual-arm kernels re-timed with the dispatcher pinned to each arm \
         (`CARAML_SIMD=off` forces the scalar column at runtime). The arms \
         are bit-identical in results — this table is the cost of that \
         portability fallback."
    );
    let _ = writeln!(md);
    let _ = writeln!(md, "| kernel/shape | scalar ms | avx2 ms | SIMD speedup |");
    let _ = writeln!(md, "|---|---:|---:|---:|");
    for scalar in fresh.iter().filter(|r| r.arm == "scalar") {
        if let Some(avx2) = fresh
            .iter()
            .find(|r| r.arm == "avx2" && r.key == scalar.key)
        {
            let _ = writeln!(
                md,
                "| {} | {:.3} | {:.3} | {:.2}x |",
                series(scalar),
                scalar.value,
                avx2.value,
                scalar.value / avx2.value
            );
        }
    }
    md
}

fn fail(msg: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("bench_json: {msg}");
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let report_mode = args.iter().any(|a| a == "--report");
    let filter = args.iter().position(|a| a == "--filter").map(|i| {
        let needles: Vec<String> = args
            .get(i + 1)
            .map(|v| v.split(',').map(str::to_string).collect())
            .unwrap_or_default();
        if needles.iter().all(String::is_empty) {
            fail(
                "--filter needs a kernel substring (e.g. --filter gemm_i8)",
                2,
            );
        }
        if check_mode || report_mode {
            fail(
                "--filter cannot be combined with --check or --report (partial run)",
                2,
            );
        }
        needles
    });

    let path = Path::new(HISTORY);
    let history = History::load_or_empty(path).unwrap_or_else(|e| fail(e, 1));
    // The stored generation `--check` and `--report` compare against.
    let stored = history
        .generations(SCENARIO)
        .last()
        .map(|&generation| history.generation_baseline(SCENARIO, generation));
    if (check_mode || report_mode) && stored.is_none() {
        fail(
            format!("no {SCENARIO} generation in {HISTORY}; run `just bench-json` first"),
            1,
        );
    }

    let mut sweep = Sweep::new(history.next_generation(), default_label(), filter);
    run_all(&mut sweep);

    if let Some(stored) = stored.filter(|_| check_mode || report_mode) {
        if report_mode {
            let md = render_report(&sweep.records, &stored);
            std::fs::create_dir_all("docs").unwrap_or_else(|e| fail(e, 1));
            std::fs::write("docs/performance.md", md).unwrap_or_else(|e| fail(e, 1));
            println!("\nwrote docs/performance.md");
        }
        if check_mode {
            let report = check(&stored, &sweep.baseline());
            if report.passed() {
                println!("\nbench-check OK: no series regressed beyond 25%");
            } else {
                print!("\n{}", report.summary());
                println!("bench-check FAILED: {}", report.failure_counts());
                std::process::exit(1);
            }
        }
    } else if sweep.filter.is_some() {
        println!(
            "\nfiltered run ({} record(s)); {HISTORY} left untouched",
            sweep.records.len()
        );
    } else {
        History::append_to(path, &sweep.records).unwrap_or_else(|e| fail(e, 1));
        println!(
            "\nappended {} record(s) to {HISTORY} as generation {} ({SCENARIO})",
            sweep.records.len(),
            sweep.generation
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(pairs: &[(&str, f64)]) -> Baseline {
        let mut b = Baseline::new("test");
        for &(key, ms) in pairs {
            b.record(key, ms).unwrap();
        }
        b
    }

    #[test]
    fn check_fails_a_slowdown_beyond_25_percent() {
        let stored = baseline(&[("bench/matmul/256/median_ms", 0.6)]);
        let report = check(&stored, &baseline(&[("bench/matmul/256/median_ms", 0.78)]));
        assert!(!report.passed(), "{}", report.summary());
        assert_eq!(report.failure_counts(), "1 regressed, 0 missing");
        // Within the band passes.
        let report = check(&stored, &baseline(&[("bench/matmul/256/median_ms", 0.72)]));
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn check_exempts_series_stored_under_the_jitter_floor() {
        let stored = baseline(&[("bench/sum_axis0/128x1024/median_ms", 0.02)]);
        // 3x slower, but stored under 0.25 ms: not compared at all.
        let report = check(
            &stored,
            &baseline(&[("bench/sum_axis0/128x1024/median_ms", 0.06)]),
        );
        assert!(report.passed(), "{}", report.summary());
        assert!(report.findings.is_empty());
        // Even when the run no longer produces it.
        assert!(check(&stored, &baseline(&[])).passed());
    }

    #[test]
    fn check_fails_a_stored_series_the_run_no_longer_produces() {
        let stored = baseline(&[
            ("bench/matmul/256/median_ms", 0.6),
            ("bench/conv2d/stem/median_ms", 30.0),
        ]);
        let fresh = baseline(&[
            ("bench/matmul/256/median_ms", 0.6),
            ("bench/bpe_train/v512/median_ms", 9.0),
        ]);
        let report = check(&stored, &fresh);
        assert!(!report.passed());
        assert_eq!(report.failure_counts(), "0 regressed, 1 missing");
        // The new series passes as `New`.
        assert!(report
            .findings
            .iter()
            .any(|f| f.key.starts_with("bench/bpe_train")
                && f.change == caraml::continuous::Verdict::New));
    }

    #[test]
    fn fresh_records_key_series_by_arm_like_the_store() {
        let mut sweep = Sweep::new(7, "rev".into(), None);
        sweep.case("noop", "1").samples(1).time(|| {});
        sweep.on_each_arm(|s| s.case("noop", "1").samples(1).time(|| {}));
        let fresh = sweep.baseline();
        assert!(fresh.metrics.contains_key("bench/noop/1/median_ms"));
        assert!(fresh.metrics.contains_key("bench/noop/1/median_ms@scalar"));
        assert_eq!(sweep.records[0].generation, 7);
        assert_eq!(sweep.records[0].scenario, SCENARIO);
    }
}
