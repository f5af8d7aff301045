//! `train`: the paper's two training workloads at laptop scale, run for
//! real on the CPU.
//!
//! GPT: `SyntheticCorpus` → `BpeTokenizer::train` → `TokenBatcher` →
//! `GptConfig::tiny` with Adam. ResNet: `SyntheticImages` →
//! `ImageBatcher` → `ResnetConfig::tiny` with SGD and momentum.

use crate::probe::{median, nproc, rayon_dispatch_us, secs};
use crate::trace::Tracer;
use crate::{Report, Section};
use caraml_data::{BpeTokenizer, ImageBatcher, SyntheticCorpus, SyntheticImages, TokenBatcher};
use caraml_models::{GptConfig, GptModel, ResnetConfig, ResnetModel};
use caraml_tensor::optim::{Adam, Optimizer, Sgd};
use caraml_tensor::Var;
use std::time::Instant;

const SEQ: usize = 32;
const GPT_BATCH: usize = 4;
const BPE_VOCAB: usize = 384;
const CLASSES: usize = 8;
const IMAGE: usize = 32;
const RESNET_BATCH: usize = 8;
const DATASET_IMAGES: u64 = 512;
/// Untimed steps per model before measuring: fills the workspace pool
/// and the rope table.
const WARMUP_STEPS: u64 = 5;
/// Fewest measured steps per model a run reports from.
const MIN_STEPS: usize = 10;

struct Gpt {
    model: GptModel,
    params: Vec<Var>,
    opt: Adam,
    batcher: TokenBatcher,
}

impl Gpt {
    fn new(seed: u64) -> Gpt {
        let text = SyntheticCorpus::new(seed, 80).text(24, 150);
        let tokenizer = BpeTokenizer::train(&text, BPE_VOCAB);
        let tokens = tokenizer.encode(&text);
        let model = GptModel::new(GptConfig::tiny(tokenizer.vocab_size(), SEQ), seed);
        Gpt {
            params: model.parameters(),
            model,
            opt: Adam::new(3e-3),
            batcher: TokenBatcher::new(tokens, SEQ, GPT_BATCH, seed),
        }
    }

    /// One training step; returns the loss before the update.
    fn step(&mut self, tr: &mut Tracer, step: u64) -> f32 {
        let open = tr.open("train.gpt_step", step);
        let (inputs, targets) = tr.scope("data.token_batch", step, || self.batcher.next_batch());
        let loss = tr.scope("models.gpt_forward", step, || {
            self.model.loss(&inputs, &targets)
        });
        let value = loss.value().item();
        tr.scope("tensor.gpt_backward", step, || loss.backward());
        tr.scope("tensor.adam_step", step, || self.opt.step(&self.params));
        drop(loss);
        tr.close(open);
        value
    }
}

struct Resnet {
    model: ResnetModel,
    params: Vec<Var>,
    opt: Sgd,
    batcher: ImageBatcher,
}

impl Resnet {
    fn new(seed: u64) -> Resnet {
        let model = ResnetModel::new(ResnetConfig::tiny(CLASSES, IMAGE), seed);
        let images = SyntheticImages::new(seed, CLASSES, 3, IMAGE, IMAGE);
        Resnet {
            params: model.parameters(),
            model,
            opt: Sgd::with_momentum(0.05, 0.9),
            batcher: ImageBatcher::new(images, DATASET_IMAGES, RESNET_BATCH, seed),
        }
    }

    fn step(&mut self, tr: &mut Tracer, step: u64) -> f32 {
        let open = tr.open("train.resnet_step", step);
        let (images, labels) = tr.scope("data.image_batch", step, || self.batcher.next_batch());
        let loss = tr.scope("models.resnet_forward", step, || {
            self.model.loss(&images, &labels)
        });
        let value = loss.value().item();
        tr.scope("tensor.resnet_backward", step, || loss.backward());
        tr.scope("tensor.sgd_step", step, || self.opt.step(&self.params));
        drop(loss);
        tr.close(open);
        value
    }
}

/// Loss is finite throughout and lower at the end than at the start.
fn check_losses(report: &mut Report, model: &str, losses: &[f32]) {
    report.attempted += losses.len() as u64;
    let finite = losses.iter().all(|l| l.is_finite());
    report.check(finite, || format!("{model}: non-finite loss"));
    let k = (losses.len() / 10).max(3);
    let mean = |xs: &[f32]| xs.iter().sum::<f32>() / xs.len() as f32;
    let (first, last) = (mean(&losses[..k]), mean(&losses[losses.len() - k..]));
    report.check(last < first, || {
        format!("{model}: loss did not fall ({first:.4} -> {last:.4})")
    });
}

/// Wall time of one step, in seconds, with its loss appended to `losses`.
fn timed(losses: &mut Vec<f32>, step: impl FnOnce(u64) -> f32) -> f64 {
    let t = Instant::now();
    losses.push(step(losses.len() as u64));
    secs(t)
}

/// The `train` section: both models, their losses and step times.
pub struct Train {
    gpt: Gpt,
    resnet: Resnet,
    /// A pool of `nproc` threads, for the traced run's parallel step.
    all_threads: rayon::ThreadPool,
    gpt_losses: Vec<f32>,
    resnet_losses: Vec<f32>,
    /// Step times, seconds, on the run's pool: untraced GPT steps, and
    /// ResNet steps (traced in a traced run, which reports no throughput).
    gpt_s: Vec<f64>,
    resnet_s: Vec<f64>,
    /// Traced GPT steps and GPT steps on `nproc` threads (traced run).
    gpt_traced_s: Vec<f64>,
    gpt_all_threads_s: Vec<f64>,
}

impl Train {
    /// Set-up: corpus, BPE training, tokenization and both models.
    pub fn new(seed: u64) -> Train {
        Train {
            gpt: Gpt::new(seed),
            resnet: Resnet::new(seed),
            all_threads: rayon::ThreadPoolBuilder::new()
                .num_threads(nproc())
                .build()
                .expect("rayon pool"),
            gpt_losses: Vec::new(),
            resnet_losses: Vec::new(),
            gpt_s: Vec::new(),
            resnet_s: Vec::new(),
            gpt_traced_s: Vec::new(),
            gpt_all_threads_s: Vec::new(),
        }
    }
}

impl Section for Train {
    /// Fills the workspace pool and the rope table.
    fn warm_up(&mut self, _report: &mut Report) {
        let mut off = Tracer::new(false);
        for _ in 0..WARMUP_STEPS {
            timed(&mut self.gpt_losses, |i| self.gpt.step(&mut off, i));
            timed(&mut self.resnet_losses, |i| self.resnet.step(&mut off, i));
        }
    }

    /// One GPT and one ResNet step. A traced run adds a traced GPT step
    /// and a GPT step on `nproc` threads, and traces the ResNet step.
    fn unit(&mut self, tr: &mut Tracer, _report: &mut Report) {
        let mut off = Tracer::new(false);
        let (gpt, resnet) = (&mut self.gpt, &mut self.resnet);
        let losses = &mut self.gpt_losses;
        self.gpt_s.push(timed(losses, |i| gpt.step(&mut off, i)));
        if tr.is_on() {
            self.gpt_traced_s.push(timed(losses, |i| gpt.step(tr, i)));
            let all = self
                .all_threads
                .install(|| timed(losses, |i| gpt.step(&mut off, i)));
            self.gpt_all_threads_s.push(all);
        }
        let resnet_tr = if tr.is_on() { tr } else { &mut off };
        self.resnet_s.push(timed(&mut self.resnet_losses, |i| {
            resnet.step(resnet_tr, i)
        }));
    }

    fn enough(&self, _own: bool) -> bool {
        self.gpt_s.len() >= MIN_STEPS
    }

    fn finish(&mut self, tr: &Tracer, report: &mut Report) {
        check_losses(report, "gpt", &self.gpt_losses);
        check_losses(report, "resnet", &self.resnet_losses);
        if !tr.is_on() {
            let tokens = (GPT_BATCH * SEQ) as f64;
            report.metric("train_gpt_tok_per_s", tokens / median(&self.gpt_s), "tok/s");
            let images = RESNET_BATCH as f64;
            report.metric(
                "train_resnet_img_per_s",
                images / median(&self.resnet_s),
                "img/s",
            );
            return;
        }
        let layer = |name: &str| median(&tr.durations_ms(name));
        report.metric("data.token_batch_ms", layer("data.token_batch"), "ms");
        report.metric("models.gpt_forward_ms", layer("models.gpt_forward"), "ms");
        report.metric("tensor.gpt_backward_ms", layer("tensor.gpt_backward"), "ms");
        report.metric("tensor.adam_step_ms", layer("tensor.adam_step"), "ms");
        report.metric(
            "train.gpt_unattributed_ms",
            median(&tr.self_ms("train.gpt_step")),
            "ms",
        );
        let dispatch_us = self.all_threads.install(|| rayon_dispatch_us(200));
        report.metric("rayon.dispatch_us", dispatch_us, "us");
        let (one_ms, all_ms) = (
            median(&self.gpt_s) * 1e3,
            median(&self.gpt_all_threads_s) * 1e3,
        );
        report.metric("rayon.gpt_step_1t_ms", one_ms, "ms");
        report.metric("rayon.gpt_step_nt_ms", all_ms, "ms");
        report.metric("rayon.gpt_parallel_speedup", one_ms / all_ms, "x");
        report.metric("data.image_batch_ms", layer("data.image_batch"), "ms");
        report.metric(
            "models.resnet_forward_ms",
            layer("models.resnet_forward"),
            "ms",
        );
        report.metric(
            "tensor.resnet_backward_ms",
            layer("tensor.resnet_backward"),
            "ms",
        );
        report.metric("tensor.sgd_step_ms", layer("tensor.sgd_step"), "ms");
        report.metric(
            "train.resnet_unattributed_ms",
            median(&tr.self_ms("train.resnet_step")),
            "ms",
        );
        let traced_ms = median(&self.gpt_traced_s) * 1e3;
        report.metric(
            "train.trace_overhead_pct",
            100.0 * (traced_ms / one_ms - 1.0),
            "%",
        );
    }
}
