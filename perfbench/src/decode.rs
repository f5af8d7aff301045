//! `decode`: KV-cached greedy generation with `GptInfer::synthetic` at
//! f32, bf16 and int8, batch 1, at the 4-layer / hidden 1024 / vocab
//! 4096 shape — the same `tensor` matmul and quant layers as `train`,
//! but memory-bound at M=1 and with per-token KV work that grows with
//! the context.

use crate::probe::{median, nproc, quantile, secs, triad_gbps};
use crate::trace::Tracer;
use crate::{Report, Section};
use caraml_accel::Precision;
use caraml_models::{GptConfig, GptInfer};
use caraml_tensor::matmul::gemm_nt;
use caraml_tensor::quant::{linear_bf16, linear_i8, Bf16Tensor, QTensor};
use std::hint::black_box;
use std::time::Instant;

const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::Bf16, Precision::Int8];
const HIDDEN: usize = 1024;
const VOCAB: usize = 4096;
/// Context the generation runs through.
const CONTEXT: usize = 128;
const PROMPT: usize = 8;
/// Tokens one unit generates for one tier; units take the tiers in turn.
const SLICE: usize = 8;
/// Slices in a whole pass, prompt to context.
const PASS_SLICES: usize = (CONTEXT - PROMPT) / SLICE;
/// Leading greedy tokens of a pass whose hash is pinned on its own, so
/// that a run reaching only part of a pass is checked too.
const PINNED_PREFIX: usize = 32;
/// Tokens at each end of the context compared by `kv_growth_ms`.
const GROWTH_WINDOW: usize = 16;
/// Greedy tokens of the warm-up pass that every later pass must repeat.
const WARMUP_TOKENS: usize = 8;
/// Seed whose greedy tokens are pinned.
const PINNED_SEED: u64 = 42;
/// FNV-1a hashes of each tier's greedy tokens at `PINNED_SEED`: the
/// first `PINNED_PREFIX` tokens, and the whole
/// `CONTEXT - PROMPT`. The kernels round identically on both SIMD arms
/// of a host with FMA (`simd::fma_chains`), and the pins hold there.
const PINNED_TOKENS: [(u64, u64); 3] = [
    (0x287f_f736_61df_29b9, 0x18aa_0d5f_2539_df20),
    (0x287f_f736_61df_29b9, 0x9579_b7c7_81e0_9063),
    (0x287f_f736_61df_29b9, 0x9579_b7c7_81e0_9063),
];

fn config() -> GptConfig {
    GptConfig {
        name: "decode".into(),
        layers: 4,
        hidden: HIDDEN,
        heads: 16,
        seq_len: CONTEXT,
        vocab: VOCAB,
    }
}

fn prompt(seed: u64) -> Vec<u32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..PROMPT)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % VOCAB as u64) as u32
        })
        .collect()
}

/// FNV-1a over the tokens' little-endian bytes.
fn fnv1a(tokens: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in tokens.iter().flat_map(|t| t.to_le_bytes()) {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn argmax(xs: &[f32]) -> u32 {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best as u32
}

fn span_name(p: Precision) -> &'static str {
    match p {
        Precision::F32 => "decode.f32.token",
        Precision::Bf16 => "decode.bf16.token",
        Precision::Int8 => "decode.int8.token",
    }
}

/// One greedy generation pass of one tier.
struct Pass {
    tokens: Vec<u32>,
    /// Wall time of each generated token, ms.
    token_ms: Vec<f64>,
    /// Logits for the next position.
    logits: Vec<f32>,
    finite: bool,
}

impl Pass {
    /// Reset the cache and prefill the prompt.
    fn start(infer: &mut GptInfer, prompt: &[u32]) -> Pass {
        infer.reset();
        let logits = infer.prefill(prompt);
        Pass {
            tokens: Vec::new(),
            token_ms: Vec::new(),
            finite: logits.iter().all(|x| x.is_finite()),
            logits,
        }
    }

    /// Generate `n` more greedy tokens, one span per token.
    fn extend(&mut self, infer: &mut GptInfer, n: usize, tr: &mut Tracer) {
        let name = span_name(infer.precision());
        for _ in 0..n {
            let next = argmax(&self.logits);
            self.tokens.push(next);
            let step = infer.pos() as u64;
            let t = Instant::now();
            self.logits = tr.scope(name, step, || infer.decode_step(next));
            self.token_ms.push(secs(t) * 1e3);
            self.finite &= self.logits.iter().all(|x| x.is_finite());
        }
    }
}

/// GB/s of one M=1 projection, 1024 → 4096, at each precision, cycling
/// through enough weight matrices that they stream from memory.
fn linear_gbps(p: Precision) -> f64 {
    const MATS: usize = 8;
    let (k, n) = (HIDDEN, 4 * HIDDEN);
    let x: Vec<f32> = (0..k).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    let w: Vec<f32> = (0..n * k)
        .map(|i| ((i % 29) as f32 - 14.0) * 0.002)
        .collect();
    let mut out = vec![0.0f32; n];
    let mut rates = Vec::new();
    let mut time = |bytes: usize, f: &mut dyn FnMut(usize, &mut [f32])| {
        for rep in 0..6 * MATS {
            let t = Instant::now();
            f(rep % MATS, &mut out);
            let dt = secs(t);
            black_box(&mut out);
            if rep >= MATS {
                rates.push(bytes as f64 / dt / 1e9);
            }
        }
    };
    match p {
        Precision::F32 => {
            let mats: Vec<Vec<f32>> = (0..MATS).map(|_| w.clone()).collect();
            time(4 * n * k, &mut |i, out| gemm_nt(&x, &mats[i], out, 1, k, n));
        }
        Precision::Bf16 => {
            let mats: Vec<Bf16Tensor> = (0..MATS).map(|_| Bf16Tensor::from_f32(&w, n, k)).collect();
            let bytes = mats[0].storage_bytes();
            time(bytes, &mut |i, out| linear_bf16(&x, 1, &mats[i], None, out));
        }
        Precision::Int8 => {
            let mats: Vec<QTensor> = (0..MATS).map(|_| QTensor::quantize(&w, n, k)).collect();
            let bytes = mats[0].storage_bytes();
            time(bytes, &mut |i, out| linear_i8(&x, 1, &mats[i], None, out));
        }
    }
    median(&rates)
}

/// GB/s (int8 read + f32 written) of dequantizing one full-context
/// int8 KV cache, `CONTEXT` × hidden.
fn kv_dequant_gbps() -> f64 {
    let mut kv = QTensor::new(HIDDEN);
    for r in 0..CONTEXT {
        let row: Vec<f32> = (0..HIDDEN)
            .map(|c| ((r * 31 + c) % 97) as f32 * 0.01 - 0.5)
            .collect();
        kv.push_row(&row);
    }
    let mut dst = vec![0.0f32; CONTEXT * HIDDEN];
    let bytes = kv.storage_bytes() + 4 * dst.len();
    let rates: Vec<f64> = (0..400)
        .map(|_| {
            let t = Instant::now();
            kv.dequantize_into(&mut dst);
            let dt = secs(t);
            black_box(&mut dst);
            bytes as f64 / dt / 1e9
        })
        .collect();
    median(&rates[100..])
}

/// The `decode` section: one KV-cached model per precision tier.
pub struct Decode {
    seed: u64,
    prompt: Vec<u32>,
    infers: Vec<GptInfer>,
    /// Build (and quantization) time of each tier at set-up, seconds.
    build_s: Vec<f64>,
    /// Greedy tokens of each tier's warm-up pass.
    reference: Vec<Vec<u32>>,
    /// Passes per tier.
    passes: Vec<Vec<Pass>>,
    /// Units run so far; unit `k` serves tier `k % 3`.
    units: usize,
}

impl Decode {
    /// Set-up: build the synthetic weights of every tier, quantizing them
    /// for bf16 and int8.
    pub fn new(seed: u64) -> Decode {
        let mut build_s = Vec::with_capacity(PRECISIONS.len());
        let infers = PRECISIONS
            .iter()
            .map(|&p| {
                let t = Instant::now();
                let infer = GptInfer::synthetic(config(), seed, p);
                build_s.push(secs(t));
                infer
            })
            .collect();
        Decode {
            seed,
            prompt: prompt(seed),
            infers,
            build_s,
            reference: Vec::new(),
            passes: PRECISIONS.iter().map(|_| Vec::new()).collect(),
            units: 0,
        }
    }
}

impl Section for Decode {
    fn warm_up(&mut self, _report: &mut Report) {
        let mut off = Tracer::new(false);
        for infer in &mut self.infers {
            let mut pass = Pass::start(infer, &self.prompt);
            pass.extend(infer, WARMUP_TOKENS, &mut off);
            self.reference.push(pass.tokens);
        }
    }

    /// `SLICE` more tokens of one tier, tiers in turn, so that every
    /// tier samples the whole run alike. A tier starts a new pass once its
    /// last one has reached the context.
    fn unit(&mut self, tr: &mut Tracer, _report: &mut Report) {
        let tier = self.units % PRECISIONS.len();
        let infer = &mut self.infers[tier];
        let passes = &mut self.passes[tier];
        if passes
            .last()
            .is_none_or(|p| p.tokens.len() == CONTEXT - PROMPT)
        {
            passes.push(Pass::start(infer, &self.prompt));
        }
        passes
            .last_mut()
            .expect("pass started")
            .extend(infer, SLICE, tr);
        self.units += 1;
    }

    /// Every tier has run as many slices as the others and, on the
    /// workload's own section, has finished its last pass.
    fn enough(&self, own: bool) -> bool {
        let round = PRECISIONS.len() * if own { PASS_SLICES } else { 1 };
        self.units > 0 && self.units.is_multiple_of(round)
    }

    fn finish(&mut self, tr: &Tracer, report: &mut Report) {
        let pinned = self.seed == PINNED_SEED && caraml_tensor::simd::fma_chains();
        let short = PINNED_PREFIX;
        for (i, p) in PRECISIONS.iter().enumerate() {
            let tag = p.tag();
            // Every pass, and the warm-up pass, repeats the tier's longest
            // pass over their common length: full passes match whole.
            let longest = self.passes[i]
                .iter()
                .map(|s| &s.tokens)
                .max_by_key(|t| t.len())
                .unwrap_or(&self.reference[i]);
            for tokens in self.passes[i].iter().map(|s| &s.tokens) {
                report.check(*tokens == longest[..tokens.len()], || {
                    format!("{tag}: greedy tokens differ between passes")
                });
            }
            report.check(
                longest.len() >= WARMUP_TOKENS && longest[..WARMUP_TOKENS] == self.reference[i],
                || format!("{tag}: greedy tokens differ from the warm-up pass"),
            );
            for pass in &self.passes[i] {
                report.attempted += pass.tokens.len() as u64;
                report.check(pass.finite, || format!("{tag}: non-finite logits"));
            }
            let (pin_short, pin_full) = PINNED_TOKENS[i];
            let (hash_short, hash_full) = (
                (longest.len() >= short).then(|| fnv1a(&longest[..short])),
                (longest.len() == CONTEXT - PROMPT).then(|| fnv1a(longest)),
            );
            eprintln!(
                "decode {tag}: {} passes, greedy-token hashes {hash_short:x?} (first {short}), \
                 {hash_full:x?} (all)",
                self.passes[i].len()
            );
            report.check(!pinned || hash_short.is_none_or(|h| h == pin_short), || {
                format!("{tag}: first {short} greedy tokens differ from the seed-{PINNED_SEED} pin")
            });
            report.check(!pinned || hash_full.is_none_or(|h| h == pin_full), || {
                format!("{tag}: greedy tokens differ from the seed-{PINNED_SEED} pin")
            });
        }
        let all_ms = |i: usize| -> Vec<f64> {
            self.passes[i]
                .iter()
                .flat_map(|s| s.token_ms.iter().copied())
                .collect()
        };

        if !tr.is_on() {
            // Tokens per second at the median token time, so that a
            // token stalled by another process does not move the figure.
            for (i, p) in PRECISIONS.iter().enumerate() {
                let rate = 1e3 / median(&all_ms(i));
                report.metric(format!("decode_{}_tok_per_s", p.tag()), rate, "tok/s");
            }
            return;
        }

        let triad_1t = triad_gbps(1, 1 << 24, 5);
        let triad_nt = triad_gbps(nproc(), 1 << 24, 5);
        let ceiling = triad_1t.max(triad_nt);
        for (i, p) in PRECISIONS.iter().enumerate() {
            let tag = p.tag();
            let (mut early, mut late) = (Vec::new(), Vec::new());
            for pass in &self.passes[i] {
                let ms = &pass.token_ms;
                let window = GROWTH_WINDOW.min(ms.len() / 3);
                early.extend_from_slice(&ms[..window]);
                late.extend_from_slice(&ms[ms.len() - window..]);
            }
            let ms = all_ms(i);
            let p50 = median(&ms);
            let stream = self.infers[i].weight_bytes() as f64 / (p50 / 1e3) / 1e9;
            report.metric(format!("decode.{tag}.token_ms_p50"), p50, "ms");
            report.metric(
                format!("decode.{tag}.token_ms_p90"),
                quantile(&ms, 0.9),
                "ms",
            );
            report.metric(
                format!("decode.{tag}.kv_growth_ms"),
                median(&late) - median(&early),
                "ms",
            );
            report.metric(format!("decode.{tag}.weight_stream_gbps"), stream, "GB/s");
            report.metric(
                format!("decode.{tag}.pct_of_triad"),
                100.0 * stream / ceiling,
                "%",
            );
            report.metric(format!("tensor.linear_{tag}_gbps"), linear_gbps(*p), "GB/s");
            report.metric(format!("models.infer_build_{tag}_s"), self.build_s[i], "s");
        }
        report.metric("tensor.kv_dequant_gbps", kv_dequant_gbps(), "GB/s");
        report.metric("machine.triad_gbps_1t", triad_1t, "GB/s");
        report.metric("machine.triad_gbps_nt", triad_nt, "GB/s");
    }
}
