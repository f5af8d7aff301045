//! Steady-state allocation behaviour of warm training steps.
//!
//! The workspace pool exists so that a training loop stops paying the
//! allocator once shapes stabilise: step *N+1* draws every op output,
//! reduction partial and copy-on-write parameter buffer from the buffers
//! step *N* released. This test pins that contract end to end for both
//! paper workloads: after a short warm-up, further GPT and ResNet
//! training steps perform **zero** pool-eligible heap allocations (the
//! `allocations` counter stays flat while `reuses` keeps growing).
//!
//! It lives in its own integration-test binary — and runs both models in
//! one `#[test]` — because the workspace counters are process-global and
//! concurrent tests would pollute them.

use caraml_data::SyntheticImages;
use caraml_models::{GptConfig, GptModel, ResnetConfig, ResnetModel};
use caraml_tensor::attention;
use caraml_tensor::init::{randn, rng};
use caraml_tensor::optim::{Adam, Optimizer, Sgd};
use caraml_tensor::workspace;
use caraml_tensor::Var;

fn token_batch(vocab: usize, seq: usize, rows: usize) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let inputs: Vec<Vec<u32>> = (0..rows as u32)
        .map(|r| {
            (0..seq as u32)
                .map(|i| (r * 7 + i) % vocab as u32)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<u32>> = (0..rows as u32)
        .map(|r| {
            (0..seq as u32)
                .map(|i| (r * 7 + i + 1) % vocab as u32)
                .collect()
        })
        .collect();
    (inputs, targets)
}

#[test]
fn warm_training_steps_are_allocation_free() {
    // --- GPT (Adam) ---
    let (vocab, seq) = (96usize, 16usize);
    let model = GptModel::new(GptConfig::tiny(vocab, seq), 0);
    let params = model.parameters();
    let mut opt = Adam::new(1e-3);
    let (inputs, targets) = token_batch(vocab, seq, 2);
    for _ in 0..3 {
        model.loss(&inputs, &targets).backward();
        opt.step(&params);
    }
    let warm = workspace::global().stats();
    for _ in 0..5 {
        model.loss(&inputs, &targets).backward();
        opt.step(&params);
    }
    let after = workspace::global().stats();
    assert_eq!(
        after.allocations,
        warm.allocations,
        "warm GPT steps must draw every buffer from the pool \
         ({} fresh allocations after warm-up)",
        after.allocations - warm.allocations
    );
    assert!(
        after.reuses > warm.reuses,
        "warm GPT steps must keep hitting the pool"
    );

    // --- ResNet (momentum SGD) ---
    let model = ResnetModel::new(ResnetConfig::tiny(4, 16), 1);
    let params = model.parameters();
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let src = SyntheticImages::new(5, 4, 3, 16, 16);
    let (batch, labels) = src.batch(0, 4);
    for _ in 0..3 {
        model.loss(&batch, &labels).backward();
        opt.step(&params);
    }
    let warm = workspace::global().stats();
    for _ in 0..5 {
        model.loss(&batch, &labels).backward();
        opt.step(&params);
    }
    let after = workspace::global().stats();
    assert_eq!(
        after.allocations,
        warm.allocations,
        "warm ResNet steps must draw every buffer from the pool \
         ({} fresh allocations after warm-up)",
        after.allocations - warm.allocations
    );
    assert!(
        after.reuses > warm.reuses,
        "warm ResNet steps must keep hitting the pool"
    );

    // --- fused causal attention, forward + backward in isolation ---
    // The GPT section above already exercises it inside a full training
    // step; this pins the kernel's own contract (output, probability
    // cache, the three gradients and the backward's row scratch all come
    // from the pool once warm).
    let (bh, s, d) = (8usize, 16usize, 12usize);
    let q = Var::input(randn(&mut rng(40), [bh, s, d], 1.0));
    let k = Var::input(randn(&mut rng(41), [bh, s, d], 1.0));
    let v = Var::input(randn(&mut rng(42), [bh, s, d], 1.0));
    let step = || {
        let (out, probs) =
            attention::fused_causal_attention(&q.value(), &k.value(), &v.value(), 0.5);
        attention::fused_causal_attention_backward(
            &q.value(),
            &k.value(),
            &v.value(),
            &probs,
            &out,
            0.5,
        )
    };
    for _ in 0..3 {
        step();
    }
    let warm = workspace::global().stats();
    for _ in 0..5 {
        step();
    }
    let after = workspace::global().stats();
    assert_eq!(
        after.allocations,
        warm.allocations,
        "warm fused attention passes must draw every buffer from the pool \
         ({} fresh allocations after warm-up)",
        after.allocations - warm.allocations
    );
    assert!(
        after.reuses > warm.reuses,
        "warm fused attention passes must keep hitting the pool"
    );
}
