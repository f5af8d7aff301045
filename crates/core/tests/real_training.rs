//! Integration tests of the *real* training stack: corpus → tokenizer →
//! GPT with autograd → Adam, and images → ResNet → SGD, plus Horovod-style
//! data-parallel training across threads with the ring all-reduce.

use caraml_data::{BpeTokenizer, SyntheticCorpus, SyntheticImages, TokenBatcher};
use caraml_models::{GptConfig, GptModel, ResnetConfig, ResnetModel};
use caraml_parallel::ThreadComm;
use caraml_tensor::optim::{Adam, Optimizer, Sgd};
use caraml_tensor::Tensor;
use std::sync::Arc;

#[test]
fn gpt_trains_on_tokenized_synthetic_oscar() {
    let corpus = SyntheticCorpus::new(3, 80);
    let text = corpus.text(20, 150);
    let tokenizer = BpeTokenizer::train(&text, 384);
    let tokens = tokenizer.encode(&text);
    assert!(tokens.len() > 500, "corpus too small: {}", tokens.len());

    let seq = 16;
    let model = GptModel::new(GptConfig::tiny(tokenizer.vocab_size(), seq), 0);
    let params = model.parameters();
    let mut opt = Adam::new(3e-3);
    let mut batcher = TokenBatcher::new(tokens, seq, 4, 0);

    let (first_in, first_tg) = batcher.next_batch();
    let initial = model.loss(&first_in, &first_tg).value().item();
    for _ in 0..25 {
        let (inputs, targets) = batcher.next_batch();
        let loss = model.loss(&inputs, &targets);
        loss.backward();
        opt.step(&params);
    }
    let final_loss = model.loss(&first_in, &first_tg).value().item();
    assert!(
        final_loss < initial * 0.85,
        "loss must fall: {initial:.3} -> {final_loss:.3}"
    );
}

#[test]
fn resnet_learns_synthetic_image_classes() {
    let model = ResnetModel::new(ResnetConfig::tiny(2, 16), 1);
    let params = model.parameters();
    let mut opt = Sgd::with_momentum(0.05, 0.9);
    let src = SyntheticImages::new(11, 2, 3, 16, 16);
    let (batch, labels) = src.batch(0, 16);
    for _ in 0..30 {
        let loss = model.loss(&batch, &labels);
        loss.backward();
        opt.step(&params);
    }
    assert!(model.accuracy(&batch, &labels) >= 0.8);
}

/// Data-parallel GPT training on 2 threads with gradient all-reduce must
/// match single-replica training on the combined batch (Horovod
/// semantics: averaging per-replica mean gradients of equal shards equals
/// the full-batch mean gradient).
#[test]
fn data_parallel_training_matches_single_replica() {
    const SEQ: usize = 8;
    const VOCAB: usize = 20;
    fn make_batch(rows: std::ops::Range<u32>) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let inputs: Vec<Vec<u32>> = rows
            .clone()
            .map(|r| (0..SEQ as u32).map(|i| (r + i) % VOCAB as u32).collect())
            .collect();
        let targets: Vec<Vec<u32>> = rows
            .map(|r| {
                (0..SEQ as u32)
                    .map(|i| (r + i + 1) % VOCAB as u32)
                    .collect()
            })
            .collect();
        (inputs, targets)
    }
    let (seq, vocab) = (SEQ, VOCAB);

    // Reference: one replica, batch of 4, 5 steps of plain SGD.
    let reference = {
        let model = GptModel::new(GptConfig::tiny(vocab, seq), 42);
        let params = model.parameters();
        let mut opt = Sgd::new(0.1);
        let (inputs, targets) = make_batch(0..4);
        for _ in 0..5 {
            model.loss(&inputs, &targets).backward();
            opt.step(&params);
        }
        params.iter().map(|p| p.value()).collect::<Vec<Tensor>>()
    };

    // Data parallel: 2 replicas × batch 2, all-reduced gradients.
    let comm = ThreadComm::new(2);
    let handles: Vec<_> = (0..2)
        .map(|rank| {
            let comm = Arc::clone(&comm);
            std::thread::spawn(move || {
                let model = GptModel::new(GptConfig::tiny(vocab, seq), 42);
                let params = model.parameters();
                let mut opt = Sgd::new(0.1);
                let (inputs, targets) = make_batch(rank * 2..rank * 2 + 2);
                for _ in 0..5 {
                    model.loss(&inputs, &targets).backward();
                    comm.allreduce_gradients(rank as usize, &params);
                    opt.step(&params);
                }
                params.iter().map(|p| p.value()).collect::<Vec<Tensor>>()
            })
        })
        .collect();
    let results: Vec<Vec<Tensor>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Both replicas end identical (same averaged gradients)…
    for (a, b) in results[0].iter().zip(&results[1]) {
        assert!(a.allclose(b, 1e-6), "replicas diverged");
    }
    // …and match the single-replica reference up to float tolerance.
    for (dp, single) in results[0].iter().zip(&reference) {
        assert!(
            dp.allclose(single, 2e-3),
            "dp vs single diverged: max diff {}",
            dp.max_abs_diff(single)
        );
    }
}

#[test]
fn tokenizer_round_trips_generated_text() {
    let corpus = SyntheticCorpus::new(9, 60);
    let train = corpus.text(10, 120);
    let tok = BpeTokenizer::train(&train, 400);
    // Round-trip an unseen document.
    let unseen = corpus.document(999, 80);
    assert_eq!(tok.decode(&tok.encode(&unseen)), unseen);
    // And compression helps on in-distribution text.
    assert!(tok.compression_ratio(&unseen) > 1.8);
}
