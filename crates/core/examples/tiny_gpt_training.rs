//! Train a *real* tiny GPT on synthetic OSCAR-like text, end to end:
//! corpus generation → BPE tokenizer training → next-token training with
//! Adam → greedy generation. This is the laptop-scale counterpart of the
//! paper's Megatron-LM workload, running on the workspace's own tensor
//! and autograd stack.

use caraml_data::{BpeTokenizer, SyntheticCorpus, TokenBatcher};
use caraml_models::{GptConfig, GptModel};
use caraml_tensor::optim::{Adam, Optimizer};

fn main() {
    // 1. Data: synthetic OSCAR-like corpus, GPT-2-style BPE tokenizer.
    let corpus = SyntheticCorpus::new(7, 120);
    let text = corpus.text(30, 220);
    let tokenizer = BpeTokenizer::train(&text, 512);
    println!(
        "corpus: {} chars; tokenizer: {} merges, {:.2} bytes/token",
        text.len(),
        tokenizer.num_merges(),
        tokenizer.compression_ratio(&text)
    );
    let tokens = tokenizer.encode(&text);

    // 2. Model: a 2-layer GPT with sequence length 32.
    let seq_len = 32;
    let config = GptConfig::tiny(tokenizer.vocab_size(), seq_len);
    let model = GptModel::new(config, 0);
    let params = model.parameters();
    println!("model: {} parameters", model.num_params());

    // 3. Training loop.
    let mut batcher = TokenBatcher::new(tokens, seq_len, 4, 0);
    let mut opt = Adam::new(2e-3);
    for step in 0..30 {
        let (inputs, targets) = batcher.next_batch();
        let loss = model.loss(&inputs, &targets);
        let value = loss.value().item();
        loss.backward();
        opt.step(&params);
        if step % 5 == 0 {
            println!("step {step:>3}: loss {value:.4}");
        }
    }

    // 4. Greedy generation from a prompt.
    let prompt = tokenizer.encode("Data model train");
    let generated = model.generate(&prompt, 12);
    println!("generated: {:?}", tokenizer.decode(&generated));
}
