"""The whole pipeline as a table: original, distilled, quantized.

A micro run of the benchmark driver: train a small teacher, distill a
student, quantize it, then measure size, latency and WER for all three.
Numbers here are toy scale; the shape of the table is the point.
"""

from smallwav import (
    DistillConfig,
    ModelConfig,
    SynthSpec,
    generate_dataset,
    run_compression_bench,
    run_tradeoff_sweep,
    train_teacher,
)

cfg = ModelConfig(
    conv_layers=((16, 16, 4), (32, 8, 4)),
    d_model=32,
    n_transformer_layers=3,
    n_heads=2,
    ffn_dim=64,
)
train = generate_dataset(SynthSpec(seed=1, n_utterances=32, noise_std=0.02))
val = generate_dataset(SynthSpec(seed=2, n_utterances=6, noise_std=0.02))
eval_set = generate_dataset(SynthSpec(seed=3, n_utterances=12, noise_std=0.02))

print("== training a 3-layer teacher ==")
teacher, history = train_teacher(
    train, val, cfg, DistillConfig(epochs=14, base_lr=2e-4, warmup_epochs=2, seed=1)
)
print(f"final val loss {history[-1].val_loss:.3f}, val WER {history[-1].val_wer:.1f}%")

print()
print("== original / distilled / quantized ==")
rows = run_compression_bench(
    teacher, DistillConfig(epochs=4, seed=1), student_layers=1,
    train=train, val=val, eval_set=eval_set,
)
print(f"{'model':>10} {'layers':>6} {'params':>8} {'bytes':>8} {'ms':>7} {'WER%':>7}")
for r in rows:
    print(f"{r.model:>10} {r.layers:>6} {r.params:>8} {r.bytes:>8} "
          f"{r.cpu_s * 1e3:>7.1f} {r.wer:>7.2f}")

print()
print("== depth sweep ==")
reports = run_tradeoff_sweep(
    teacher, [1, 2, 3], DistillConfig(epochs=3, seed=1), train, val, eval_set
)
for r in reports:
    print(f"{r.model:>10}: {r.cpu_s * 1e3:6.1f} ms, WER {r.wer:6.2f}%")
print()
print("The same table comes from the command line:")
print("  smallwav bench --config run.cfg --out results/")
