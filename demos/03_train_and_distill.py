"""Train a small CTC teacher, then distill it into fewer layers.

Scaled down from the defaults so the whole story runs in about a
minute: a 2-layer teacher learns the task with CTC, then a 1-layer
student matches its per-frame distributions instead of the labels.
"""

from smallwav import (
    DistillConfig,
    LayerSelection,
    ModelConfig,
    SynthSpec,
    distill,
    eval_wer,
    generate_dataset,
    init_student,
    train_teacher,
)

cfg = ModelConfig(
    conv_layers=((16, 16, 4), (32, 8, 4)),
    d_model=32,
    n_transformer_layers=2,
    n_heads=2,
    ffn_dim=64,
)
train = generate_dataset(SynthSpec(seed=1, n_utterances=48, noise_std=0.02))
val = generate_dataset(SynthSpec(seed=2, n_utterances=8, noise_std=0.02))
eval_set = generate_dataset(SynthSpec(seed=3, n_utterances=16, noise_std=0.02))

print("== teacher: CTC on the labels ==")
teacher_cfg = DistillConfig(epochs=10, base_lr=2e-4, warmup_epochs=2, seed=1)
teacher, history = train_teacher(train, val, cfg, teacher_cfg)
for row in history[::3]:
    print(f"epoch {row.epoch:2d}  lr {row.lr:.2e}  "
          f"train {row.train_loss:7.3f}  val {row.val_loss:7.3f}  WER {row.val_wer:6.1f}%")
teacher_wer = eval_wer(teacher, eval_set)
print(f"teacher eval WER: {teacher_wer:.2f}%")

print()
print("== student: distill into 1 transformer layer ==")
student = init_student(teacher, LayerSelection.alternating(1))
best, dh = distill(teacher, student, train, val, DistillConfig(epochs=6, seed=1))
print(f"val objective {dh.initial_val_total:.3f} -> {dh.final().val_total:.3f}")
student_wer = eval_wer(best, eval_set)
print(f"student eval WER: {student_wer:.2f}%  "
      f"({best.count_params()} params vs teacher {teacher.count_params()})")

print()
print("== where the layers came from ==")
for sel in (LayerSelection.alternating(1), LayerSelection.last_k(1)):
    print(f"{sel.kind:>11}: teacher layers {sel.resolve(cfg.n_transformer_layers)}")
