"""Dynamic int8 quantization: smaller checkpoints, near-identical output.

Weights are quantized per tensor once; activations get fresh scale and
zero point per call.  The demo shows the size ledger, the output drift,
and the speed of the float model next to the int8 model with and
without prepacked weight operands.  numpy has no int8 GEMM, so the int8
model runs float BLAS on integer codes and adds the quantization passes,
in float32: it is smaller than the float model, not faster.  On a 2-core
x86 host with OpenBLAS's default threads the prepacked int8 model took
1.18-1.25x the float model's time.
"""

import time

import numpy as np

from smallwav import (
    AcousticModel,
    ModelConfig,
    SynthSpec,
    generate_dataset,
    model_size_bytes,
    prepack,
    quantize_model,
)
from smallwav.quantize import quantize_weights, quantized_checkpoint_bytes

cfg = ModelConfig(
    conv_layers=((256, 16, 8),),
    d_model=256,
    n_transformer_layers=2,
    n_heads=4,
    ffn_dim=1024,
    max_frames=16,
)
model = AcousticModel.init(cfg, seed=5)
qmodel = quantize_model(model)

print("== one weight matrix up close ==")
w = model.named_params()[3][1].data[:3, :4]
codes, params = quantize_weights(w)
print("float   :", np.array2string(w, precision=4))
print("int8    :", codes)
print(f"scale   : {params.scale:.6g} (symmetric, zero_point={params.zero_point})")
print("restored:", np.array2string(params.dequantize(codes), precision=4))

print()
print("== the size ledger ==")
fbytes = model_size_bytes(model)
qbytes = model_size_bytes(qmodel)
print(f"float checkpoint : {fbytes:9d} bytes")
print(f"int8  checkpoint : {qbytes:9d} bytes  (= closed form {quantized_checkpoint_bytes(cfg)})")
print(f"ratio            : {qbytes / fbytes:.3f}")

print()
print("== output drift on random audio ==")
rng = np.random.default_rng(5)
drift = max(
    float(np.abs(model.infer(w_) - qmodel.infer(w_)).max())
    for w_ in (rng.standard_normal(64) for _ in range(5))
)
print(f"max |float logits - int8 logits| over 5 waves: {drift:.4f}")

print()
print("== speed: float, int8, prepacked int8 ==")
# The default model on the lab's utterances (23-93 frames), every model
# on the same waves, in interleaved rounds so host speed drift hits all
# three alike.
lab = AcousticModel.init(ModelConfig(), seed=5)
waves = [w_ for w_, _ in generate_dataset(SynthSpec(seed=5, n_utterances=60, noise_std=0.02))]
fresh, packed = quantize_model(lab), prepack(quantize_model(lab))
models = {"float": lab, "int8": fresh, "int8 prepacked": packed}


def batch(m):
    t0 = time.perf_counter()
    for w_ in waves:
        m.infer(w_)
    return time.perf_counter() - t0


for m in models.values():
    batch(m)
times = {name: [] for name in models}
for _ in range(5):
    for name, m in models.items():
        times[name].append(batch(m))
t_float = float(np.median(times["float"]))
for name in models:
    t = float(np.median(times[name]))
    print(f"{name:>15}: {t * 1e3:7.1f} ms for {len(waves)} waves, {t / t_float:.2f}x float's time")
print(f"operand unpacks: int8 {fresh.unpack_count()}, int8 prepacked {packed.unpack_count()}")
