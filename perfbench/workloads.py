"""The four workloads: set-up, one timed operation, and output checks.

Every workload is closed-loop with one client: the next operation starts
when the previous one returns.  Inputs are synthesized from the seed on
the lab's default traffic (3-6 tones, words of 1-3 tones, noise 0.02),
so utterances run 23-93 frames and latency varies with length.  Each
operation takes fresh utterances from a seeded pool, so a run covers
hundreds of lengths and its figures do not hang on a few draws.

Model weights come from ``AcousticModel.init`` with a fixed seed, the
4-layer default config and its ``alternating(2)`` student.  Compute does
not depend on weight values, so no teacher is trained.  The weights and
the training order use a fixed seed, so the int8 decode agreement
belongs to the model, not to the workload seed.  The training losses
are scored on calls with fixed data, for the same reason.
"""

from __future__ import annotations

import importlib

import numpy as np

import oracle

MODEL_SEED = 0
NOISE_STD = 0.02
INFER_POOL = 2048
INFER_CHECKED = 512
# One training call is the lab's recipe shrunk sixteenfold in data, not
# in epochs: the recipe distills on 160 train and 16 val utterances for
# 12 epochs and trains the teacher for 22 epochs with a 3-epoch warmup
# (README, config.DRIVER_DEFAULTS).  Ten train and one val utterance
# keep its 10:1 ratio, so repeat teacher forwards weigh as in the recipe.
TRAIN_UTTS = 10
VAL_UTTS = 1
TRAIN_CALLS = 64
DISTILL_EPOCHS = 12
TEACHER_EPOCHS = 22
TEACHER_WARMUP = 3
# Training calls whose last validation loss is scored, run untimed
# after the timed loop on data from REFERENCE_SEED.  On calls this small
# the loss swings with the data (a call leaves the blank plateau or does
# not), so seed-drawn data would make it a property of the draw.
REFERENCE_CALLS = 2
REFERENCE_SEED = 123_456

# Largest tolerated |logit - oracle| as a share of the oracle's largest
# |logit|.  Float32 against float64 measures about 1e-6.  The int8 bound
# is three times the largest int8 error seen over 600 utterances (0.044).
FLOAT_TOL = 1e-3
INT8_TOL = 0.15


class CheckError(AssertionError):
    """The program returned a wrong output."""


def _mod(name):
    return importlib.import_module(f"smallwav.{name}")


def _close(logits, ref, tol, what):
    err = float(np.max(np.abs(logits - ref)))
    limit = tol * max(1.0, float(np.max(np.abs(ref))))
    if not err <= limit:
        raise CheckError(f"{what}: logits differ from the float64 oracle by {err:.3g} > {limit:.3g}")


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(v)) for v in values)


def _spec(seed, n):
    data = _mod("data")
    return data.SynthSpec(seed=seed, n_utterances=n, noise_std=NOISE_STD)


def _deal(utterances, per_call, rng) -> list:
    """Split into groups of per_call, one utterance from each length stratum.

    Every call then carries the same mix of lengths, so call-to-call
    time differences come from the machine, not from the draw.
    """
    by_length = sorted(range(len(utterances)), key=lambda i: len(utterances[i][0]))
    strata = np.array(by_length).reshape(per_call, -1)
    for row in strata:
        rng.shuffle(row)
    return [[utterances[i] for i in strata[:, j]] for j in range(strata.shape[1])]


def _calls(seed, n) -> list:
    """n training calls of (train, val) utterances drawn from seed."""
    pool = _mod("data").generate_dataset(_spec(seed, n * (TRAIN_UTTS + VAL_UTTS)))
    rng = np.random.default_rng(seed)
    split = n * TRAIN_UTTS
    return list(zip(_deal(pool[:split], TRAIN_UTTS, rng), _deal(pool[split:], VAL_UTTS, rng)))


def _models():
    model = _mod("model")
    teacher = model.AcousticModel.init(model.ModelConfig(), seed=MODEL_SEED)
    student = model.init_student(teacher, model.LayerSelection.alternating(2))
    return teacher, student


class Workload:
    """Shared bookkeeping.  Subclasses define build, warm, op, steps,
    finite and check."""

    # About the operations a second on a 2-core x86 box.  It sizes the
    # traced run's work from --seconds alone, not from program speed, so
    # per-layer call counts repeat exactly for a seed.
    nominal_ops_per_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.match = 0
        self.compared = 0
        self.losses = []

    def metrics(self) -> dict:
        # Scored first: training workloads check more decodes there.
        loss = float(np.mean(self.scored_losses()))
        return {
            "model_bytes": (sum(_mod("quantize").model_size_bytes(m) for m in self.models), "B"),
            "decode_match_pct": (100.0 * self.match / self.compared, "%"),
            "final_val_loss": (loss, "nats"),
        }

    def setup(self) -> None:
        """Build the inputs and models, then warm every code path once."""
        self.build()
        self.warm()

    def unpack_count(self) -> int:
        return 0

    def scored_losses(self) -> list:
        return self.losses

    def trace_instances(self, tracer) -> None:
        pass

    def finish(self) -> None:
        pass

    def _score(self, logits, hyp, ref, tol, what):
        """Check logits against the oracle's; count a matching decode."""
        _close(logits, ref, tol, what)
        self.compared += 1
        self.match += hyp == oracle.decode(ref)


class Infer(Workload):
    """One operation: one utterance through teacher and student, each
    forward plus best-path decode.  A step is one utterance."""

    int8 = False

    def build(self) -> None:
        data, quantize = _mod("data"), _mod("quantize")
        self.pool = data.generate_dataset(_spec(self.seed, INFER_POOL))
        self.float_models = _models()
        if self.int8:
            self.models = [quantize.prepack(quantize.quantize_model(m)) for m in self.float_models]
        else:
            self.models = list(self.float_models)
        self.kept = []

    def warm(self) -> None:
        for wave, _ in self.pool[:8]:
            for m in self.models:
                _mod("decode").best_path_decode(m.infer(wave))

    def op(self, i):
        decode = _mod("decode")
        wave = self.pool[i % INFER_POOL][0]
        out = []
        for m in self.models:
            logits = m.infer(wave)
            out.append((logits, decode.best_path_decode(logits)))
        return out

    def steps(self, out) -> int:
        return 1

    def finite(self, out) -> bool:
        return _finite(*(logits for logits, _ in out))

    def check(self, i, out) -> None:
        if len(self.kept) < INFER_CHECKED:
            self.kept.append((i, out))

    def finish(self) -> None:
        """Oracle-check the first utterances served, then score their loss."""
        ctc, tensor = _mod("ctc"), _mod("tensor")
        refs = [oracle.weights(m) for m in self.float_models]
        tol = INT8_TOL if self.int8 else FLOAT_TOL
        kind = "int8" if self.int8 else "float"
        for i, out in self.kept:
            wave, transcript = self.pool[i % INFER_POOL]
            for (logits, hyp), m, w in zip(out, self.float_models, refs):
                ref = oracle.forward(w, m.config, wave)
                self._score(logits, hyp, ref, tol, f"{kind} operation {i}")
                self.losses.append(ctc.ctc_loss(tensor.Tensor(logits), transcript).item())
        self.kept = []

    def unpack_count(self) -> int:
        return sum(m.unpack_count() for m in self.models) if self.int8 else 0


class InferFloat(Infer):
    nominal_ops_per_s = 150.0


class InferInt8(Infer):
    int8 = True
    nominal_ops_per_s = 90.0


class Training(Workload):
    """One operation: one end-to-end training call on fresh data,
    TRAIN_UTTS utterances for the recipe's epochs with VAL_UTTS for
    validation.  A step is one optimizer step; the call's own validation
    counts in its wall time.  Subclasses set epochs, warmup and lr, the
    DistillConfig learning-rate overrides."""

    lr = {}

    def build(self) -> None:
        self.calls = _calls(self.seed, TRAIN_CALLS)
        self.models = self.make_models()
        self.cfg = self.config(self.epochs, self.warmup)

    def config(self, epochs, warmup):
        return _mod("distill").DistillConfig(
            epochs=epochs, warmup_epochs=warmup, seed=MODEL_SEED, **self.lr
        )

    def warm(self) -> None:
        self.run(self.calls[0][0][:2], self.calls[0][1][:1], self.config(1, 0))

    def op(self, i):
        train, val = self.calls[i % len(self.calls)]
        model, rows = self.run(train, val, self.cfg)
        return model, rows, val

    def steps(self, out) -> int:
        return self.epochs * TRAIN_UTTS

    def check(self, i, out) -> None:
        model, rows, val = out
        if len(rows) != self.epochs:
            raise CheckError(f"call {i}: history has {len(rows)} rows, expected {self.epochs}")
        w = oracle.weights(model)
        for wave, _ in val:
            logits = model.infer(wave)
            hyp = _mod("decode").best_path_decode(logits)
            ref = oracle.forward(w, model.config, wave)
            self._score(logits, hyp, ref, FLOAT_TOL, f"call {i}")

    def scored_losses(self) -> list:
        """Train on the reference calls; check them; return their losses."""
        losses = []
        for k, (train, val) in enumerate(_calls(REFERENCE_SEED, REFERENCE_CALLS)):
            model, rows = self.run(train, val, self.cfg)
            out = (model, rows, val)
            if not self.finite(out):
                raise CheckError(f"reference call {k} returned non-finite losses")
            self.check(f"reference {k}", out)
            losses.append(self.val_loss(rows[-1]))
        return losses


class Distill(Training):
    # DistillConfig's defaults, which the recipe uses.
    epochs = DISTILL_EPOCHS
    warmup = 2
    nominal_ops_per_s = 0.8

    def make_models(self):
        return _models()

    def run(self, train, val, cfg):
        teacher, student = self.models
        best, history = _mod("distill").distill(teacher, student, train, val, cfg)
        return best, history.epochs

    def finite(self, out) -> bool:
        return _finite(*(
            (r.train_total, r.train_distill, r.train_feature, r.val_total, r.val_wer)
            for r in out[1]
        ))

    def val_loss(self, row) -> float:
        return row.val_total

    def trace_instances(self, tracer) -> None:
        tracer.wrap_instance("distill.teacher_forward", self.models[0], "forward")


class TrainCtc(Training):
    epochs = TEACHER_EPOCHS
    warmup = TEACHER_WARMUP
    lr = {"base_lr": 1e-4}
    nominal_ops_per_s = 0.3

    def make_models(self):
        """The model train_teacher starts from: same config, same seed."""
        model = _mod("model")
        return [model.AcousticModel.init(model.ModelConfig(), seed=MODEL_SEED)]

    def run(self, train, val, cfg):
        return _mod("bench").train_teacher(train, val, self.models[0].config, cfg)

    def finite(self, out) -> bool:
        return _finite(*((r.train_loss, r.val_loss, r.val_wer) for r in out[1]))

    def val_loss(self, row) -> float:
        return row.val_loss


WORKLOADS = {
    "infer_float": InferFloat,
    "infer_int8": InferInt8,
    "distill": Distill,
    "train_ctc": TrainCtc,
}
