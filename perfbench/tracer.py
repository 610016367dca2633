"""Outside-in tracing: wrap smallwav's public functions, log spans in memory.

model.py, quantize.py, distill.py and bench.py bind what they call by
name (``from .tensor import gelu``), so a wrapper must replace every
module global that holds the function, not only the defining one.
Methods are wrapped on their class.  Nothing is wrapped until
``install`` runs, and ``uninstall`` puts every original back, so the
untimed and timed untraced passes run the program as shipped.

Each span is (id, parent id, name index, start, end).  A function's
self time is its spans' durations minus the durations of their direct
children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

import numpy as np

# (span name, defining module, attribute).  An attribute "Class.method"
# wraps the method on the class.  prune, config and cli are left out:
# one-shot bookkeeping with no hot loop.
TARGETS = (
    ("tensor.conv1d", "smallwav.tensor", "conv1d"),
    ("tensor.attention_core", "smallwav.tensor", "attention_core"),
    ("tensor.gelu", "smallwav.tensor", "gelu"),
    ("tensor.layer_norm", "smallwav.tensor", "layer_norm"),
    ("tensor.matmul", "smallwav.tensor", "matmul"),
    ("tensor.add", "smallwav.tensor", "add"),
    ("tensor.softmax", "smallwav.tensor", "softmax"),
    ("tensor.transpose", "smallwav.tensor", "transpose"),
    ("tensor.backward", "smallwav.tensor", "Tensor.backward"),
    ("model.forward", "smallwav.model", "AcousticModel.forward"),
    ("model.infer", "smallwav.model", "AcousticModel.infer"),
    ("model.init_student", "smallwav.model", "init_student"),
    ("quantize.qlinear_forward", "smallwav.quantize", "qlinear_forward"),
    ("quantize.dynamic_activation_params", "smallwav.quantize", "dynamic_activation_params"),
    ("quantize.infer", "smallwav.quantize", "QuantizedModel.infer"),
    ("quantize.quantize_model", "smallwav.quantize", "quantize_model"),
    ("quantize.prepack", "smallwav.quantize", "prepack"),
    ("decode.best_path_decode", "smallwav.decode", "best_path_decode"),
    ("decode.wer", "smallwav.decode", "wer"),
    ("ctc.ctc_loss", "smallwav.ctc", "ctc_loss"),
    ("distill.objective", "smallwav.distill", "objective"),
    ("distill.adamw_step", "smallwav.distill", "adamw_step"),
    ("distill.evaluate", "smallwav.distill", "evaluate"),
    ("data.generate_dataset", "smallwav.data", "generate_dataset"),
    ("bench.train_teacher", "smallwav.bench", "train_teacher"),
    ("bench.eval_wer", "smallwav.bench", "eval_wer"),
)

# Wrapped per instance by the workload that owns the instance.
INSTANCE_SPANS = ("distill.teacher_forward",)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + INSTANCE_SPANS

_ABSENT = object()


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def wrap(self, name: str, fn):
        index = self.names.index(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, index, t0, t1))

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every smallwav module that binds it."""
        # Not ``smallwav.distill``: on the package that name is the
        # re-exported function, which shadows the submodule.
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "smallwav" and not mod_name.startswith("smallwav."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def wrap_instance(self, name: str, obj, attr: str) -> None:
        self._set(obj, attr, self.wrap(name, getattr(obj, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def arrays(self) -> dict:
        """The span log as columns, in order of span end."""
        log = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {
            "id": log[:, 0].astype(np.int64),
            "parent": log[:, 1].astype(np.int64),
            "name": log[:, 2].astype(np.int64),
            "start": log[:, 3],
            "end": log[:, 4],
        }

    def per_name(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        n_ids = int(cols["id"].max()) + 1 if dur.size else 0
        child = np.zeros(n_ids)
        nested = cols["parent"] >= 0
        np.add.at(child, cols["parent"][nested], dur[nested])
        self_s = dur - child[cols["id"]]
        calls = np.bincount(cols["name"], minlength=len(self.names))
        busy = np.bincount(cols["name"], weights=self_s, minlength=len(self.names))
        return {n: (int(calls[i]), float(busy[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

