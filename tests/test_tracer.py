"""perfbench's tracer finds every span target it names in the package.

The tracer wraps functions and methods by name, so moving a traced
method off its class would break ``perfbench/run.py --trace 1``.  This
test loads the tracer from its file and installs it against the package.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    """What a target names now: a class's own method, or a module global."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, attr)


def _bindings():
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "smallwav" or name.startswith("smallwav.")
        for key, value in vars(mod).items()
    }


def test_every_trace_target_resolves_and_uninstalls():
    tracer_mod = _load_tracer()
    originals = {span: _resolve(mod, attr) for span, mod, attr in tracer_mod.TARGETS}
    before = _bindings()

    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for span, mod, attr in tracer_mod.TARGETS:
            wrapped = _resolve(mod, attr)
            assert wrapped is not originals[span], span
            assert wrapped.__wrapped__ is originals[span], span
    finally:
        tracer.uninstall()

    for span, mod, attr in tracer_mod.TARGETS:
        assert _resolve(mod, attr) is originals[span], span
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
