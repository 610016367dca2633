"""smallwav benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload infer_float --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; smallwav is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics with nothing wrapped.  With ``--trace 1`` it runs a fixed amount
of work twice, first as shipped and then with every layer's public
functions wrapped from outside, and reports per-layer calls and self
time plus the tracing overhead.  Every metric is printed as
"name value unit"; the last line is one JSON object with the result.
Outputs are checked against a float64 oracle; a failed check prints
``"correct": false`` and exits 1.  See WORKLOADS.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, fixed before numpy loads its BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CHUNKS = 64
TRACE_BLOCKS = 16


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import smallwav from the checkout's src; return the import seconds."""
    src = ROOT / "src"
    if not (src / "smallwav" / "__init__.py").is_file():
        sys.exit(f"perfbench: no smallwav package under {src}")
    sys.path.insert(0, str(src))
    import smallwav  # noqa: F401

    return time.perf_counter() - T_START


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(wl, ops, seconds=math.inf, check=True) -> dict:
    """Closed loop over operation indices `ops`, up to `seconds` of timed work.

    With check=False the outputs are not checked, so a traced pass
    records only the program's own calls.
    """
    clock = time.perf_counter
    samples = []
    attempted = failed = 0
    busy = 0.0
    ops = iter(ops)
    while busy < seconds:
        i = next(ops, None)
        if i is None:
            break
        attempted += 1
        t0 = clock()
        try:
            out = wl.op(i)
        except ValueError as exc:  # ShapeError, NumericError, ConfigError
            busy += clock() - t0
            failed += 1
            print(f"perfbench: operation {i} failed: {exc!r}", file=sys.stderr)
            continue
        dt = clock() - t0
        busy += dt
        if not wl.finite(out):
            failed += 1
            print(f"perfbench: operation {i} returned non-finite values", file=sys.stderr)
            continue
        samples.append((dt, wl.steps(out)))
        if check:
            wl.check(i, out)
    return {"samples": samples, "attempted": attempted, "failed": failed, "busy": busy}


def end_to_end(import_s, setups, run, wl) -> dict:
    import numpy as np

    from workloads import CheckError

    if not run["samples"]:
        raise CheckError(f"none of {run['attempted']} operations succeeded")
    dts = np.array([dt for dt, _ in run["samples"]])
    steps = np.array([n for _, n in run["samples"]], dtype=np.float64)
    # Throughput per contiguous chunk, median over chunks: a burst of
    # load from outside the process spoils one chunk, not the figure.
    chunks = np.array_split(np.arange(dts.size), min(CHUNKS, dts.size))
    rate = np.median([steps[c].sum() / dts[c].sum() for c in chunks])
    per_step_ms = 1000.0 * dts / steps
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "utt_per_s": (float(rate), "1/s"),
        "utt_ms_p50": (float(np.percentile(per_step_ms, 50)), "ms"),
        "utt_ms_p95": (float(np.percentile(per_step_ms, 95)), "ms"),
        "setup_s": (import_s + float(np.median(setups)), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    out.update(wl.metrics())
    done = run["attempted"] - run["failed"]
    out["success_pct"] = (100.0 * done / run["attempted"], "%")
    return out


def setup_timed(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def timed_run(args, wl, setups) -> dict:
    """Measure for --seconds in SETUP_REPEATS segments.

    Between segments one more set-up is timed on a fresh instance, so
    the set-up figures sample the same stretch of machine time as the
    operations do, not just the first second of the process.  The
    segments end once the timed work reaches 1/SETUP_REPEATS, 2/... of
    --seconds, so an operation that overruns one segment shortens the
    next one, and long operations do not stretch the run.
    """
    ops = itertools.count()
    run = {"samples": [], "attempted": 0, "failed": 0, "busy": 0.0}
    for k in range(SETUP_REPEATS):
        if k:
            setups.append(setup_timed(type(wl)(args.seed)))
        target = args.seconds * (k + 1) / SETUP_REPEATS
        part = measure(wl, ops, seconds=target - run["busy"])
        run["busy"] += part["busy"]
        run["samples"] += part["samples"]
        run["attempted"] += part["attempted"]
        run["failed"] += part["failed"]
    return run


def per_layer(args, wl) -> tuple:
    """The same fixed work untraced and traced, block by block.

    Each block of operations runs once as shipped and once wrapped, in
    ABBA order, so drift in machine speed falls on both sides alike and
    the overhead figure measures the wrappers, not the drift.  Only the
    untraced pass checks outputs: the traced pass repeats the same
    operations, and checks run there would be counted as program calls.
    """
    import tracer

    n_ops = max(1, round(wl.nominal_ops_per_s * args.seconds / 4))
    size = -(-n_ops // TRACE_BLOCKS)
    tr = tracer.Tracer()
    tr.install()
    try:
        wl.build()
    finally:
        tr.uninstall()
    busy = {False: 0.0, True: 0.0}
    attempted = failed = n = 0
    for k, first in enumerate(range(0, n_ops, size)):
        ops = range(first, min(first + size, n_ops))
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                tr.install()
                wl.trace_instances(tr)
            try:
                run = measure(wl, ops, check=not traced)
            finally:
                tr.uninstall()
            busy[traced] += run["busy"]
            attempted += run["attempted"]
            failed += run["failed"]
            n += len(run["samples"]) if traced else 0
    wl.finish()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")

    out = {}
    stats = tr.per_name()
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    steps = stats["distill.adamw_step"][0]
    teacher = stats["distill.teacher_forward"][0]
    out["distill.teacher_forward_per_step"] = (teacher / steps if teacher else 0.0, "ratio")
    out["quantize.unpack_count"] = (wl.unpack_count(), "count")
    out["trace.overhead_pct"] = (100.0 * (busy[True] / busy[False] - 1.0), "%")
    return out, attempted, failed, n


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import workloads

    print("perfbench env " + json.dumps(environment(), sort_keys=True))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setups = [setup_timed(wl)]
    correct = True
    try:
        if args.trace:
            metrics, attempted, failed, n = per_layer(args, wl)
        else:
            run = timed_run(args, wl, setups)
            wl.finish()
            metrics = end_to_end(import_s, setups, run, wl)
            attempted, failed, n = run["attempted"], run["failed"], len(run["samples"])
        if wl.unpack_count() != 0:
            raise workloads.CheckError(f"unpack_count is {wl.unpack_count()} after prepack")
    except workloads.CheckError as exc:
        # The run is void: report no figures, only that it was wrong.
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, metrics, attempted, failed, n = False, {}, 1, 1, 0
    print(
        f"perfbench workload={args.workload} seed={args.seed} samples={n} "
        f"import_s={import_s:.4f} setup_runs_s={[round(s, 4) for s in setups]}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
