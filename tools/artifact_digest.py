"""sha256 of every artifact the CLI pipeline writes, for comparing two trees.

Runs each subcommand in a fresh interpreter on the package under SRC, on
a fixed small config (40 training utterances, so train_teacher runs its
length curriculum and joins, and a 3-layer teacher), then prints one
``<sha256>  <file>`` line per artifact and one for the pipeline's stdout.

Wall-clock output is left out so that equal trees print equal lines: the
``cpu_s`` column is cut from bench.csv and sweep.csv, sweep_time.dat is
skipped, and every ``<number> ms`` in stdout is masked before hashing.

    python tools/artifact_digest.py path/to/checkout/src --threads 1 > a.txt
    python tools/artifact_digest.py other/checkout/src --threads 1 > b.txt
    diff a.txt b.txt

--threads pins the BLAS thread count of every subprocess (default 1).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
import time

CONFIG = """\
conv_layers = ((8, 6, 2), (16, 4, 2))
d_model = 16
n_transformer_layers = 3
n_heads = 2
ffn_dim = 32
n_utterances = 40
val_utterances = 8
eval_utterances = 8
tokens_per_utterance = (2, 3)
noise_std = 0.02
epochs = 3
warmup_epochs = 1
teacher_epochs = 16
teacher_warmup = 3
student_layers = 2
"""

PIPELINE = [
    ["gen-data"],
    ["train-teacher"],
    ["distill"],
    ["quantize"],
    ["prune"],
    ["eval"],
    ["eval", "--model", "{out}/model.swq8"],
    ["bench"],
    ["sweep-layers", "--layers", "1,2"],
    ["exp-init", "--k", "1"],
    ["exp-data", "--sizes", "20,40"],
]

TIMED_TABLES = ("bench.csv", "sweep.csv")
SKIPPED = ("sweep_time.dat",)
MS = re.compile(rb"\d+(?:\.\d+)? ms\b")


def without_column(text: bytes, column: str) -> bytes:
    """A CSV table's bytes with one named column removed."""
    rows = [line.split(b",") for line in text.split(b"\n")]
    drop = rows[0].index(column.encode())
    return b"\n".join(b",".join(r[:drop] + r[drop + 1 :]) if len(r) > drop else b"" for r in rows)


def run_pipeline(src: str, out: str, threads: int) -> bytes:
    """Each subcommand in its own interpreter; returns their stdout, joined."""
    cfg = os.path.join(os.path.dirname(out), "digest.cfg")
    with open(cfg, "w") as fh:
        fh.write(CONFIG)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    stdout = b""
    for step in PIPELINE:
        argv = [part.format(out=out) for part in step]
        cmd = [sys.executable, "-m", "smallwav", *argv, "--config", cfg, "--out", out]
        proc = subprocess.run(cmd, env=env, capture_output=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode())
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
        stdout += proc.stdout
    return stdout


def digests(out: str, stdout: bytes) -> list:
    lines = []
    for name in sorted(os.listdir(out)):
        if name in SKIPPED:
            continue
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name in TIMED_TABLES:
            data = without_column(data, "cpu_s")
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")
    lines.append(f"{hashlib.sha256(MS.sub(b'<ms> ms', stdout)).hexdigest()}  stdout")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", help="the checkout's src directory")
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads (default 1)")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        stdout = run_pipeline(args.src, out, args.threads)
        print("\n".join(digests(out, stdout)))
    print(f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
