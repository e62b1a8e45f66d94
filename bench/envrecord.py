"""What a benchmark result is tied to: the behaviour lock and the machine.

The behaviour lock runs the bundled ``iris_experiment.json`` once through the
CLI and hashes its ``runs.csv``.  The digest pins the behaviour that produced
every number of the run; a changed digest is reported, not treated as a
failed run, because a change that alters it on purpose re-pins it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
from labimpute import cli

EXPECTED_RUNS_SHA256_PREFIX = "16de310041158e52"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def behaviour_lock(workdir: Path) -> dict:
    out = workdir / "lock"
    ref = resources.files("labimpute") / "_assets" / "iris_experiment.json"
    t0 = time.perf_counter()
    try:
        with resources.as_file(ref) as cfg, contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_main(["experiment", "--config", str(cfg), "--threads", "1",
                                 "--out-dir", str(out), "--formats", "csv"])
    except Exception as exc:  # reported as a failed lock run
        code = repr(exc)
    seconds = time.perf_counter() - t0
    runs = out / "runs.csv"
    digest = hashlib.sha256(runs.read_bytes()).hexdigest() if code == 0 else ""
    return {
        "config": "labimpute/_assets/iris_experiment.json",
        "exit_code": code,
        "runs_csv_sha256": digest,
        "expected_prefix": EXPECTED_RUNS_SHA256_PREFIX,
        "matches": digest.startswith(EXPECTED_RUNS_SHA256_PREFIX),
        "seconds": seconds,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        return {"name": "unknown"}
    return {k: deps.get(k) for k in ("name", "version", "openblas configuration")
            if deps.get(k)}


def environment(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
