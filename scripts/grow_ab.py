#!/usr/bin/env python3
"""In-process A/B of the tree grower between two source trees.

    git archive HEAD~1 | tar -x -C ../base
    python3 scripts/grow_ab.py --base ../base --workload synth-missforest

The script captures the ``_Grower`` inputs of every forest fit in one pass
of a ``bench/workloads.py`` workload (for ``mice-predict``, whose pass grows
no trees, those of its set-up), run with the ``labimpute`` of this checkout
and one worker process.  It then loads ``src/labimpute/forest.py`` of the
base tree and of the new tree (this checkout unless ``--new`` names
another) as two modules, grows every captured fit with both, and stops with
an error unless every level array and every built node array is
byte-equal.  Last it times each side's fits (``_Grower.__init__``, every
batch's ``grow`` and ``_build``) over alternating rounds and prints the
median new/base time ratio and the rounds the new tree won.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from labimpute import forest  # noqa: E402


def _load(path: Path, name: str):
    """The file at `path` as the module `name`; a name under labimpute makes
    its relative imports resolve to this checkout's labimpute."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def capture(workload: str, seed: int) -> list:
    """(grower arguments, [(tree keys, bootstrap), ...], batch starts) of
    every fit in one pass of the workload."""
    workloads = _load(ROOT / "bench" / "workloads.py", "bench_workloads")
    fits, G = [], forest._Grower
    init, grow, build = G.__init__, G.grow, G._build

    def init_spy(self, *args):
        self._fit = ([np.array(a, copy=True) if isinstance(a, np.ndarray) else a
                      for a in args], [], [])
        fits.append(self._fit)
        init(self, *args)

    def grow_spy(self, tree_keys, bootstrap):
        self._fit[1].append((tree_keys.copy(), bootstrap))
        return grow(self, tree_keys, bootstrap)

    def build_spy(self, levels, firsts):
        self._fit[2].extend(firsts)
        return build(self, levels, firsts)

    G.__init__, G.grow, G._build = init_spy, grow_spy, build_spy
    try:
        with tempfile.TemporaryDirectory() as tmp:
            w = workloads.WORKLOADS[workload](False, Path(tmp))
            state = w.setup(seed)
            if workload == "iris-grid":
                w.run_pass(state, threads=1)
            elif workload == "synth-missforest":
                fits.clear()                  # the set-up fits no forest; keep the pass
                w.run_pass(state)
    finally:
        G.__init__, G.grow, G._build = init, grow, build
    return fits


def fit(module, args, calls, firsts):
    grower = module._Grower(*args)
    levels = []
    for keys, bootstrap in calls:
        levels += grower.grow(keys, bootstrap)
    return levels, grower._build(levels, firsts)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check(base, new, fits) -> int:
    """Exits unless both modules grow byte-equal levels and nodes; returns
    the number of levels compared."""
    n_levels = 0
    for i, f in enumerate(fits):
        (lv_a, nodes_a), (lv_b, nodes_b) = fit(base, *f), fit(new, *f)
        if len(lv_a) != len(lv_b):
            sys.exit(f"fit {i}: {len(lv_a)} levels against {len(lv_b)}")
        for d, (la, lb) in enumerate(zip(lv_a, lv_b)):
            for j, (a, b) in enumerate(zip(la, lb)):
                if not _same(a, b):
                    sys.exit(f"fit {i}, level {d}: array {j} differs")
        for key in nodes_a:
            if not _same(nodes_a[key], nodes_b[key]):
                sys.exit(f"fit {i}: node array {key} differs")
        n_levels += len(lv_a)
    return n_levels


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, required=True, help="root of the base source tree")
    p.add_argument("--new", type=Path, default=ROOT, help="root of the new source tree")
    p.add_argument("--workload", default="synth-missforest",
                   choices=("iris-grid", "synth-missforest", "mice-predict"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=12)
    args = p.parse_args(argv)

    fits = capture(args.workload, args.seed)
    base = _load(args.base / "src" / "labimpute" / "forest.py", "labimpute._forest_base")
    new = _load(args.new / "src" / "labimpute" / "forest.py", "labimpute._forest_new")
    n_levels = check(base, new, fits)
    print(f"{args.workload}: {len(fits)} fits, {n_levels} levels, every array byte-equal")

    ratios = []
    for r in range(args.rounds):       # fit by fit, so a slow spell hits both sides
        took = {base: 0.0, new: 0.0}
        for i, f in enumerate(fits):
            for side in ((base, new) if (r + i) % 2 == 0 else (new, base)):
                t0 = time.perf_counter()
                fit(side, *f)
                took[side] += time.perf_counter() - t0
        ratios.append(took[new] / took[base])
        print(f"round {r + 1}: base {took[base]:.3f} s, new {took[new]:.3f} s, "
              f"ratio {ratios[-1]:.4f}")
    wins = sum(x < 1.0 for x in ratios)
    print(f"median new/base {statistics.median(ratios):.4f} "
          f"({100 * (statistics.median(ratios) - 1):+.1f} %), new faster in "
          f"{wins}/{len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
