"""The package's public surface: the names README documents, and the
functions the benchmark's tracer wraps by name."""

import inspect
import re
import runpy
from importlib import import_module
from pathlib import Path

import labimpute

ROOT = Path(__file__).resolve().parents[1]

# Public names README does not name, each with the README-named call that
# returns, raises or takes it, directly or as a field of such a type.
_REACHED_THROUGH = {
    "ColumnSchema": "load_csv",            # takes a schema of them
    "SchemaError": "load_csv",             # raises it on an unknown category
    "MaskedMse": "masked_mse",             # returns it
    "InvariantError": "verify_theorem1",   # raises it when the identity fails
    "TheoremInstance": "verify_theorem1",  # takes it
    "TheoremReport": "verify_theorem1",    # returns it
    "ExperimentReport": "run_experiment",  # returns it
    "RunRecord": "run_experiment",         # ExperimentReport.records
    "AggregateRow": "run_experiment",      # ExperimentReport.aggregates
    "Scenario": "ExperimentConfig",        # its scenario field
    "IterationTrace": "impute",            # returns it, for either engine
    "SweepRecord": "impute",               # IterationTrace.sweeps
    "CbmiResult": "cbmi_predict",          # returns it
}


def _named(name: str, text: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(name)}(?!\w)", text) is not None


def _reaches(call: str, name: str) -> bool:
    """name is a word of the call's source, or of the source of a public
    type that the call's source names."""
    src = inspect.getsource(getattr(labimpute, call))
    types = [getattr(labimpute, t) for t in labimpute.__all__ if _named(t, src)]
    return _named(name, src) or any(
        _named(name, inspect.getsource(t)) for t in types if isinstance(t, type))


def test_every_public_name_is_documented_or_reached_through_a_documented_call():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    public = [n for n in labimpute.__all__ if not n.startswith("__")]
    assert set(_REACHED_THROUGH) <= set(public), "the table lists a name that is not public"
    for name in public:
        if _named(name, readme):
            continue
        call = _REACHED_THROUGH.get(name)
        assert call is not None, f"{name} is public, but README neither names it nor a call of it"
        assert _named(call, readme), f"{name} is reached through {call}, which README does not name"
        assert _reaches(call, name), f"{call} neither returns, raises nor takes {name}"


def test_tracer_targets_are_package_functions():
    # bench/tracer.py wraps labimpute.<layer>.<name> by name; a renamed
    # function would otherwise show up only as untraced in a benchmark run
    targets = runpy.run_path(str(ROOT / "bench" / "tracer.py"))["TARGETS"]
    for layer, names in targets.items():
        module = import_module(f"labimpute.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"labimpute.{layer}.{name}"
