"""The comparison tools under ``tools/``, loaded by path as scripts are run."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_relative_gap_has_an_absolute_floor():
    relative_gap = load_tool("compare_artifacts").relative_gap
    # round-off against an exact zero is small, not a relative gap of 1
    assert relative_gap(0.0, 7.1e-14) < 1e-13
    assert relative_gap("0.0,2.0", "7.1e-14,2.0") < 1e-13
    # above 1 the gap is relative to the larger magnitude
    assert relative_gap(100.0, 101.0) == 1.0 / 101.0
    assert relative_gap("a", 1.0) is None
