"""The comparison tools under ``tools/``, loaded by path as scripts are run."""

import numpy as np
import pytest

from helpers import load_tool


def test_relative_gap_has_an_absolute_floor():
    relative_gap = load_tool("compare_artifacts").relative_gap
    # round-off against an exact zero is small, not a relative gap of 1
    assert relative_gap(0.0, 7.1e-14) < 1e-13
    assert relative_gap("0.0,2.0", "7.1e-14,2.0") < 1e-13
    # above 1 the gap is relative to the larger magnitude
    assert relative_gap(100.0, 101.0) == 1.0 / 101.0
    assert relative_gap("a", 1.0) is None


def test_differences_within_the_tolerance_do_not_fail():
    tool = load_tool("compare_artifacts")

    def found(parent, change):
        return list(tool.differences(parent, change))

    # a float, and a line of floats, one ulp of round-off apart: shown, not failing
    (text, fails), = found({"loglik": -1234.5}, {"loglik": -1234.5000000000002})
    assert not fails and text.startswith("loglik: differs") and "within 1e-12" in text
    [(text, fails)] = found(["0.5,-2.25"], ["0.5,-2.2500000000000004"])
    assert not fails and text.startswith("line 1: differs")
    # a larger gap, any integer (labels, spans, counts) and anything non-numeric fail
    for parent, change in [({"x": 1.0}, {"x": 1.0 + 1e-9}),
                           ({"start": 10**13}, {"start": 10**13 + 1}),
                           (["3,1.5"], ["4,1.5"]), (["1e15"], ["1000000000000001"]),
                           ({"label": "a"}, {"label": "b"}), ({"x": 1.0}, {}),
                           (["1", "2"], ["1"])]:
        assert [fails for _, fails in found(parent, change)] == [True], (parent, change)


def test_lattice_gap_needs_equal_masks_spans_and_states():
    tool = load_tool("layer_timing")
    alpha = np.array([[-np.inf, -0.5], [-1.0, -2.0]])
    norm = np.array([-3.0, -400.0])
    spans, state = [[(0, 2, 1)]], {"state": 1}
    want = (alpha, norm, spans, state)
    assert tool.lattice_gap(want, want) == 0.0
    # log_alpha's gap is absolute, log_norm's relative to its magnitude
    assert tool.lattice_gap(want, (alpha + 1e-13, norm, spans, state)) == pytest.approx(1e-13)
    assert tool.lattice_gap(want, (alpha, norm * (1 + 1e-14), spans, state)) == \
        pytest.approx(1e-14, rel=1e-3)
    other_mask = alpha.copy()
    other_mask[0, 0] = -9.0
    for got in [(other_mask, norm, spans, state), (alpha, norm, [[(0, 2, 0)]], state),
                (alpha, norm, spans, {"state": 2}), ("infeasible", "no segmentation")]:
        assert tool.lattice_gap(want, got) is None
    error = ("infeasible", "no segmentation")
    assert tool.lattice_gap(error, error) == 0.0
    assert tool.lattice_gap(error, ("infeasible", "other")) is None
    assert tool.lattice_gap(error, want) is None
