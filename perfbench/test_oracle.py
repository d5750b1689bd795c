"""The benchmark's forward recursion against brute-force enumeration.

Run with ``python3 -m pytest perfbench``.  Every segmentation of a tiny
lattice is enumerated and its weight summed directly; the recursion
must agree, including ``kmin=1``, ``kmax > T`` and lattices that no
segmentation tiles.
"""

import itertools
import math

import numpy as np
import pytest

import oracle


def compositions(total, kmin, kmax):
    if total == 0:
        yield ()
        return
    for k in range(kmin, min(kmax, total) + 1):
        for rest in compositions(total - k, kmin, kmax):
            yield (k,) + rest


def brute_force(table, kmin, kmax, mean_length, log_trans):
    n_classes, _, n_frames = table.shape
    weights = []
    for lengths in compositions(n_frames, kmin, kmax):
        for labels in itertools.product(range(n_classes), repeat=len(lengths)):
            w, start, prev = 0.0, 0, None
            for k, c in zip(lengths, labels):
                w += oracle.duration_logpmf(k, mean_length)
                w += sum(table[c, j, start + j] for j in range(k))
                w += -math.log(n_classes) if prev is None else log_trans[prev, c]
                prev, start = c, start + k
            weights.append(w)
    if not weights:
        return -math.inf
    peak = max(weights)
    return peak + math.log(sum(math.exp(w - peak) for w in weights))


@pytest.mark.parametrize("n_frames,kmin,kmax,n_classes", [
    (1, 1, 1, 2),
    (5, 1, 2, 2),
    (6, 1, 6, 2),
    (4, 1, 10, 3),
    (7, 2, 3, 2),
    (8, 3, 4, 3),
    (6, 2, 9, 2),
    (9, 3, 5, 2),
])
def test_recursion_matches_enumeration(n_frames, kmin, kmax, n_classes):
    rng = np.random.default_rng(n_frames * 100 + kmin * 10 + kmax)
    table = rng.normal(-1.0, 1.5, size=(n_classes, min(kmax, n_frames), n_frames))
    log_trans = oracle.log_transition(rng.integers(0, 5, size=(n_classes, n_classes)), 0.7)
    want = brute_force(table, kmin, kmax, 2.5, log_trans)
    got = oracle.hsmm_loglik(table, kmin, kmax, 2.5, log_trans)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_untileable_lattice_has_no_mass():
    table = np.zeros((2, 4, 5))
    log_trans = oracle.log_transition(np.zeros((2, 2)), 1.0)
    assert brute_force(table, 3, 4, 3.0, log_trans) == -math.inf
    assert oracle.hsmm_loglik(table, 3, 4, 3.0, log_trans) == -math.inf
