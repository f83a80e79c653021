import gc
import json

import numpy as np
import pytest

from dynrmat.builder import build
from dynrmat.params import BlockConstants, ClassificationParams, normalize_f
from dynrmat.partition import DeltaClass, IndexPartition
from dynrmat.rmatrix import DynamicalRMatrix, raw_tables
from dynrmat.serialize import params_to_json


def golden_datum():
    """Reference n=4 datum: one block, one exchange class, two free indices
    and one two-element d-class, zero sum constant, unit determinant
    constant, signs (+1, +1, -1), all position constants 0, trivial 2-form.
    """
    p = IndexPartition(
        n=4, blocks=((DeltaClass(free=(1, 2), d_classes=((3, 4),)),),)
    )
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(0j, 1 + 0j),),
        signs={(1,): 1, (2,): 1, (3, 4): -1},
        f_consts={(1,): 0j, (2,): 0j, (3, 4): 0j},
    )
    c, _ = normalize_f(c)
    return p, c


def golden_expected_tables(lam: np.ndarray):
    """Closed-form coefficient tables of the golden datum, written out by
    hand: exchange entries are reciprocals of signed partial sums of lam,
    diagonal entries are 1 minus the exchange entry on coupled pairs and 0
    inside the d-class {3, 4}.
    """
    l1, l2, l3, l4 = lam
    delta = np.zeros((4, 4), dtype=complex)
    delta[0, 0] = delta[1, 1] = 1
    delta[2, 2] = delta[3, 3] = -1
    delta[2, 3] = delta[3, 2] = -1
    delta[0, 1] = 1 / (l1 - l2)
    delta[1, 0] = -delta[0, 1]
    for j in (3, 4):
        delta[0, j - 1] = 1 / (l1 + l3 + l4)
        delta[1, j - 1] = 1 / (l2 + l3 + l4)
        delta[j - 1, 0] = -delta[0, j - 1]
        delta[j - 1, 1] = -delta[1, j - 1]
    d = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if i != j and not {i, j} == {2, 3}:
                d[i, j] = 1 - delta[i, j]
    return delta, d


def off_pattern(M: np.ndarray, n: int) -> np.ndarray:
    """The entries of a dense n^2 x n^2 matrix outside the two zero-weight
    patterns, row (i, j) with col (j, i) and row (i, j) with col (i, j)."""
    mask = np.ones((n * n, n * n), dtype=bool)
    for i in range(n):
        for j in range(n):
            mask[i * n + j, j * n + i] = mask[i * n + j, i * n + j] = False
    return M[mask]


def overflow_datum():
    """One trigonometric block with exchange classes {1, 2, (3,4)} and {5}
    whose log ratio has |Re A| > 2, so that e^{A x} overflows once |x|
    reaches a few hundred (at lam = (400, -400, 0, 0, 0), first for the
    pair (2,1))."""
    p = IndexPartition(n=5, blocks=((
        DeltaClass(free=(1, 2), d_classes=((3, 4),)),
        DeltaClass(free=(5,)),
    ),))
    c = ClassificationParams(
        partition=p,
        per_block=(BlockConstants(1 + 0j, 0.1 + 0j),),
        signs={(1,): 1, (2,): 1, (3, 4): 1, (5,): 1},
        f_consts={(1,): 1 + 0j, (2,): 0.8 + 0.1j, (3, 4): 1.2 - 0.3j, (5,): 1 + 0j},
    )
    c, _ = normalize_f(c)
    return p, c


def varied_golden(delta_pairs=(), d_pairs=()):
    """The golden matrix with the exchange entries at ``delta_pairs`` and
    the diagonal entries at ``d_pairs`` (ordered pairs, 1-based) multiplied
    by 1 + 0.3 lam_1: a non-member whose zero pattern is the golden one."""
    R = build(*golden_datum())

    def varied(field, pairs):
        def coeff(i, j, lam):
            v = field(i, j, lam)
            return v * (1 + 0.3 * lam[0]) if (i, j) in pairs else v
        return coeff

    return DynamicalRMatrix(n=4, delta=varied(R.delta, delta_pairs), d=varied(R.d, d_pairs))


def relabelled(R, order):
    """R with its indices relabelled: new index a + 1 is R's index
    ``order[a] + 1``."""
    def tables(lams):
        old = np.empty_like(lams)
        old[:, order] = lams
        return tuple(t[:, order][:, :, order] for t in raw_tables(R, old))

    return DynamicalRMatrix.from_tables(R.n, tables)


def zero_residual_config() -> dict:
    """An n=2 datum config of two single-index blocks: constant
    coefficients, every residual of the shifted relation exactly 0."""
    return {
        "kind": "datum",
        "partition": {"n": 2, "blocks": [[{"free": [1], "d_classes": []}],
                                         [{"free": [2], "d_classes": []}]]},
        "per_block": [{"S": {"re": 0, "im": 0}, "Sigma": {"re": 1, "im": 0}},
                      {"S": {"re": 0, "im": 0}, "Sigma": {"re": 2, "im": 0}}],
        "cross_sigma": [[0, 1, {"re": 1.5, "im": 0}]],
        "signs": {"1": 1, "2": 1},
        "f": {"1": {"re": 0, "im": 0}, "2": {"re": 0, "im": 0}},
        "two_form": {"type": "trivial"},
    }


@pytest.fixture
def golden():
    p, c = golden_datum()
    return p, c, build(p, c)


@pytest.fixture
def golden_config(tmp_path):
    _, c = golden_datum()
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(params_to_json(c)))
    return str(path)


def random_points(rng: np.random.Generator, n: int, count: int, box: float = 2.0):
    return [
        rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n)
        for _ in range(count)
    ]


def assert_no_cyclic_garbage(operation) -> None:
    """Run ``operation()`` with the garbage collector off, drop its result,
    and assert that nothing it made waits for the collector: every object
    is freed by reference counting, so no reference cycle is left."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    before = len(gc.garbage)
    try:
        operation()
        gc.collect()
        left = gc.garbage[before:]
        kinds = sorted({type(obj).__name__ for obj in left})
        count = len(left)
        del left
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        if enabled:
            gc.enable()
    assert count == 0, f"{count} objects in reference cycles: {kinds}"
