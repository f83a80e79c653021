"""The whole-stack statistics of the classifier and Hecke stages against
their per-entry oracles in ``classifier_oracle``: the same results bit for
bit, and the same first error, class and text."""

import numpy as np
import pytest

import classifier_oracle as oracle
from dynrmat import classifier, hecke
from dynrmat.builder import build
from dynrmat.classifier import classify, detect_relations, recover_params
from dynrmat.errors import AmbiguityError, NotInFamilyError
from dynrmat.hecke import hecke_classify
from dynrmat.rmatrix import DynamicalRMatrix, raw_tables
from dynrmat.sampling import random_datum
from dynrmat.verifier import sample_lambda

from conftest import golden_datum, relabelled, varied_golden


def _members():
    """Random members at n = 3..12 with each 2-form kind, relabelled away
    from the canonical labels at odd n."""
    rng = np.random.default_rng(23)
    for kind in ("trivial", "table", "exact"):
        for n in range(3, 13):
            R = build(*random_datum(n, np.random.default_rng(n), kind))
            yield relabelled(R, rng.permutation(n)) if n % 2 else R


def _altered(R, field, pairs, factor):
    """R with the entries of one table (0: Delta, 1: d) at the ordered
    ``pairs`` multiplied by ``factor(lams)``."""
    def tables(lams):
        out = [t.copy() for t in raw_tables(R, lams)]
        for i, j in pairs:
            out[field][:, i - 1, j - 1] *= factor(lams)
        return tuple(out)

    return DynamicalRMatrix.from_tables(R.n, tables)


def _varying(lams):
    return 1 + 0.3 * lams[:, 0]


def _zero(lams):
    return np.zeros(len(lams))


def _non_members():
    """Scaled-exchange, one-sided-diagonal and varying-pair-invariant
    non-members of random members at n = 4..8, each at a random pair where
    both the entry and its transpose are nonzero."""
    rng = np.random.default_rng(29)
    for n in range(4, 9):
        R = build(*random_datum(n, np.random.default_rng(100 + n), "trivial"))
        delta, d = R.tables(sample_lambda(R, rng, 1)[0])
        for field, factor in ((0, _varying), (1, _zero), (1, _varying)):
            table = (delta, d)[field]
            both = (np.abs(table) > 1e-3) & (np.abs(table.T) > 1e-3) & ~np.eye(n, dtype=bool)
            pairs = np.argwhere(both) + 1
            if len(pairs):
                i, j = pairs[rng.integers(len(pairs))].tolist()
                yield _altered(R, field, [(i, j)], factor)


def _outcome(run):
    """``run()``, or the class and text of the error it raises."""
    try:
        return run()
    except (NotInFamilyError, AmbiguityError) as exc:
        return type(exc).__name__, str(exc)


def _pipeline(R):
    """The keys of classify + recover_params and of hecke_classify, as
    exact reprs, or their first errors."""
    def structure_and_params():
        st = classify(R)
        c = recover_params(R, st)
        return repr((st.recovered_partition, sorted(st.index_permutation.items()), st.levels,
                     st.M_R.tolist(), c.per_block, sorted(c.cross_det.items()),
                     sorted(c.signs.items()), sorted(c.f_consts.items())))

    def spectrum():
        h = hecke_classify(R)
        return repr((h.kind, h.rho, h.kappa, h.evidence, h.lambda_samples, h.detail))

    return _outcome(structure_and_params), _outcome(spectrum)


def _oracle_pipeline(R, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(classifier, "detect_relations", oracle.detect_relations)
        m.setattr(classifier, "_pair_constants", oracle.pair_constants)
        m.setattr(hecke, "_planes", oracle.planes)
        return _pipeline(R)


def _relations(rel):
    return rel.delta_zero.tolist(), rel.d_zero.tolist(), rel.scale.hex()


def test_relations_equal_the_per_entry_oracle():
    # the larger tolerances make some entries ambiguous
    rng = np.random.default_rng(31)
    ambiguous = 0
    for R in _members():
        samples = sample_lambda(R, rng, 5, stencil=False)
        for tol in (1e-8, 1e-3, 1e-2):
            got = _outcome(lambda: _relations(detect_relations(R, samples, tol)))
            assert got == _outcome(lambda: _relations(oracle.detect_relations(R, samples, tol)))
            ambiguous += got[0] == "AmbiguityError"
    assert ambiguous


def test_members_equal_the_per_entry_oracles(monkeypatch):
    for R in _members():
        got = _pipeline(R)
        assert isinstance(got[0], str) and isinstance(got[1], str)
        assert got == _oracle_pipeline(R, monkeypatch)


def test_non_members_raise_the_first_error_of_the_per_entry_oracles(monkeypatch):
    errors = []
    for R in _non_members():
        got = _pipeline(R)
        assert got == _oracle_pipeline(R, monkeypatch)
        errors += [out[1] for out in got if isinstance(out, tuple)]
    for stage in ("vanishes but", "pair invariants of", "pair sum", "pair determinant"):
        assert any(stage in text for text in errors), stage


@pytest.mark.parametrize("R, messages", [
    # scaled exchange entries: the structure stands, the invariants vary
    (varied_golden(delta_pairs={(1, 2)}), (
        ("NotInFamilyError", "pair invariants of (1,2) vary across samples"),
        ("NotInFamilyError", "pair sum (1,2) varies with the dynamical point"))),
    # varying diagonal entries
    (varied_golden(d_pairs={(1, 3), (2, 4)}), (
        ("NotInFamilyError", "pair invariants of (1,3) vary across samples"),
        ("NotInFamilyError", "pair determinant (1,3) varies with the dynamical point"))),
    # d_13 vanishes on one side only
    (_altered(build(*golden_datum()), 1, [(1, 3)], _zero), (
        ("NotInFamilyError", "d_13 vanishes but d_31 does not: one-sided diagonal "
                             "vanishing is impossible in the solution family"),
        ("NotInFamilyError", "pair determinant (1,3) varies with the dynamical point"))),
])
def test_golden_non_members_name_the_oracles_first_error(R, messages, monkeypatch):
    assert _pipeline(R) == messages == _oracle_pipeline(R, monkeypatch)
