"""The tridiagonal eigensolvers against `scipy.linalg`, bit for bit.

scipy's own routines are the reference: the wrapper makes the LAPACK calls
they make, so every eigenvalue and eigenvector must be the same float."""

import importlib.machinery
import importlib.util

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from confluent_dbt import lapack


@st.composite
def tridiagonals(draw):
    """(d, e, k): a symmetric tridiagonal matrix of size 1 to 500 and a
    number of lowest levels, k = 1 and k = n drawn often."""
    n = draw(st.sampled_from([1, 2, 3]) | st.integers(4, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "split", "finite-difference", "clustered"]))
    d = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 6))
    e = rng.standard_normal(n - 1)
    if kind == "split":  # zero couplings: dstebz returns blocks, reordered
        e[rng.random(n - 1) < 0.2] = 0.0
    elif kind == "finite-difference":  # as `verify._fd_eigs` builds them
        d, e = 2.0 + 1e-3 * rng.random(n), np.full(n - 1, -1.0)
    elif kind == "clustered":
        d, e = np.ones(n), 1e-9 * rng.standard_normal(n - 1)
    k = draw(st.sampled_from([1, n]) | st.integers(1, n))
    return d, e, k


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=120, deadline=None)
@given(tridiagonals())
@example((np.array([2.5]), np.array([]), 1))
@example((np.array([1.0, -2.0]), np.array([0.5]), 1))
@example((np.array([1.0, -2.0]), np.array([0.5]), 2))
@example((np.array([3.0, 1.0, 2.0]), np.array([0.0, 1e-3]), 3))
def test_eigensolver_is_scipys_bit_for_bit(case):
    import scipy.linalg

    d, e, k = case
    w, v = lapack.eigh_tridiagonal(d, e)
    assert v is None
    assert_same(w, scipy.linalg.eigvalsh_tridiagonal(d, e))
    lowest = dict(select="i", select_range=(0, k - 1))
    w, v = lapack.eigh_tridiagonal(d, e, k)
    assert v is None
    assert_same(w, scipy.linalg.eigvalsh_tridiagonal(d, e, **lowest))
    w, v = lapack.eigh_tridiagonal(d, e, k, vectors=True)
    want_w, want_v = scipy.linalg.eigh_tridiagonal(d, e, **lowest)
    assert_same(w, want_w)
    assert_same(v, want_v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["d", "e"])
def test_nonfinite_entries_are_refused(bad, where):
    d, e = np.ones(4), np.full(3, 0.5)
    (d if where == "d" else e)[1] = bad
    for k, vectors in ((None, False), (2, False), (2, True)):
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            lapack.eigh_tridiagonal(d, e, k, vectors)


def test_missing_wrappers_name_the_path(monkeypatch, tmp_path):
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError) as exc:
        lapack._load_flapack()
    assert str(tmp_path / "linalg" / "_flapack") in str(exc.value)
