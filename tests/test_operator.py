"""The structured operator against its own dense materialisation.

Every fast member (FFT matvec, O(n) norm, T. Chan circulant) is checked
against the dense matrix it stands for, on random columns and boundary
blocks, odd and even sizes, with and without boundary columns.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nldiff.operator import MAX_DENSE_SIZE, StructuredOperator, convolve, fast_length


def random_operator(size, rank, seed):
    rng = np.random.default_rng(seed)
    column = rng.standard_normal(size)
    boundary = rng.standard_normal((size, rank))
    return StructuredOperator(column, boundary)


def smooth_part(value):
    for prime in (2, 3, 5):
        while value % prime == 0:
            value //= prime
    return value


@pytest.mark.parametrize("size", [1, 2, 3, 7, 97, 1601, 3201, 12797, 19201])
def test_fast_length_is_the_smallest_five_smooth_bound(size):
    length = fast_length(size)
    assert length >= size and smooth_part(length) == 1
    assert all(smooth_part(k) != 1 for k in range(size, length))


def test_convolve_matches_numpy():
    rng = np.random.default_rng(1)
    kernel = rng.standard_normal(41)
    data = rng.standard_normal((2, 21))
    out = convolve(kernel, data)
    for row in range(2):
        np.testing.assert_allclose(out[row], np.convolve(kernel, data[row]), atol=1e-13)


@pytest.mark.parametrize("size", [2, 3, 7, 64, 65])
@pytest.mark.parametrize("rank", [0, 2])
class TestAgainstDense:
    def test_matvec(self, size, rank):
        op = random_operator(size, rank, seed=size + rank)
        x = np.random.default_rng(2).standard_normal((3, size))
        dense = op.dense()
        np.testing.assert_allclose(op.matvec(x), x @ dense.T, atol=1e-12)
        np.testing.assert_allclose(op.matvec(x[0]), dense @ x[0], atol=1e-12)

    def test_norm_inf(self, size, rank):
        op = random_operator(size, rank, seed=size + rank)
        want = np.abs(op.dense()).sum(axis=1).max()
        assert op.norm_inf() == pytest.approx(want, rel=1e-13)

    def test_dense_layout(self, size, rank):
        op = random_operator(size, rank, seed=size + rank)
        dense = op.dense()
        i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        want = op.column[np.abs(i - j)]
        if rank:
            want[:, 0] -= op.boundary[:, 0]
            want[:, -1] -= op.boundary[:, 1]
        np.testing.assert_array_equal(dense, want)


@pytest.mark.parametrize("size", [5, 32, 33])
def test_circulant_eigenvalues_are_rayleigh_quotients(size):
    # T. Chan's circulant is F diag(F* T F) F*: eigenvalue k is the Rayleigh
    # quotient of T at the k-th Fourier vector, hence inside T's spectrum
    op = random_operator(size, 0, seed=size)
    dense = op.dense()
    fourier = np.exp(2j * np.pi * np.outer(np.arange(size), np.arange(size)) / size)
    quotients = np.einsum("ik,ij,jk->k", fourier.conj(), dense, fourier).real / size
    eigenvalues = op.circulant_eigenvalues()
    np.testing.assert_allclose(eigenvalues, quotients[: eigenvalues.size], atol=1e-12)
    spectrum = np.linalg.eigvalsh(dense)
    assert spectrum[0] - 1e-12 <= eigenvalues.min()
    assert eigenvalues.max() <= spectrum[-1] + 1e-12


@settings(max_examples=60, deadline=None)
@given(column=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=80))
def test_core_min_eigenvalue_matches_eigvalsh(column):
    # relative to the spectral radius, the scale of any eigenvalue perturbation
    op = StructuredOperator(np.array(column), np.zeros((len(column), 0)))
    spectrum = np.linalg.eigvalsh(op.dense())
    scale = max(float(np.abs(spectrum).max()), 1e-300)
    assert abs(op.core_min_eigenvalue() - spectrum[0]) <= 1e-12 * scale


def test_rejects_malformed_blocks():
    with pytest.raises(ValueError):
        StructuredOperator(np.ones(4), np.ones((4, 1)))
    with pytest.raises(ValueError):
        StructuredOperator(np.ones(4), np.ones((3, 2)))
    with pytest.raises(ValueError):
        StructuredOperator(np.ones(1), np.ones((1, 0)))


def test_dense_refuses_before_allocating():
    size = 12 * MAX_DENSE_SIZE
    op = StructuredOperator(np.ones(size), np.zeros((size, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="refusing to materialise"):
            op.dense()
        with pytest.raises(ValueError, match="refusing to materialise"):
            op.core_min_eigenvalue()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
