"""The structured operator against its own dense materialisation.

Every fast member (FFT matvec, O(n) norm, circulant samples, the
eigenvalue bracket on each of its routes, Collatz-Wielandt, Durbin and the
O(n p) Levinson test of an exponential-sum core) is checked against the
dense matrix it stands for, on random columns with and without an edge
column, odd and even sizes; dense eigvalsh is the eigenvalue oracle,
Durbin the oracle of the Levinson test, mpmath at 50 digits checks that
the bracket holds lambda_min at both ends, and exact dot products check the
matvec's rounding bound.
"""

import contextlib
import importlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nldiff.assembly import assemble
from nldiff.grids import build_grid
from nldiff.harness import registry
from nldiff.operator import (
    MAX_DENSE_SIZE,
    StructuredOperator,
    _levinson_is_definite,
    convolve,
    fast_length,
)


def random_operator(size, rank, seed):
    # rank 2 carries an edge column, mirrored into the second boundary column
    rng = np.random.default_rng(seed)
    column = rng.standard_normal(size)
    edge = rng.standard_normal(size)
    return StructuredOperator(column, edge if rank else None)


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
            want[:, 0] -= op.edge
            want[:, -1] -= op.edge[::-1]
        np.testing.assert_array_equal(dense, want)


@pytest.mark.parametrize("size", [5, 32, 33, 401])
def test_circulant_eigenvalues_are_rayleigh_quotients(size):
    # sample k is the Rayleigh quotient of T at the normalised Fourier vector
    # of frequency 2 pi k / m, m = fast_length(n), hence inside T's spectrum
    op = random_operator(size, 0, seed=size)
    dense = op.dense()
    m = fast_length(size)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(size), np.arange(m)) / m)
    quotients = np.einsum("ik,ij,jk->k", fourier.conj(), dense, fourier).real / size
    eigenvalues = op.circulant_eigenvalues()
    assert eigenvalues.size == m // 2 + 1
    np.testing.assert_allclose(eigenvalues, quotients[: eigenvalues.size], atol=1e-12)
    spectrum = np.linalg.eigvalsh(dense)
    assert spectrum[0] - 1e-12 <= eigenvalues.min()
    assert eigenvalues.max() <= spectrum[-1] + 1e-12
    if m == size:
        # T. Chan's optimal circulant, first column ((n - k) c_k + k c_{n-k}) / n
        k = np.arange(size)
        wrapped = np.concatenate(([0.0], op.column[:0:-1]))
        chan = np.fft.rfft(((size - k) * op.column + k * wrapped) / size).real
        np.testing.assert_allclose(eigenvalues, chan, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(column=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=80))
def test_core_min_eigenvalue_matches_eigvalsh(column):
    # relative to the spectral radius, the scale of any eigenvalue perturbation
    op = StructuredOperator(np.array(column))
    spectrum = np.linalg.eigvalsh(op.dense())
    scale = max(float(np.abs(spectrum).max()), 1e-300)
    assert abs(op.core_eigenvalue_bracket()[1] - spectrum[0]) <= 1e-12 * scale


def registry_core(problem_id, steps, half_width=10.0):
    case = registry()[problem_id].build(half_width)
    return assemble(case.problem, build_grid(half_width, steps)).operator


@contextlib.contextmanager
def counted_durbin_passes():
    """The shifts every Durbin pass is asked about, in order."""
    shifts = []
    definite = StructuredOperator.core_is_definite

    def counting(self, shift):
        shifts.append(shift)
        return definite(self, shift)

    StructuredOperator.core_is_definite = counting
    try:
        yield shifts
    finally:
        StructuredOperator.core_is_definite = definite


@pytest.fixture
def durbin_calls():
    with counted_durbin_passes() as shifts:
        yield shifts


def lanczos_settling_on(theta):
    """A Lanczos stand-in: residual 0 at theta, a Ritz vector that changes sign.

    The sign change sends every core, Z-matrix or not, down the Durbin route.
    """

    def lanczos(self, scale):
        vector = np.ones(self.size)
        vector[-1] = -1.0
        return theta, 0.0, vector / np.linalg.norm(vector)

    return lanczos


def durbin_with_array_scalars(column, shift):
    """Durbin's definiteness test with numpy scalars throughout."""
    head = column[0] - shift
    if not head > 0.0:
        return False
    r = column[1:] / head
    m = r.size
    flipped = r[::-1].copy()
    y = np.empty(m)
    alpha = 0.0
    beta = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m):
            if not abs(alpha) < 1.0:
                return False
            beta *= 1.0 - alpha * alpha
            alpha = -(r[k] + flipped[m - k :] @ y[:k]) / beta
            y[:k] += alpha * y[:k][::-1]
            y[k] = alpha
    return bool(abs(alpha) < 1.0)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: registry_core("dirichlet-sech", 256).column, id="sech-256"),
        pytest.param(lambda: registry_core("dirichlet-mixed-kernel", 256).column, id="mixed-256"),
        pytest.param(lambda: np.array([1.0, 1.0 - 1e-16, 1.0, 1.0 - 1e-16] * 8), id="near-singular"),
    ]
    + [
        pytest.param(lambda size=size: random_operator(size, 0, seed=size).column, id="random-%d" % size)
        for size in (2, 7, 64)
    ],
)
def test_durbin_decisions_match_the_array_loop(build):
    column = build()
    op = StructuredOperator(column)
    spread = float(np.abs(column).sum())
    for shift in np.linspace(-spread, spread, 101):
        assert op.core_is_definite(float(shift)) == durbin_with_array_scalars(column, shift)


@pytest.mark.parametrize("problem_id", ["dirichlet-sech", "dirichlet-mixed-kernel"])
def test_durbin_decides_definiteness_at_the_eigenvalue(problem_id):
    op = registry_core(problem_id, 256)
    low = np.linalg.eigvalsh(op.dense())[0]
    assert low > 0.0
    assert op.core_is_definite(low * (1.0 - 1e-9))
    assert not op.core_is_definite(low * (1.0 + 1e-9))
    lower, upper = op.core_eigenvalue_bracket()
    assert lower <= low <= upper + 1e-14
    assert upper - low <= 1e-13


@pytest.mark.parametrize(
    "column, passes",
    [
        # tridiagonal: its lowest eigenvector sin(6 pi j / 7) is odd
        ([1.0, 0.6, 0.0, 0.0, 0.0, 0.0], 1),
        # Lanczos breaks down after one step, and Gershgorin's bound already
        # meets the Ritz value
        ([2.5] + [0.0] * 49, 0),
    ],
)
def test_ritz_value_needs_no_bisection(column, passes, durbin_calls):
    op = StructuredOperator(np.array(column))
    low = np.linalg.eigvalsh(op.dense())[0]
    assert abs(op.core_eigenvalue_bracket()[1] - low) <= 1e-12 * abs(low)
    assert len(durbin_calls) == passes


def test_rejected_ritz_value_falls_back_to_bisection(monkeypatch, durbin_calls):
    # a Lanczos run that settled on the top of the spectrum, as one that
    # missed the lowest eigenvector would settle on a higher eigenvalue
    op = random_operator(64, 0, seed=7)
    spectrum = np.linalg.eigvalsh(op.dense())
    scale = float(np.abs(spectrum).max())
    monkeypatch.setattr(StructuredOperator, "_lanczos", lanczos_settling_on(float(spectrum[-1])))
    lower, upper = op.core_eigenvalue_bracket()
    assert len(durbin_calls) > 1
    assert lower <= spectrum[0] <= upper
    assert abs(upper - spectrum[0]) <= 1e-12 * scale


def singular_core(size):
    # tridiagonal [-1, 2 cos(pi / (n+1)), -1]: lambda_min is 0 up to rounding;
    # a Z-matrix, so the bisection tests reach Durbin through a Ritz vector
    # that changes sign
    column = np.zeros(size)
    column[0] = 2.0 * np.cos(np.pi / (size + 1))
    column[1] = -1.0
    return StructuredOperator(column)


@pytest.mark.parametrize("size", [2, 9, 64, 255])
def test_bisection_lower_end_stays_below_a_zero_eigenvalue(size, monkeypatch, durbin_calls):
    op = singular_core(size)
    spectrum = np.linalg.eigvalsh(op.dense())
    assert abs(spectrum[0]) < 1e-14
    monkeypatch.setattr(StructuredOperator, "_lanczos", lanczos_settling_on(float(spectrum[-1])))
    lower, upper = op.core_eigenvalue_bracket()
    assert len(durbin_calls) > 1
    assert lower <= spectrum[0] <= upper
    assert upper - lower <= 1e-11


def test_bisection_allows_for_durbin_rounding(monkeypatch):
    # a definiteness test that errs, as rounding may, by up to half the
    # rounding margin 4 n eps ||T||_inf above lambda_min, and a Ritz value
    # that puts the first midpoint inside that error: the shifts accepted
    # there may not stand as the certified lower end
    op = singular_core(64)
    low = np.linalg.eigvalsh(op.dense())[0]
    slack = 0.5 * 4.0 * op.size * np.finfo(float).eps * op.norm_inf()
    gershgorin = op.column[0] - 2.0
    theta = 2.0 * (low + 0.5 * slack) - gershgorin
    monkeypatch.setattr(
        StructuredOperator, "core_is_definite", lambda self, shift: bool(shift < low + slack)
    )
    monkeypatch.setattr(StructuredOperator, "_lanczos", lanczos_settling_on(theta))
    lower, upper = op.core_eigenvalue_bracket()
    assert lower <= low <= upper


z_entry = st.one_of(st.just(0.0), st.floats(-1.0, 0.0))


@settings(max_examples=150, deadline=None)
@given(
    head=st.floats(0.0, 3.0, exclude_min=True),
    tail=st.lists(z_entry, min_size=1, max_size=79),
)
# a core so small that an unscaled Lanczos residual norm underflows to 0
@example(head=5e-324, tail=[-8.943185842921145e-237])
# a diagonal far below the off-diagonal entry: LAPACK's eigenvalues-only
# tridiagonal QR (dsterf), behind np.linalg.eigvalsh, puts lambda_min =
# head - 0.92578125 at -0.9257812611, 1.2e-8 too low, so the oracle is
# eigh, whose eigenvector route gets it right
@example(head=1.6378480193526998e-143, tail=[0.0, -0.92578125])
def test_z_matrix_bracket_takes_the_collatz_wielandt_route(head, tail):
    # zeros among the off-diagonal entries make reducible and diagonal cores
    op = StructuredOperator(np.array([head] + tail))
    spectrum = np.linalg.eigh(op.dense())[0]
    scale = max(float(np.abs(spectrum).max()), 1e-300)
    _, _, vector = op._lanczos(op.norm_inf())
    with counted_durbin_passes() as shifts:
        lower, upper = op.core_eigenvalue_bracket()
    # theta, a Rayleigh quotient, may round below lambda_min by a few eps
    # ||T||, so the upper end is checked to the tolerance
    assert lower <= spectrum[0]
    assert abs(upper - spectrum[0]) <= 1e-12 * scale
    if np.all(vector > 0.0):
        assert shifts == []
    if max(tail) <= -0.05:
        # every entry of mu I - T off the diagonal is at least 0.05, so the
        # lowest eigenvector, its Perron vector, is well clear of 0
        assert np.all(vector > 0.0)


@pytest.mark.parametrize(
    "build",
    [
        # a Z-matrix whose Ritz value theta = -4.02476475500179 sits 2e-15
        # below lambda_min = -4.0247647550017877, so theta is no upper end
        pytest.param(
            lambda: np.array(
                [1.0, -0.375, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0]
                + [0.0, -0.9375, 0.0, -0.75, 0.0, 0.0, -1.0, 0.0]
            ),
            id="z-16-pinned",
        ),
        # columns whose Ritz vector's Rayleigh quotient, from the FFT matvec
        # with no rounding allowance, reads 3.3e-16 and 7.9e-17 below
        # lambda_min
        pytest.param(lambda: np.array([1.0, 0.0, 0.0, 0.0, -1.0, -0.9375]), id="z-6-pinned"),
        pytest.param(lambda: np.array([0.25, 0.375, 1.3125, 0.0, 1.0625]), id="mixed-5-pinned"),
        pytest.param(lambda: singular_core(24).column, id="singular-24"),
    ]
    + [
        pytest.param(lambda seed=seed: random_z_column(24, seed), id="z-24-%d" % seed)
        for seed in (1, 2, 3)
    ]
    + [
        pytest.param(
            lambda seed=seed: random_operator(24, 0, seed).column, id="random-24-%d" % seed
        )
        for seed in (1, 2, 3)
    ],
)
def test_bracket_holds_the_fifty_digit_eigenvalue(build):
    op = StructuredOperator(build())
    with mpmath.workdps(50):
        spectrum = mpmath.eigsy(mpmath.matrix(op.dense().tolist()), eigvals_only=True)
        low = min(spectrum)
        lower, upper = op.core_eigenvalue_bracket()
        assert mpmath.mpf(lower) <= low <= mpmath.mpf(upper)


@pytest.mark.parametrize("size", [3, 9, 64])
def test_sign_changing_column_takes_the_durbin_route(size, durbin_calls):
    # the singular core with c_1 flipped positive has the same spectrum,
    # its lowest eigenvector alternating in sign
    column = singular_core(size).column.copy()
    column[1] = 1.0
    op = StructuredOperator(column)
    low = np.linalg.eigvalsh(op.dense())[0]
    lower, upper = op.core_eigenvalue_bracket()
    assert len(durbin_calls) >= 1
    assert lower <= low <= upper + 1e-15


def test_positive_ritz_vector_of_a_sign_changing_core_takes_the_durbin_route(
    monkeypatch, durbin_calls
):
    # positive off-diagonal entries: the top eigenvector is positive, and a
    # Lanczos run settled on it would give Collatz-Wielandt quotients equal
    # to lambda_max, far above lambda_min
    column = 0.5 ** np.arange(64)
    column[0] = 3.0
    op = StructuredOperator(column)
    spectrum, vectors = np.linalg.eigh(op.dense())
    top = vectors[:, -1] * np.sign(vectors[:, -1].sum())
    assert np.all(top > 0.0)
    monkeypatch.setattr(
        StructuredOperator, "_lanczos", lambda self, scale: (float(spectrum[-1]), 0.0, top)
    )
    lower, upper = op.core_eigenvalue_bracket()
    assert len(durbin_calls) > 1
    assert lower <= spectrum[0] <= upper


def exact_row_products(column, vector, rows):
    """Rows of T v to the nearest float: fsum of each product and its error."""
    split = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
    n = column.size
    out = []
    for i in rows:
        a = column[np.abs(i - np.arange(n))]
        p = a * vector
        a_hi = a * split - (a * split - a)
        v_hi = vector * split - (vector * split - vector)
        a_lo, v_lo = a - a_hi, vector - v_hi
        # Dekker: a v = p + error exactly, barring underflow
        error = ((a_hi * v_hi - p) + a_hi * v_lo + a_lo * v_hi) + a_lo * v_lo
        out.append(math.fsum(np.concatenate((p, error)).tolist()))
    return np.array(out)


def random_z_column(size, seed):
    rng = np.random.default_rng(seed)
    tail = -rng.random(size - 1) * (rng.random(size - 1) < 0.7)
    return np.concatenate(([rng.uniform(0.1, 3.0)], tail))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: registry_core("dirichlet-sech", 64, 5.0).column, id="sech-64"),
        pytest.param(lambda: registry_core("dirichlet-sech", 800).column, id="sech-800"),
        pytest.param(lambda: registry_core("dirichlet-sech", 8192).column, id="sech-8192"),
        pytest.param(lambda: random_z_column(97, 1), id="z-97"),
        pytest.param(lambda: random_z_column(1200, 2), id="z-1200"),
    ],
)
def test_matvec_rounding_bound_holds(build):
    # the Ritz vector the bracket uses, and a random positive vector
    column = build()
    op = StructuredOperator(column)
    rows = np.random.default_rng(3).choice(op.size, size=min(op.size, 40), replace=False)
    _, _, ritz = op._lanczos(op.norm_inf())
    uniform = np.random.default_rng(4).random(op.size)
    for vector in (ritz, uniform):
        margin = op._matvec_rounding(float(np.linalg.norm(vector)))
        error = np.abs(op.core_matvec(vector)[rows] - exact_row_products(column, vector, rows))
        assert error.max() <= margin


@pytest.mark.parametrize("problem_id", ["dirichlet-sech", "dirichlet-mixed-kernel"])
def test_large_window_brackets(problem_id, durbin_calls):
    # at L=40 Lanczos may stop unconverged; the bracket must still hold, and
    # near the size limit the sign of the kernel decides the Durbin count
    op = registry_core(problem_id, 800, 40.0)
    low = np.linalg.eigvalsh(op.dense())[0]
    lower, upper = op.core_eigenvalue_bracket()
    assert lower <= low <= upper + 1e-15
    durbin_calls.clear()
    lower, _ = registry_core(problem_id, 8190, 40.0).core_eigenvalue_bracket()
    assert lower > 0.0
    assert len(durbin_calls) <= (0 if problem_id == "dirichlet-sech" else 1)


def test_core_eigenvalue_memory_is_linear():
    # the even and odd halves for eigvalsh took about 268 MB at this size
    op = registry_core("dirichlet-sech", 8192)
    assert op.size == 8191
    tracemalloc.start()
    try:
        lower, _ = op.core_eigenvalue_bracket()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lower > 0.0
    assert peak < 4e6


def test_rejects_malformed_blocks():
    with pytest.raises(ValueError, match="edge column"):
        StructuredOperator(np.ones(4), np.ones(3))
    with pytest.raises(ValueError, match="edge column"):
        StructuredOperator(np.ones(4), np.ones((4, 2)))
    with pytest.raises(ValueError):
        StructuredOperator(np.ones(1))
    # non-finite edge entries pass: the solve reports them
    StructuredOperator(np.ones(5), np.full(5, np.nan))


def test_dense_refuses_before_allocating():
    size = 12 * MAX_DENSE_SIZE
    op = StructuredOperator(np.ones(size), np.zeros(size))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="refusing to materialise"):
            op.dense()
        with pytest.raises(ValueError, match="refusing to certify"):
            op.core_eigenvalue_bracket()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def registry_generator(problem_id, steps, half_width=10.0):
    """A registry Dirichlet core and its (coefficient, ratio) pairs from the
    kernel's terms, as the stability report builds them."""
    case = registry()[problem_id].build(half_width)
    system = assemble(case.problem, build_grid(half_width, steps))
    pairs = system.problem.kernel.hat_weight_terms(system.grid.spacing)
    return system.operator, [(-g, rho) for g, rho in pairs]


def exponential_sum_core(head, lag1, pairs, size):
    """c_0 = head, c_1 = lag1 and c_k = sum of coefficient ratio^k beyond,
    by np.power, so its rounding differs from the running products of T-hat."""
    column = np.zeros(size)
    lags = np.arange(2, size)
    for coefficient, ratio in pairs:
        column[2:] += coefficient * np.power(ratio, lags)
    column[:2] = head, lag1
    return StructuredOperator(column)


@pytest.fixture
def levinson_calls(monkeypatch):
    """The shifts (drift included) every generator pass is asked about."""
    module = importlib.import_module("nldiff.operator")
    levinson = module._levinson_is_definite
    shifts = []

    def counting(hat, geometric, shift):
        shifts.append(shift)
        return levinson(hat, geometric, shift)

    monkeypatch.setattr(module, "_levinson_is_definite", counting)
    return shifts


def test_generator_core_keeps_the_running_powers():
    # a column built from the same running products as T-hat has no drift,
    # and np.power's rounding gives a drift at the rounding level
    pairs = [(-0.3, 0.9), (0.5, 0.6)]
    size = 300
    column = np.zeros(size)
    column[:2] = 2.0, -0.4
    for coefficient, ratio in pairs:
        column[2:] += coefficient * np.cumprod(np.full(size - 1, ratio))[1:]
    hat, drift = StructuredOperator(column)._geometric_core(pairs)
    np.testing.assert_array_equal(hat, column)
    assert drift == 0.0
    rounded = exponential_sum_core(2.0, -0.4, pairs, size)
    hat, drift = rounded._geometric_core(pairs)
    np.testing.assert_array_equal(hat, column)
    assert 0.0 < drift <= 1e-13


coefficient_st = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(st.tuples(coefficient_st, st.floats(0.05, 0.999)), min_size=1, max_size=3),
    head=st.floats(-1.0, 4.0),
    lag1=st.floats(-1.0, 1.0),
    size=st.integers(2, 80),
    offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
)
def test_levinson_agrees_with_durbin_on_exponential_sums(pairs, head, lag1, size, offsets):
    # random exponential sums, sign-changing when the coefficients differ in
    # sign: outside a rounding band around lambda_min, the O(n p) recursion
    # on T-hat - (s + drift) I and Durbin's on T - s I agree with each other
    # and with the dense spectrum
    op = exponential_sum_core(head, lag1, pairs, size)
    hat, drift = op._geometric_core(pairs)
    low = float(np.linalg.eigvalsh(op.dense())[0])
    scale = op.norm_inf()
    band = 64.0 * size * np.finfo(float).eps * scale + 2.0 * drift
    for offset in offsets:
        shift = low + offset * scale
        if abs(shift - low) <= band:
            continue
        durbin = op.core_is_definite(shift)
        assert _levinson_is_definite(hat, pairs, shift + drift) == durbin == (shift < low)


@pytest.mark.parametrize(
    "problem_id, steps, half_width",
    [
        ("dirichlet-sech", 64, 5.0),
        ("dirichlet-sech", 256, 10.0),
        ("dirichlet-sech", 800, 10.0),
        ("dirichlet-sech", 2000, 40.0),
        ("dirichlet-mixed-kernel", 64, 5.0),
        ("dirichlet-mixed-kernel", 256, 10.0),
        ("dirichlet-mixed-kernel", 800, 10.0),
        ("dirichlet-mixed-kernel", 2000, 40.0),
    ],
)
def test_generator_bracket_holds_the_registry_eigenvalue(
    problem_id, steps, half_width, durbin_calls, levinson_calls
):
    # the bracket with the generator never runs Durbin, keeps the Rayleigh
    # ceiling bit for bit and holds the dense lambda_min
    op, pairs = registry_generator(problem_id, steps, half_width)
    low = np.linalg.eigvalsh(op.dense())[0]
    _, plain_upper = op.core_eigenvalue_bracket()
    durbin_calls.clear()
    lower, upper = op.core_eigenvalue_bracket(pairs)
    assert durbin_calls == []
    assert len(levinson_calls) == (0 if problem_id == "dirichlet-sech" else 1)
    assert upper == plain_upper
    assert 0.0 < lower <= low <= upper


def test_mixed_kernel_bracket_at_two_to_the_sixteen(durbin_calls, levinson_calls):
    # far beyond the Durbin limit: one O(n p) pass, a two-sided bracket
    op, pairs = registry_generator("dirichlet-mixed-kernel", 1 << 16)
    assert op.size > MAX_DENSE_SIZE
    lower, upper = op.core_eigenvalue_bracket(pairs)
    assert durbin_calls == []
    assert len(levinson_calls) == 1
    assert 0.0 < lower < upper
    # the drift, 5e-9 here, comes off the lower end twice
    assert upper - lower <= 1e-6 * upper


def test_refusal_waits_for_a_durbin_pass(monkeypatch):
    # a Z-core without a generator is refused only once its Ritz vector
    # turns out not to be positive; with a generator it takes the recursion
    size = MAX_DENSE_SIZE + 2
    op = singular_core(size)
    pairs = [(0.0, 0.5)]
    monkeypatch.setattr(StructuredOperator, "_lanczos", lanczos_settling_on(1.0))
    with pytest.raises(ValueError, match="refusing to certify .*Ritz vector is not positive"):
        op.core_eigenvalue_bracket()
    lower, upper = op.core_eigenvalue_bracket(pairs)
    assert lower <= 0.0 <= upper
