"""The discrete operator as structure: a Toeplitz core plus boundary columns.

Every assembled system has the form

    N = T - B E^T

where T is the symmetric Toeplitz core generated by the weight table (first
column: total + tail_mass on the diagonal, -w_j off it) and E = [e_0, e_{n-1}]
picks the first and last unknown.  Dirichlet systems have no boundary
columns.  The whole-line and flux-closure systems absorb the exterior sums
and beyond-support moments into the edge unknowns.  Kernel and grid are
symmetric, so the second column is the first one reversed: B = [b, J b]
with J the exchange matrix, and the operator stores b alone (`edge`).

The operator never stores an n x n array.  Products go through a circulant
embedding of T and numpy's real FFT, padded to the even length
N = 2 fast_length(n + 1), in O(n log n).  The embedding's symbol, stored
once, also holds the eigenvalues of the sine-transform preconditioner of
the conjugate gradient solve, its entries 1 .. N/2 - 1
(`sine_preconditioner`).  The row-sum infinity norm follows from
prefix sums in O(n) (`_row_sum_norm`).
`dense()` materialises the matrix for the dense LU oracle and refuses
beyond MAX_DENSE_SIZE unknowns before allocating anything.

The smallest eigenvalue of T, the Dirichlet stability certificate, comes
as a bracket in O(n) memory (`core_eigenvalue_bracket`): Lanczos on the
FFT matvec finds a Ritz value theta and its Ritz vector v, and v's
Rayleigh quotient from one more FFT matvec, rounded up by that matvec's
rounding bound, is the upper end.  The lower end is chosen by the signs
of the column.  A core with every off-diagonal entry <= 0 (a Z-matrix, as
a nonnegative kernel gives) and v > 0 takes the Collatz-Wielandt bound
min_i (T v)_i / v_i from the same matvec less its rounding bound, in
O(n log n).  Any other core takes one definiteness test of T - sI, which
certifies lambda_min >= s just below theta; if the test rejects s, it
bisects.  Given a generator, (coefficient, ratio) pairs whose geometric
sums make every lag >= 2 (an exponential-sum kernel's hat weights), the
test is a Levinson recursion with two running sums per pair
(`_levinson_is_definite`, O(n p) time) on the generated core T-hat, shifted
further by a rounded-up ||T - T-hat||_inf, so by Weyl's inequality it
still certifies T.  Without one it is Durbin's recursion on T
(`core_is_definite`, O(n^2) time), and only that route is refused beyond
MAX_DENSE_SIZE unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = ["MAX_DENSE_SIZE", "StructuredOperator", "fast_length", "convolve"]

# 8192^2 float64 entries are 512 MiB; beyond that a dense oracle is a
# mistake, not a check.  The stability certificate's Durbin route, O(n^2)
# time in O(n) memory, keeps the same limit.
MAX_DENSE_SIZE = 8192

_EPS = float(np.finfo(float).eps)
# Lanczos basis vectors kept at most: 40 x 8 bytes per unknown
_LANCZOS_STEPS = 40
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# weight of the Weyl sequence, in [-1/2, 1/2], beside the constant start
_WEYL_WEIGHT = 1e-3
# Lanczos stops once the Ritz residual is this small against ||T||
_RITZ_TOL = 1e-13
# c in the margin c n eps ||T|| that keeps Durbin's shift clear of rounding
_DURBIN_ROUNDING = 4.0


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    unit = 0.5 * _EPS
    return k * unit / (1.0 - k * unit)


def fast_length(size: int) -> int:
    """Smallest 5-smooth integer >= size, an FFT length without large primes."""
    best = 1 << max(size - 1, 0).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            candidate = odd
            while candidate < size:
                candidate *= 2
            best = min(best, candidate)
            odd *= 3
        five *= 5
    return best


def _toeplitz_view(column: np.ndarray) -> np.ndarray:
    """Read-only view of the symmetric Toeplitz matrix with this first column."""
    n = column.size
    # line[p] = c_{|p - (n-1)|}, so its window starting at n-1-i is row i
    line = np.concatenate((column[::-1], column[1:]))
    return np.lib.stride_tricks.sliding_window_view(line, n)[::-1]


def _core_row_sums(mag: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric Toeplitz matrix with first column mag."""
    n = mag.size
    prefix = np.cumsum(mag)
    rows = np.arange(n)
    # row i holds c_{|i - j|}: c_0 once, then c_1.. on both sides
    return prefix[rows] + prefix[n - 1 - rows] - mag[0]


def _row_sum_norm(column: np.ndarray, edge: np.ndarray | None) -> float:
    """||T - [edge, edge reversed] @ [e_0, e_{n-1}]^T||_inf in O(n), T the
    symmetric Toeplitz matrix with this first column; edge None means no
    boundary columns."""
    mag = np.abs(column)
    sums = _core_row_sums(mag)
    if edge is not None:
        # the boundary columns replace |c| by |c - edge| in the first and,
        # reversed, the last column of every row
        change = np.abs(column - edge) - mag
        sums += change
        sums += change[::-1]
    return float(sums.max())


def _levinson_is_definite(
    hat: np.ndarray, geometric: Sequence[tuple[float, float]], shift: float
) -> bool:
    """Whether the symmetric Toeplitz matrix with first column hat, less
    shift I, is positive definite, for hat_k = sum of coefficient ratio^k at
    every lag k >= 2.

    Durbin's recursion (`StructuredOperator.core_is_definite`) with its dot
    product in O(p): at step k it is sum_i r_{k-i} y_i, i < k, with r =
    hat[1:] / t_0 and t_0 = hat_0 - shift.  Every lag but the last one
    (i = k - 1, lag 1, where r_1 adds a correction delta to its geometric
    part) is geometric, so the dot product is sum_t G_t S_t + delta y_{k-1},
    G_t = coefficient_t / t_0 and S_t = sum_i ratio_t^(k-i) y_i, and y_{k-1}
    is the previous reflection coefficient.  With R_t = sum_i ratio_t^(i+1)
    y_i beside it, the update y + alpha J y maps (S, R) to (S + alpha R,
    R + alpha S), and appending alpha to y gives S <- ratio (S + alpha) and
    R <- R + ratio^(k+1) alpha.  Same reflection coefficients in exact
    arithmetic, in O(n p) time and O(p) memory beside the column (Cybenko,
    SIAM J. Sci. Stat. Comput. 1, 1980; Gohberg, Kailath and Koltracht,
    Integral Equations Operator Theory 8, 1985).
    """
    head = float(hat[0]) - shift
    if not head > 0.0:
        return False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = (hat[1:] / head).tolist()
    ratios = [float(ratio) for _, ratio in geometric]
    weights = [coefficient / head for coefficient, _ in geometric]
    delta = r[0] - sum(weight * ratio for weight, ratio in zip(weights, ratios))
    terms = range(len(ratios))
    sums = [0.0] * len(ratios)
    mirrored = [0.0] * len(ratios)
    powers = [1.0] * len(ratios)
    alpha = 0.0
    beta = 1.0
    for lag in r:
        if not abs(alpha) < 1.0:
            return False
        beta *= 1.0 - alpha * alpha
        if beta == 0.0:
            return False
        dot = delta * alpha
        for t in terms:
            dot += weights[t] * sums[t]
        alpha = -(lag + dot) / beta
        for t in terms:
            ratio, s, m = ratios[t], sums[t], mirrored[t]
            powers[t] *= ratio
            sums[t] = ratio * (s + alpha * (m + 1.0))
            mirrored[t] = m + alpha * (s + powers[t])
    return abs(alpha) < 1.0


def convolve(kernel: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Full linear convolution of a 1-d kernel with each row of data, by FFT."""
    length = kernel.size + data.shape[-1] - 1
    padded = fast_length(length)
    spectrum = np.fft.rfft(kernel, padded) * np.fft.rfft(data, padded, axis=-1)
    return np.fft.irfft(spectrum, padded, axis=-1)[..., :length]


@dataclass(frozen=True, eq=False)
class StructuredOperator:
    """N = T - [edge, edge reversed] @ [e_0, e_{n-1}]^T with T symmetric Toeplitz.

    column is the first column of T (length n).  edge, when given (length
    n), is subtracted from the first column of T and its reverse from the
    last; None means no boundary columns.
    """

    column: np.ndarray
    edge: np.ndarray | None = None
    _padded: int = field(init=False, repr=False)
    _symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        column = np.asarray(self.column, dtype=float)
        if column.ndim != 1 or column.size < 2:
            raise ValueError("operator needs a first column of at least 2 entries")
        if self.edge is not None:
            edge = np.asarray(self.edge, dtype=float)
            if edge.shape != column.shape:
                raise ValueError(
                    "edge column must have shape %s, got %s" % (column.shape, edge.shape)
                )
            object.__setattr__(self, "edge", edge)
        n = column.size
        # circulant embedding [c_0 .. c_{n-1}, 0 .., c_{n-1} .. c_1]; its first
        # n rows and columns are T.  The even length 2 fast_length(n + 1)
        # makes its real symbol, at the frequencies below N / 2, the sine
        # transform eigenvalues of the CG preconditioner as well
        padded = 2 * fast_length(n + 1)
        embed = np.zeros(padded)
        embed[:n] = column
        embed[-(n - 1):] = column[:0:-1]
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "_symbol", np.fft.rfft(embed))

    @property
    def size(self) -> int:
        return self.column.size

    def core_matvec(self, x: np.ndarray) -> np.ndarray:
        """T x for x of shape (..., n)."""
        spectrum = np.fft.rfft(x, self._padded, axis=-1) * self._symbol
        product = np.fft.irfft(spectrum, self._padded, axis=-1)
        return product[..., : self.size]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """N x for x of shape (..., n)."""
        out = self.core_matvec(x)
        if self.edge is not None:
            out -= x[..., :1] * self.edge + x[..., -1:] * self.edge[::-1]
        return out

    def sine_preconditioner(self, floor: float) -> Callable[[np.ndarray], np.ndarray]:
        """r -> P r, P the leading n x n block of tau^{-1}.

        tau is the n' x n' matrix diagonalised by the DST-I S, S_jk =
        sin(pi j k / (n' + 1)) and S^2 = (n' + 1) / 2 I, n' = fast_length(n +
        1) - 1.  Its eigenvalues are T's symbol truncated to its n lags at the
        sine frequencies, lambda_j = c_0 + 2 sum_{0<k<n} c_k cos(k pi j / (n'
        + 1)) for j = 1..n'.  The circulant embedding is padded to the even,
        5-smooth N = 2 (n' + 1), so these are entries 1..n' of the real part
        of the stored symbol, and no transform is taken here.  A lambda_j <=
        0, which only a sign-changing kernel can give, is replaced by floor,
        the smallest Fejer sample (`circulant_eigenvalues`) in the solve,
        positive once its refusal has passed.  P, a principal block of a
        symmetric positive definite matrix, is then one.

        tau^{-1} = 2 / (n' + 1) S diag(1 / lambda) S, and one real FFT pair of
        length N applies it.  r sits at positions 1..n of a zero buffer, and
        the imaginary part of the buffer's rfft is -S r.  The real part is
        zeroed and the imaginary part scaled by 2 / lambda_j (0 at j = 0 and
        N / 2).  Positions 1..n of the irfft, which carries the factor 2 / N
        = 1 / (n' + 1), are P r.  The irfft writes into the buffer, and the
        2 / lambda table is the one array kept between calls.
        """
        n = self.size
        length = self._padded
        sine = self._symbol.real[1:-1]
        table = np.zeros(length // 2 + 1)
        table[1:-1] = 2.0 / np.where(sine > 0.0, sine, floor)

        def precondition(r):
            buffer = np.zeros(r.shape[:-1] + (length,))
            buffer[..., 1 : n + 1] = r
            spectrum = np.fft.rfft(buffer, axis=-1)
            spectrum.real = 0.0
            spectrum.imag *= table
            return np.fft.irfft(spectrum, length, axis=-1, out=buffer)[..., 1 : n + 1]

        return precondition

    def norm_inf(self) -> float:
        """Row-sum infinity norm ||N||_inf in O(n)."""
        return _row_sum_norm(self.column, self.edge)

    def circulant_eigenvalues(self) -> np.ndarray:
        """Samples sigma(2 pi j / m) of the Fejer mean of T's symbol, rfft order.

        sigma(theta) = c_0 + 2 sum_{0<k<n} (1 - k/n) c_k cos(k theta), at the
        m = fast_length(n) frequencies: the eigenvalues of a length-m
        circulant C_m, which at m = n is T. Chan's optimal circulant.
        sigma(theta) is the Rayleigh quotient of T at the normalised Fourier
        vector of frequency theta, so the samples lie in T's spectrum range:
        all positive whenever T is positive definite, and their ratio bounds
        T's spectral condition number from below.  The tapered two-sided
        column is folded mod m and transformed once.
        """
        n = self.size
        m = fast_length(n)
        tapered = self.column * ((n - np.arange(n)) / n)
        folded = np.zeros(m)
        folded[:n] = tapered
        # lags -1 .. -(n-1) wrap to m-1 .. m-n+1
        folded[m - n + 1 :] += tapered[:0:-1]
        return np.fft.rfft(folded).real

    def _refuse_large_durbin(self, reason: str) -> None:
        n = self.size
        if n > MAX_DENSE_SIZE:
            raise ValueError(
                "refusing to certify a %d-unknown core: %s, so its certificate takes "
                "Durbin's O(n^2) recursion (limit %d unknowns)" % (n, reason, MAX_DENSE_SIZE)
            )

    def _geometric_core(
        self, geometric: Sequence[tuple[float, float]]
    ) -> tuple[np.ndarray, float]:
        """T-hat's first column and ||T - T-hat||_inf rounded up, in O(n p).

        T-hat keeps T's c_0 and c_1 and takes sum of coefficient ratio^k at
        every lag k >= 2, each power the running product that
        `_levinson_is_definite` forms.  The difference is zero at lags 0 and
        1, and the factor 1 + gamma_{n+4} covers the rounding of its
        magnitudes, their prefix sums and the product.
        """
        n = self.size
        hat = self.column.copy()
        if n > 2:
            hat[2:] = 0.0
            for coefficient, ratio in geometric:
                hat[2:] += coefficient * np.cumprod(np.full(n - 1, ratio))[1:]
        sums = _core_row_sums(np.abs(self.column - hat))
        return hat, float(sums.max()) * (1.0 + _gamma(n + 4))

    def _refuse_large_dense(self) -> None:
        n = self.size
        if n > MAX_DENSE_SIZE:
            raise ValueError(
                "refusing to materialise a dense %d x %d operator (limit %d unknowns, "
                "%.1f GB); use the structured solve" % (n, n, MAX_DENSE_SIZE, 8e-9 * n * n)
            )

    def core_is_definite(self, shift: float) -> bool:
        """Whether T - shift I is positive definite, by one Durbin recursion.

        With t_0 = c_0 - shift and r_k = c_k / t_0, the recursion solves the
        Yule-Walker systems of every leading section in O(n^2) time and O(n)
        memory.  T - shift I is positive definite exactly when t_0 > 0 and
        every reflection coefficient has |alpha_k| < 1 (Cybenko, SIAM J.
        Sci. Stat. Comput. 1, 1980; Golub and Van Loan, section 4.7).
        """
        head = self.column[0] - shift
        if not head > 0.0:
            return False
        r = self.column[1:] / head
        m = r.size
        flipped = r[::-1].copy()
        reflections = r.tolist()
        y = np.empty(m)
        alpha = 0.0
        beta = 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k in range(m):
                if not abs(alpha) < 1.0:
                    return False
                beta *= 1.0 - alpha * alpha
                if beta == 0.0:
                    # numpy's division would give alpha = +-inf or nan here,
                    # which the next test rejects
                    return False
                head_y = y[:k]
                # flipped[m - k:] is r_k .. r_1
                alpha = -(reflections[k] + float(flipped[m - k :] @ head_y)) / beta
                head_y += alpha * head_y[::-1]
                y[k] = alpha
        return abs(alpha) < 1.0

    def _lanczos(self, scale: float) -> tuple[float, float, np.ndarray]:
        """Smallest Ritz value of T, its residual norm and its Ritz vector.

        Lanczos with full reorthogonalization on the FFT matvec, at most
        _LANCZOS_STEPS basis vectors, stopping once the residual is below
        _RITZ_TOL * scale.  The start is the constant vector, which lines up
        with the smooth one-signed lowest mode of a diffusive kernel, plus a
        small golden-ratio Weyl sequence: T is centrosymmetric, so an even
        start would never reach the odd eigenvectors.  The iteration runs on
        T scaled exactly by a power of two near 1 / scale, so no squared
        norm underflows on a tiny core.  The Ritz vector has unit norm, to
        rounding, and a nonnegative sum.
        """
        n = self.size
        # a power of two near 1 / scale, kept finite for a subnormal scale
        unit = math.ldexp(1.0, min(-math.frexp(scale)[1], 1000))
        steps = min(n, _LANCZOS_STEPS)
        basis = np.empty((steps, n))
        # the Rayleigh quotient basis^T T basis, filled a column per step
        projected = np.zeros((steps, steps))
        start = 1.0 + _WEYL_WEIGHT * ((np.arange(1, n + 1) * _GOLDEN) % 1.0 - 0.5)
        basis[0] = start / np.linalg.norm(start)
        for j in range(steps):
            w = self.core_matvec(basis[j])
            w *= unit
            active = basis[: j + 1]
            coefficients = active @ w
            w -= coefficients @ active
            # a second Gram-Schmidt pass keeps the basis orthonormal to rounding
            w -= (active @ w) @ active
            projected[: j + 1, j] = projected[j, : j + 1] = coefficients
            ritz, vectors = np.linalg.eigh(projected[: j + 1, : j + 1])
            link = float(np.linalg.norm(w))
            residual = link * abs(float(vectors[-1, 0]))
            if residual <= _RITZ_TOL * scale * unit:
                break
            if j + 1 < steps:
                basis[j + 1] = w / link
        vector = vectors[:, 0] @ active
        if vector.sum() < 0.0:
            vector = -vector
        return float(ritz[0]) / unit, residual / unit, vector

    def _matvec_rounding(self, vector_norm: float) -> float:
        """A bound on ||fl(T x) - T x||_2, hence on every entry of it, for
        ||x||_2 = vector_norm.

        Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        Theorem 24.2) bounds a t-stage FFT by ||fl(F x) - F x||_2 <=
        kappa ||F x||_2, kappa = t eta / (1 - t eta), eta = mu + gamma_4
        (sqrt 2 + mu), with mu the twiddle factors' error, here taken as
        eps.  The theorem covers radix 2; numpy's real transforms of the
        5-smooth padded length m are taken as t = ceil(log2 m) such stages,
        which the tests check against exact dot products.  The same stage
        bounds, |Delta A_k| <= eta |A_k| with |A_t| ... |A_1| all ones, give
        every sample of the stored symbol within kappa ||embedding||_1.
        With F x and the symbol c-hat, the product c-hat F x rounds by
        sqrt 2 gamma_2 (Higham, Lemma 3.5) and the inverse transform, with
        its 1/m scaling, adds kappa + 2u; ||F^-1 z||_2 = ||z||_2 / sqrt m,
        so to first order

            ||fl(T x) - T x||_2 <= ((2 kappa + sqrt 2 gamma_2 + 2u)
                ||c-hat||_inf + kappa ||embedding||_1) ||x||_2,

        and the factor 1 + 1e-10 covers the second-order terms.
        """
        stages = (self._padded - 1).bit_length()
        eta = _EPS + _gamma(4) * (math.sqrt(2.0) + _EPS)
        kappa = stages * eta / (1.0 - stages * eta)
        magnitudes = np.abs(self.column)
        embedding_l1 = 2.0 * float(magnitudes.sum()) - float(magnitudes[0])
        symbol_max = float(np.abs(self._symbol).max())
        first_order = (2.0 * kappa + math.sqrt(2.0) * _gamma(2) + _EPS) * symbol_max
        first_order += kappa * embedding_l1
        return (1.0 + 1e-10) * first_order * vector_norm

    def _rayleigh_ceiling(self, vector: np.ndarray, image: np.ndarray, margin: float) -> float:
        """v^T T v / v^T v rounded up, an upper bound on lambda_min.

        image is the computed T v and margin `_matvec_rounding(||v||_2)`, so
        v^T T v <= v . image + ||v||_2 margin + gamma_n |v| . |image|, the
        last term the rounding of the dot product (Higham, section 3.1); the
        factor 1 + 1e-10 covers the rounding of these bounds themselves.
        The computed v^T v (n terms), the sum, the quotient and the final
        step each round, and gamma_{n+4} of the quotient covers them all.
        Barring underflow, the result is never below the Rayleigh quotient.
        """
        n = self.size
        slack = float(np.linalg.norm(vector)) * margin
        slack += _gamma(n) * float(np.abs(vector) @ np.abs(image))
        quotient = (float(vector @ image) + (1.0 + 1e-10) * slack) / float(vector @ vector)
        return quotient + _gamma(n + 4) * abs(quotient)

    def core_eigenvalue_bracket(
        self, geometric: Sequence[tuple[float, float]] | None = None
    ) -> tuple[float, float]:
        """A certified bracket [lower, upper] around the smallest eigenvalue of T.

        Lanczos gives the smallest Ritz value theta and its Ritz vector v.
        theta is a Rayleigh quotient, but one computed in floating point can
        sit a few eps ||T|| below lambda_min, so the upper end is v's Rayleigh
        quotient from one FFT matvec, rounded up by the matvec's rounding
        bound (`_rayleigh_ceiling`).  The lower end takes one of two routes.

        A Z-matrix core (every off-diagonal entry <= 0, as a nonnegative
        kernel gives) whose Ritz vector v is strictly positive needs no
        more than that matvec: mu I - T is nonnegative for mu >= c_0, so the
        Collatz-Wielandt bound gives lambda_min >= min_i (T v)_i / v_i for
        any v > 0 (Berman and Plemmons, Nonnegative Matrices in the
        Mathematical Sciences, SIAM 1994).  The computed (T v)_i less the
        matvec's rounding bound (`_matvec_rounding`), over v_i, rounded
        down and never below the Gershgorin bound less the rounding margin
        below, is the lower end.

        Every other core, sign-changing or with a Ritz vector that changes
        sign, takes one definiteness test at s = theta - delta, delta the
        Ritz residual plus the rounding margin c n eps ||T||, which
        certifies lambda_min >= s.  Should it reject s (Lanczos missed the
        lowest eigenvector) or Lanczos stop unconverged, the same test
        bisects between the Gershgorin bound and theta; a shift it accepts
        there may lie within rounding of lambda_min, so the lower end drops
        by the margin, and the upper end, the lowest shift it rejected, rises
        by it unless v's bound is lower.  ||T|| is bounded by the largest row
        sum.

        With ``geometric``, (coefficient, ratio) pairs with c_k close to the
        sum of coefficient ratio^k at every lag k >= 2, the test is the
        O(n p) Levinson recursion on T-hat - (s + drift) I, T-hat the core
        they generate beside T's c_0 and c_1 and drift a rounded-up
        ||T - T-hat||_inf >= ||T - T-hat||_2.  Weyl's inequality puts
        lambda_min(T) within the drift of lambda_min(T-hat), so an accepted
        s still certifies T; the first shift drops by twice the drift, and a
        rejected one bounds lambda_min(T) from above only with twice the
        drift added.  Without ``geometric`` the test is one Durbin pass on
        T - sI, O(n^2) time.  Takes O(n) memory.  Beyond MAX_DENSE_SIZE
        unknowns only the Durbin route is refused: before anything is
        allocated when the core is not a Z-matrix, and before the first
        pass when the Ritz vector of a Z-matrix core is not positive.
        """
        n = self.size
        # O(n) and allocation free: a view's max
        z_core = bool(self.column[1:].max() <= 0.0)
        if geometric is None and not z_core:
            self._refuse_large_durbin("it has no generator and is not a Z-matrix")
        mag = np.abs(self.column)
        row_sums = _core_row_sums(mag)
        # the largest row sum is ||T||_inf >= ||T||_2
        scale = float(row_sums.max())
        theta, residual, vector = self._lanczos(scale)
        image = self.core_matvec(vector)
        margin = self._matvec_rounding(float(np.linalg.norm(vector)))
        ceiling = self._rayleigh_ceiling(vector, image, margin)
        rounding = _DURBIN_ROUNDING * n * _EPS * scale
        # Gershgorin: no eigenvalue lies below c_0 minus an off-diagonal row sum
        lower = float(self.column[0] - (row_sums - mag[0]).max())
        if z_core and np.all(vector > 0.0):
            bound = float(((image - margin) / vector).min())
            # the subtraction and the division each round by at most u
            bound -= 2.0 * _EPS * abs(bound)
            return max(bound, lower - rounding), ceiling
        if geometric is None:
            self._refuse_large_durbin("its Ritz vector is not positive")
            definite = self.core_is_definite
            drift = 0.0
        else:
            hat, drift = self._geometric_core(geometric)

            def definite(shift: float) -> bool:
                return _levinson_is_definite(hat, geometric, shift + drift)

        upper = theta
        # lambda_min(T-hat) may sit the drift below lambda_min(T), and the
        # test asks about the shift plus the drift
        shift = theta - residual - rounding - 2.0 * drift
        if lower < shift and definite(shift):
            if residual <= _RITZ_TOL * scale:
                return shift, ceiling
            lower = shift
        width = _RITZ_TOL * scale + rounding
        while upper - lower > width:
            shift = 0.5 * (lower + upper)
            if not lower < shift < upper:
                break
            if definite(shift):
                lower = shift
            else:
                upper = shift
        # a shift the test rejects may lie within rounding below lambda_min,
        # as one it accepts may lie above it; a rejection on T-hat puts
        # lambda_min(T) below the shift plus twice the drift
        return lower - rounding, min(upper + rounding + 2.0 * drift, ceiling)

    def dense(self) -> np.ndarray:
        """The n x n matrix, for oracles only; refuses beyond MAX_DENSE_SIZE."""
        self._refuse_large_dense()
        matrix = _toeplitz_view(self.column).copy()
        if self.edge is not None:
            matrix[:, 0] -= self.edge
            matrix[:, -1] -= self.edge[::-1]
        return matrix
