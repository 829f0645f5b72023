"""The discrete operator as structure: a Toeplitz core plus boundary columns.

Every assembled system has the form

    N = T - B E^T

where T is the symmetric Toeplitz core generated by the weight table (first
column: total + tail_mass on the diagonal, -w_j off it), B is an n x r block
of boundary columns and E = [e_0, e_{n-1}] picks the first and last unknown.
Dirichlet systems have r = 0; the whole-line and flux-closure systems have
r = 2, the exterior sums and beyond-support moments absorbed by the edge
unknowns.

The operator never stores an n x n array.  Products go through a circulant
embedding of T and numpy's real FFT, padded to a 5-smooth length, in
O(n log n); the row-sum infinity norm follows from prefix sums in O(n).
`dense()` materialises the matrix for the dense LU oracle, and
`core_min_eigenvalue()` splits the symmetric core into its even and odd
halves for two eigvalsh calls of half the size; both refuse beyond
MAX_DENSE_SIZE unknowns before allocating anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MAX_DENSE_SIZE", "StructuredOperator", "fast_length", "convolve"]

# 8192^2 float64 entries are 512 MiB; beyond that a dense oracle is a
# mistake, not a check
MAX_DENSE_SIZE = 8192


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


def convolve(kernel: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Full linear convolution of a 1-d kernel with each row of data, by FFT."""
    length = kernel.size + data.shape[-1] - 1
    padded = fast_length(length)
    spectrum = np.fft.rfft(kernel, padded) * np.fft.rfft(data, padded, axis=-1)
    return np.fft.irfft(spectrum, padded, axis=-1)[..., :length]


@dataclass(frozen=True, eq=False)
class StructuredOperator:
    """N = T - boundary @ [e_0, e_{n-1}]^T with T symmetric Toeplitz.

    column is the first column of T (length n); boundary is n x 0 or n x 2,
    its columns subtracted from the first and the last column of T.
    """

    column: np.ndarray
    boundary: np.ndarray
    _padded: int = field(init=False, repr=False)
    _symbol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        column = np.asarray(self.column, dtype=float)
        boundary = np.asarray(self.boundary, dtype=float)
        if column.ndim != 1 or column.size < 2:
            raise ValueError("operator needs a first column of at least 2 entries")
        if boundary.shape not in ((column.size, 0), (column.size, 2)):
            raise ValueError(
                "boundary block must be n x 0 or n x 2, got %s for n=%d"
                % (boundary.shape, column.size)
            )
        n = column.size
        # circulant embedding [c_0 .. c_{n-1}, 0 .., c_{n-1} .. c_1]; its first
        # n rows and columns are T
        padded = fast_length(2 * n - 1)
        embed = np.zeros(padded)
        embed[:n] = column
        embed[-(n - 1):] = column[:0:-1]
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "_symbol", np.fft.rfft(embed))

    @property
    def size(self) -> int:
        return self.column.size

    @property
    def rank(self) -> int:
        """Number of boundary columns (0 or 2)."""
        return self.boundary.shape[1]

    def core_matvec(self, x: np.ndarray) -> np.ndarray:
        """T x for x of shape (..., n)."""
        spectrum = np.fft.rfft(x, self._padded, axis=-1) * self._symbol
        product = np.fft.irfft(spectrum, self._padded, axis=-1)
        return product[..., : self.size]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """N x for x of shape (..., n)."""
        out = self.core_matvec(x)
        if self.rank:
            out -= x[..., [0, -1]] @ self.boundary.T
        return out

    def norm_inf(self) -> float:
        """Row-sum infinity norm ||N||_inf in O(n)."""
        n = self.size
        mag = np.abs(self.column)
        prefix = np.cumsum(mag)
        rows = np.arange(n)
        # row i of T holds c_{|i - j|}: c_0 once, then c_1.. on both sides
        sums = prefix[rows] + prefix[n - 1 - rows] - mag[0]
        if self.rank:
            sums += np.abs(self.column - self.boundary[:, 0]) - mag
            flipped = self.column[::-1]
            sums += np.abs(flipped - self.boundary[:, 1]) - mag[::-1]
        return float(sums.max())

    def circulant_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of T. Chan's optimal circulant approximation of T.

        They are Rayleigh quotients of T, so they lie in T's spectrum range:
        all positive whenever T is positive definite, and their ratio bounds
        T's spectral condition number from below.  Returned in rfft order.
        """
        n = self.size
        k = np.arange(n)
        wrapped = np.concatenate(([0.0], self.column[:0:-1]))
        first = ((n - k) * self.column + k * wrapped) / n
        return np.fft.rfft(first).real

    def _refuse_large_dense(self) -> None:
        n = self.size
        if n > MAX_DENSE_SIZE:
            raise ValueError(
                "refusing to materialise a dense %d x %d operator (limit %d unknowns, "
                "%.1f GB); use the structured solve" % (n, n, MAX_DENSE_SIZE, 8e-9 * n * n)
            )

    def core_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the Toeplitz core T, by two half-size eigvalsh.

        T is centrosymmetric (J T J = T, J the exchange matrix).  With
        m = n // 2, A the leading m x m block of T and H[i, j] = c[n-1-i-j]
        its top right block times J, T is orthogonally similar to the odd
        block A - H plus the even block A + H, which for odd n is bordered
        by sqrt(2) times the centre column above the diagonal and by c_0.
        Refuses beyond MAX_DENSE_SIZE unknowns, like dense().
        """
        self._refuse_large_dense()
        n, c = self.size, self.column
        m = n // 2
        leading = _toeplitz_view(c[:m])
        hankel = np.lib.stride_tricks.sliding_window_view(c[::-1][: 2 * m - 1], m)
        even = leading + hankel
        if n % 2:
            border = np.sqrt(2.0) * c[m:0:-1]
            even = np.block([[even, border[:, None]], [border[None, :], c[:1, None]]])
        low = min(np.linalg.eigvalsh(even)[0], np.linalg.eigvalsh(leading - hankel)[0])
        return float(low)

    def dense(self) -> np.ndarray:
        """The n x n matrix, for oracles only; refuses beyond MAX_DENSE_SIZE."""
        self._refuse_large_dense()
        matrix = _toeplitz_view(self.column).copy()
        if self.rank:
            matrix[:, 0] -= self.boundary[:, 0]
            matrix[:, -1] -= self.boundary[:, 1]
        return matrix
