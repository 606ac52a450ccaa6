"""Small dense real matrix kernel: division-free mixing, stability test.

Every matrix in the estimation pipeline is tiny (side <= MAX_SIDE), so the
routines here favour exactness and well-definedness over asymptotic speed.
The adjugate is built entry by entry from signed minors, which keeps it
meaningful for singular inputs: the mixing step multiplies by the adjugate
precisely because no division ever takes place, and the regressor
determinant routinely passes through zero.  One routine,
``det_adjugate_rows``, computes the determinant and the adjugate rows for
every caller: the adaptation law, the trace's grid rows, the diagnostics
and ``det_adjugate_batch``.  Its sums go through ``_matmul_ew``, the
package's one fixed-order contraction, which the cascade shares.

The mixing evaluates into storage its caller owns: a caller that mixes
chunk after chunk allocates it once, sized by ``Cofactors.floats`` for the
largest of its stacks, and passes it to every call, and a one-shot call
gets fresh storage from the same code.
The module keeps no buffer of its own, so two runs never share storage and
a run's storage goes with it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

MAX_SIDE = 8


def _minor_tables(k: int, cells: list[tuple[int, int]]) -> tuple:
    """Evaluation tables for the minors behind the cofactors at ``cells``.

    Every minor is expanded by the generalised Laplace rule along the first
    half of its rows: det = sum over column choices S of
    sign(S) * det(top rows, S) * det(bottom rows, complement of S).
    Sub-minors are shared between all requested cofactors, so evaluation is
    a few gathers and products per minor size, with no pivoting and no
    division anywhere.  Values live in one buffer: slot 0 holds the empty
    minor (1.0), slots 1..k*k the entries, then one block per minor size;
    each size's gather tables are laid out (terms, minors).
    """
    slot = {((), ()): 0}
    for r in range(k):
        for c in range(k):
            slot[((r,), (c,))] = 1 + r * k + c
    expansions: dict[tuple, list] = {}

    def need(rows: tuple, cols: tuple) -> None:
        if (rows, cols) in slot or (rows, cols) in expansions:
            return
        half = len(rows) // 2
        top, bottom = rows[:half], rows[half:]
        terms = []
        for picked in combinations(range(len(cols)), half):
            left = (top, tuple(cols[a] for a in picked))
            right = (bottom, tuple(c for a, c in enumerate(cols) if a not in picked))
            need(*left)
            need(*right)
            terms.append((left, right))
        expansions[(rows, cols)] = terms

    targets = []
    for i, j in cells:
        target = (tuple(r for r in range(k) if r != i), tuple(c for c in range(k) if c != j))
        need(*target)
        targets.append(target)

    size = 1 + k * k
    levels = []
    for side in sorted({len(rows) for rows, _ in expansions}):
        minors = [mk for mk in expansions if len(mk[0]) == side]
        start = size
        for mk in minors:
            slot[mk] = size
            size += 1
        left = np.array([[slot[lt] for lt, _ in expansions[mk]] for mk in minors]).T
        right = np.array([[slot[rt] for _, rt in expansions[mk]] for mk in minors]).T
        half = side // 2
        signs = [(-1.0) ** (half * (half - 1) // 2 + sum(p)) for p in combinations(range(side), half)]
        levels.append((start, size, left, right, signs))
    out = np.array([slot[t] for t in targets], dtype=np.intp)
    signs = np.array([(-1.0) ** (i + j) for i, j in cells])
    return size, levels, out, signs


class Cofactors:
    """Signed cofactors (-1)^(i+j) * det(M without row i and column j) of
    k x k matrices at a fixed list of (i, j) cells.

    This is the package's only cofactor route, behind its one mixing
    routine ``det_adjugate_rows``.  Each cofactor is formed by the same
    expansion whichever other cells are asked for, so its bits do not
    depend on the cell list.  Singular inputs are fine; identical rows
    give exact zeros.

    An evaluation works in one flat float64 array: the slot buffer, then
    the scratch of the left factors, which also receives the products, and
    that of the right factors.  ``floats(count)`` is its length for a stack
    of ``count`` matrices; a longer array serves any smaller stack.
    """

    def __init__(self, k: int, cells: list[tuple[int, int]]):
        if not 1 <= k <= MAX_SIDE:
            raise ValueError(f"matrix side {k} outside the supported range 1..{MAX_SIDE}")
        self.k = k
        self._size, self._levels, self._out, self._signs = _minor_tables(k, cells)
        # Minors of the largest level: the rows of each operand scratch.
        self._widest = max((left.shape[1] for _, _, left, _, _ in self._levels), default=0)

    def floats(self, count: int) -> int:
        """Length of the storage that evaluates a stack of ``count``
        matrices."""
        return (self._size + 2 * self._widest) * count

    def __call__(self, matrices: np.ndarray, storage: np.ndarray | None = None) -> np.ndarray:
        """Cofactors of a (k, k) matrix or a (..., k, k) stack, shape
        (..., len(cells)), evaluated in ``storage`` (a contiguous float64
        array of at least ``floats(count)`` entries) or in fresh storage."""
        k = self.k
        batch = matrices.shape[:-2]
        count = math.prod(batch)
        if storage is None:
            storage = np.empty(self.floats(count))
        elif storage.size < self.floats(count):
            raise ValueError(f"storage of {storage.size} floats, {self.floats(count)} needed")
        size, widest = self._size * count, self._widest * count
        # Minors along the first axis, so every gather copies whole rows.
        buf = storage[:size].reshape((self._size,) + batch)
        buf[0] = 1.0
        buf[1 : 1 + k * k].reshape((k, k) + batch)[...] = np.moveaxis(matrices, (-2, -1), (0, 1))
        for start, stop, left, right, signs in self._levels:
            # A term's factors are gathered into the scratch (mode "raise"
            # would copy them first) and its product overwrites the left ones.
            used = left.shape[1] * count
            lhs = storage[size : size + used].reshape(left.shape[1:] + batch)
            rhs = storage[size + widest : size + widest + used].reshape(lhs.shape)
            level = buf[start:stop]
            # Term by term, so every member of a stack is summed in the same
            # order whatever the stack's shape.  The first term takes columns
            # 0..half-1, so its sign exponent half*(half-1) is even.
            for term, sign in enumerate(signs):
                np.take(buf, left[term], axis=0, out=lhs, mode="clip")
                np.take(buf, right[term], axis=0, out=rhs, mode="clip")
                if term == 0:
                    np.multiply(lhs, rhs, out=level)
                else:
                    np.multiply(lhs, rhs, out=lhs)
                    (np.add if sign > 0.0 else np.subtract)(level, lhs, out=level)
        return np.moveaxis(buf[self._out], 0, -1) * self._signs


def _matmul_ew(a: np.ndarray, x: np.ndarray, out=None, term=None) -> np.ndarray:
    """``a @ x`` for stacks (..., r, n) and (..., n, N), as one elementwise
    product per inner index, added in index order.  This is the package's
    one fixed-order contraction: every entry is summed in the same order
    whatever the stack shapes, so a grid step's values do not depend on how
    many steps its chunk holds.  ``out`` and ``term``, arrays of the
    result's shape, hold the sum and each product when given; else both
    are fresh."""
    out = np.multiply(a[..., :, 0, None], x[..., None, 0, :], out=out)
    for i in range(1, a.shape[-1]):
        out += np.multiply(a[..., :, i, None], x[..., None, i, :], out=term)
    return out


@functools.cache
def _mixing_cofactors(k: int, rows: int) -> Cofactors:
    """The cofactors of k x k matrices that ``det_adjugate_rows`` reads:
    those of the first ``rows`` columns, column by column, then the rest of
    the first row.  Only the tables are cached, never storage."""
    return Cofactors(k, [(i, j) for j in range(rows) for i in range(k)] + [(0, j) for j in range(rows, k)])


def det_adjugate_rows(
    matrices: np.ndarray, rows: int, storage: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Determinants (...,) and the first ``rows`` rows of the adjugates
    (..., rows, k) of a (..., k, k) stack, division-free.

    This is the package's one mixing routine: the adaptation law asks for
    the m rows it adapts, every other caller for all k.  Only the
    cofactors of the first ``rows`` columns and of the first row are
    formed, and the determinant is the first-row expansion over them, its
    terms summed in index order, so adj(M) @ M - det(M) * I stays at
    rounding level even for singular members, and a member's bits depend
    neither on its stack nor on ``rows``.

    The evaluation runs in ``storage``, a float64 array of at least
    ``_mixing_cofactors(k, rows).floats(count)`` entries for a count at
    least the stack's size, or in fresh storage without it; the bits are
    the same either way, and the results never share memory with the
    storage.
    """
    k = matrices.shape[-1]
    cof = _mixing_cofactors(k, rows)(matrices, storage)
    adjugate = cof[..., : rows * k].reshape(cof.shape[:-1] + (rows, k))
    first_row = np.concatenate((adjugate[..., 0], cof[..., rows * k :]), axis=-1)
    return _matmul_ew(matrices[..., :1, :], first_row[..., None])[..., 0, 0], adjugate


def det_adjugate_batch(matrices) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and adjugates of a (batch, k, k) stack, division-free:
    the checked stack through ``det_adjugate_rows`` with all k rows."""
    ms = np.asarray(matrices, dtype=float)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"expected a (batch, k, k) stack, got shape {ms.shape}")
    if not np.isfinite(ms).all():
        raise ValueError("matrix stack contains non-finite entries")
    return det_adjugate_rows(ms, ms.shape[1])


def characteristic_polynomial(matrix) -> np.ndarray:
    """Coefficients of det(lambda*I - M), leading first, via the
    Faddeev-LeVerrier recursion (no eigenvalue iteration)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    mk = a.copy()
    eye = np.eye(n)
    for k in range(1, n + 1):
        ck = -np.trace(mk) / k
        coeffs[k] = ck
        if k < n:
            mk = a @ (mk + ck * eye)
    return coeffs


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the Routh array sign test.

    ``indeterminate`` is set when a zero pivot (or an all-zero row) makes the
    array inconclusive; such polynomials are reported as not stable.
    """

    stable: bool
    indeterminate: bool


def routh_verdict(coefficients) -> StabilityVerdict:
    """Routh array test: stable iff every root is in the open left half plane.

    An array whose entries leave the float range is indeterminate, an
    expected outcome, so its overflow raises no warning.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("coefficient list must be 1-D and non-empty")
    if not np.isfinite(c).all():
        raise ValueError("coefficients contain non-finite entries")
    if c[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    if c[0] < 0.0:
        c = -c
    n = c.size - 1
    if n == 0:
        return StabilityVerdict(True, False)
    # Necessary condition: every coefficient strictly positive.
    if np.any(c < 0.0):
        return StabilityVerdict(False, False)
    width = (n + 2) // 2
    prev2 = np.zeros(width)
    prev = np.zeros(width)
    prev2[: len(c[0::2])] = c[0::2]
    prev[: len(c[1::2])] = c[1::2]
    first_col = [prev2[0], prev[0]]
    for _ in range(2, n + 1):
        pivot = prev[0]
        if pivot == 0.0:
            return StabilityVerdict(False, True)
        new = np.zeros(width)
        with np.errstate(over="ignore", invalid="ignore"):
            new[: width - 1] = (pivot * prev2[1:] - prev2[0] * prev[1:]) / pivot
        prev2, prev = prev, new
        first_col.append(new[0])
    if any(v == 0.0 or not math.isfinite(v) for v in first_col):
        return StabilityVerdict(False, True)
    return StabilityVerdict(all(v > 0.0 for v in first_col), False)


def hurwitz_verdict(matrix) -> StabilityVerdict:
    """Full verdict (including the indeterminate flag) for a matrix.  A
    matrix or characteristic polynomial beyond the float range is
    indeterminate, an expected outcome, so its overflow raises no warning."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.isfinite(matrix).all():
        return StabilityVerdict(False, True)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = characteristic_polynomial(matrix)
    if not np.isfinite(coefficients).all():
        return StabilityVerdict(False, True)
    return routh_verdict(coefficients)


def unit_disc_verdict(offset) -> StabilityVerdict:
    """Whether every eigenvalue of I + offset lies inside the unit circle,
    with no eigenvalue solver.

    The map lambda = (1 + s)/(1 - s) takes the unit disc onto the open left
    half plane, so I + offset is stable exactly when
    (1 - s)^n p((1 + s)/(1 - s)) is Hurwitz (Routh test), p being its
    characteristic polynomial.  As p(lambda) = q(lambda - 1) for q the
    characteristic polynomial of the offset, that is
    sum_k q_k (2 s)^(n-k) (1 - s)^k.  Working from the offset keeps the
    test accurate for matrices near the identity, such as an RK4 step
    polynomial at a small step, whose p would lose its small coefficients
    to cancellation.  A matrix or polynomial beyond the float range is
    indeterminate, an expected outcome, so its overflow raises no warning.
    """
    offset = np.asarray(offset, dtype=float)
    if not np.isfinite(offset).all():
        return StabilityVerdict(False, True)
    with np.errstate(over="ignore", invalid="ignore"):
        q = characteristic_polynomial(offset)
        n = q.size - 1
        mapped = np.zeros(n + 1)  # lowest power first
        for k, coefficient in enumerate(q):
            term = np.ones(1)
            for factor in [[0.0, 2.0]] * (n - k) + [[1.0, -1.0]] * k:
                term = np.convolve(term, factor)
            mapped += coefficient * term
    if not np.isfinite(mapped).all():
        return StabilityVerdict(False, True)
    if mapped[n] == 0.0:  # an eigenvalue at -1, on the circle
        return StabilityVerdict(False, False)
    return routh_verdict(mapped[::-1])
