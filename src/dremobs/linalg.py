"""Small dense real matrix kernel: division-free cofactors, stability test.

Every matrix in the estimation pipeline is tiny (side <= MAX_SIDE), so the
routines here favour exactness and well-definedness over asymptotic speed.
The adjugate is built entry by entry from signed minors, which keeps it
meaningful for singular inputs: the mixing step multiplies by the adjugate
precisely because no division ever takes place, and the regressor
determinant routinely passes through zero.
"""

from __future__ import annotations

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

    This is the package's only determinant route: the simulation kernel
    asks for the cofactors its adaptation law needs, ``det_adjugate_batch``
    for all of them.  Singular inputs are fine; identical rows give exact
    zeros.
    """

    def __init__(self, k: int, cells: list[tuple[int, int]]):
        if not 1 <= k <= MAX_SIDE:
            raise ValueError(f"matrix side {k} outside the supported range 1..{MAX_SIDE}")
        self.k = k
        self._size, self._levels, self._out, self._signs = _minor_tables(k, cells)

    def __call__(self, matrices: np.ndarray) -> np.ndarray:
        """Cofactors of a (k, k) matrix or a (..., k, k) stack, shape
        (..., len(cells))."""
        k = self.k
        batch = matrices.shape[:-2]
        # Minors along the first axis, so every gather copies whole rows.
        buf = np.empty((self._size,) + batch)
        buf[0] = 1.0
        buf[1 : 1 + k * k] = np.moveaxis(matrices.reshape(batch + (k * k,)), -1, 0)
        for start, stop, left, right, signs in self._levels:
            # Term by term, so every member of a stack is summed in the same
            # order whatever the stack's shape.
            level = buf[start:stop]
            np.multiply(buf[left[0]], buf[right[0]], out=level)
            if signs[0] < 0.0:
                np.negative(level, out=level)
            for term in range(1, len(signs)):
                prod = buf[left[term]] * buf[right[term]]
                if signs[term] > 0.0:
                    level += prod
                else:
                    level -= prod
        return np.moveaxis(buf[self._out], 0, -1) * self._signs


_ALL_CELLS: dict[int, Cofactors] = {}


def det_adjugate_batch(matrices) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and adjugates of a (batch, k, k) stack, division-free.

    The determinant is the first-row cofactor expansion over the same
    cofactors that populate the adjugate, so adj(M) @ M - det(M) * I stays
    at rounding level even for ill-conditioned or singular members.
    """
    ms = np.asarray(matrices, dtype=float)
    if ms.ndim != 3 or ms.shape[1] != ms.shape[2]:
        raise ValueError(f"expected a (batch, k, k) stack, got shape {ms.shape}")
    if not np.isfinite(ms).all():
        raise ValueError("matrix stack contains non-finite entries")
    b, k, _ = ms.shape
    route = _ALL_CELLS.get(k)
    if route is None:
        route = _ALL_CELLS[k] = Cofactors(k, [(i, j) for i in range(k) for j in range(k)])
    cof = route(ms).reshape(b, k, k)
    dets = np.einsum("bj,bj->b", ms[:, 0, :], cof[:, 0, :])
    return dets, np.swapaxes(cof, 1, 2)


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
