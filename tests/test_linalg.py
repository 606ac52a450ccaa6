import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dremobs.linalg import (
    MAX_SIDE,
    Cofactors,
    _mixing_cofactors,
    characteristic_polynomial,
    det_adjugate_batch,
    det_adjugate_rows,
    hurwitz_verdict,
    routh_verdict,
    unit_disc_verdict,
)


def leibniz_det(m):
    """Independent oracle: full permutation expansion."""
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(k)):
        sign = 1.0
        seen = list(perm)
        # count inversions
        inv = sum(
            1 for i in range(k) for j in range(i + 1, k) if seen[i] > seen[j]
        )
        sign = -1.0 if inv % 2 else 1.0
        prod = 1.0
        for row, col in enumerate(perm):
            prod *= m[row, col]
        total += sign * prod
    return total


def determinant(m) -> float:
    """Determinant of one matrix through the library's cofactor route."""
    return float(det_adjugate_batch(np.asarray(m, dtype=float)[None])[0][0])


def adjugate(m) -> np.ndarray:
    """Adjugate of one matrix through the library's cofactor route."""
    return det_adjugate_batch(np.asarray(m, dtype=float)[None])[1][0]


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == 1.0

    def test_2x2_closed_form(self):
        assert determinant([[1.0, 2.0], [3.0, 4.0]]) == -2.0

    def test_random_5x5_against_permutation_expansion(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.uniform(-1.0, 1.0, (5, 5))
            expected = leibniz_det(m)
            got = determinant(m)
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_triangular_exact(self):
        m = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
        assert determinant(m) == np.prod(np.diag(m))

    def test_permutation_exact(self):
        p = np.eye(4)[[1, 0, 3, 2]]
        assert determinant(p) == 1.0

    def test_transpose_invariance(self):
        rng = np.random.default_rng(3)
        for k in range(2, 7):
            m = rng.normal(size=(k, k))
            np.testing.assert_allclose(determinant(m.T), determinant(m), rtol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"expected a \(batch, k, k\) stack"):
            determinant(np.ones((2, 3)))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="matrix side 9 outside the supported range"):
            determinant(np.eye(9))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            determinant([[np.nan, 0.0], [0.0, 1.0]])


class TestAdjugate:
    def test_identity(self):
        for k in range(1, 5):
            np.testing.assert_array_equal(adjugate(np.eye(k)), np.eye(k))

    def test_2x2_closed_form(self):
        a, b, c, dd = 2.0, -3.0, 5.0, 7.0
        np.testing.assert_array_equal(
            adjugate([[a, b], [c, dd]]), np.array([[dd, -b], [-c, a]])
        )

    def test_random_5x5_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.uniform(-1.0, 1.0, (5, 5))
            res = adjugate(m) @ m - determinant(m) * np.eye(5)
            assert np.abs(res).max() <= 1e-9

    def test_singular_matrix_still_defined(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        adj = adjugate(m)
        assert np.isfinite(adj).all()
        np.testing.assert_allclose(adj @ m, np.zeros((2, 2)), atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_two_sided_identity_property(self, side, seed):
        m = np.random.default_rng(seed).uniform(-1.0, 1.0, (side, side))
        adj = adjugate(m)
        det = determinant(m)
        eye = det * np.eye(side)
        assert np.abs(adj @ m - eye).max() <= 1e-9
        assert np.abs(m @ adj - eye).max() <= 1e-9

    def test_transpose_commutes(self):
        rng = np.random.default_rng(5)
        for k in range(2, 7):
            m = rng.normal(size=(k, k))
            np.testing.assert_allclose(adjugate(m.T), adjugate(m).T, atol=1e-9)


class TestFastPath:
    def test_matches_reference_ops(self):
        # Any subset of cells, as the simulation kernel requests, gives the
        # same cofactors as the full adjugate.
        rng = np.random.default_rng(13)
        for k in range(1, 7):
            cells = [(i, j) for i in range(k) for j in range(min(k, 2))]
            cells += [(0, j) for j in range(2, k)]
            subset = Cofactors(k, cells)
            for _ in range(10):
                m = rng.uniform(-2.0, 2.0, (k, k))
                det_full, adj_full = det_adjugate_batch(m[None])
                assert abs(det_full[0] - leibniz_det(m)) <= 1e-12 * max(1.0, abs(det_full[0]))
                np.testing.assert_allclose(
                    subset(m), [adj_full[0, j, i] for i, j in cells], atol=1e-12
                )

    def test_batch_shapes(self):
        rng = np.random.default_rng(17)
        ms = rng.normal(size=(8, 5, 5))
        dets, adjs = det_adjugate_batch(ms)
        assert dets.shape == (8,)
        assert adjs.shape == (8, 5, 5)
        for k in range(8):
            np.testing.assert_allclose(adjs[k], adjugate(ms[k]), atol=1e-12)
            # A member's bits do not depend on the stack it sits in.
            one_det, one_adj = det_adjugate_batch(ms[k : k + 1])
            assert one_det.tobytes() == dets[k : k + 1].tobytes()
            assert one_adj.tobytes() == adjs[k : k + 1].tobytes()

    def test_fewer_rows_carry_the_full_adjugate_bits(self):
        # The law mixes with m adjugate rows of an (R, S, k, k) stack, every
        # other caller with all k: the determinant and the shared rows keep
        # their bits whatever the row count and the stack's shape.
        rng = np.random.default_rng(23)
        for k in range(1, 9):
            ms = rng.normal(size=(3, 4, k, k))
            dets, adjs = det_adjugate_batch(ms.reshape(12, k, k))
            for rows in range(1, k + 1):
                det_rows, adj_rows = det_adjugate_rows(ms, rows)
                assert adj_rows.shape == (3, 4, rows, k)
                assert det_rows.reshape(12).tobytes() == dets.tobytes()
                assert adj_rows.reshape(12, rows, k).tobytes() == adjs[:, :rows].tobytes()

    def test_first_term_of_every_level_is_positive(self):
        # A level's first term takes columns 0..half-1, sign exponent
        # half*(half-1), so its product is stored without a negation.
        for k in range(1, MAX_SIDE + 1):
            tables = [Cofactors(k, [(i, j) for i in range(k) for j in range(k)])]
            tables += [_mixing_cofactors(k, rows) for rows in range(1, k + 1)]
            for table in tables:
                assert all(signs[0] == 1.0 for *_, signs in table._levels), k

    def test_batched_det_small_matches_lapack(self):
        # LAPACK serves only as an oracle here; the library never calls it.
        rng = np.random.default_rng(19)
        for k in range(1, 5):
            ms = rng.normal(size=(30, k, k))
            np.testing.assert_allclose(
                det_adjugate_batch(ms)[0], np.linalg.det(ms), atol=1e-12
            )

    def test_duplicate_rows_give_exact_zero(self):
        row = np.array([0.0, 0.0, 1.0, 0.0])
        m = np.tile(row, (4, 1))
        assert det_adjugate_batch(m[None])[0][0] == 0.0


def special_values(rng, shape):
    """Normal entries with NaN, infinities and zeros of both signs mixed in."""
    ms = rng.normal(size=shape)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    picked = rng.random(shape) < 0.2
    ms[picked] = rng.choice(specials, size=int(picked.sum()))
    return ms


class TestStorage:
    """Mixing into storage the caller owns and reuses, against fresh
    evaluations of the same stacks."""

    def fresh_and_reused(self, ms, rows, storage):
        fresh = det_adjugate_rows(ms, rows)
        reused = det_adjugate_rows(ms, rows, storage)
        for array in reused:
            assert not np.shares_memory(array, storage)
        return fresh, reused

    def assert_same_bits(self, fresh, reused):
        for a, b in zip(fresh, reused):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_successive_shapes_and_row_counts_share_one_storage(self):
        # One array, sized for the largest call, serves every batch shape
        # and row count in turn; each call starts over whatever the last
        # one left in it.
        rng = np.random.default_rng(29)
        k = 5
        storage = np.full(max(_mixing_cofactors(k, rows).floats(24) for rows in range(1, k + 1)), np.nan)
        for shape in [(24,), (2, 3), (4, 1, 6), (1,), (3, 8), (12,)]:
            for rows in (2, k, 1, 3):
                ms = rng.normal(size=shape + (k, k))
                self.assert_same_bits(*self.fresh_and_reused(ms, rows, storage))

    def test_a_batch_smaller_than_the_storage(self):
        rng = np.random.default_rng(31)
        for k in range(1, MAX_SIDE + 1):
            storage = np.empty(_mixing_cofactors(k, 2 if k > 1 else 1).floats(40))
            for count in (1, 7, 40):
                ms = rng.normal(size=(count, k, k))
                self.assert_same_bits(*self.fresh_and_reused(ms, min(2, k), storage))

    def test_nan_inf_and_signed_zeros(self):
        rng = np.random.default_rng(37)
        storage = np.empty(_mixing_cofactors(5, 2).floats(4 * 16))
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(5):
                ms = special_values(rng, (16, 4, 5, 5))
                fresh, reused = self.fresh_and_reused(ms, 2, storage)
                self.assert_same_bits(fresh, reused)
        assert not np.isfinite(fresh[0]).all()
        # A matrix of signed zeros keeps the signs of its fresh evaluation.
        zeros = np.where(rng.random((3, 5, 5)) < 0.5, -0.0, 0.0)
        self.assert_same_bits(*self.fresh_and_reused(zeros, 2, storage))

    def test_a_call_after_a_non_finite_batch_is_unaffected(self):
        rng = np.random.default_rng(41)
        ms = rng.normal(size=(8, 4, 5, 5))
        storage = np.empty(_mixing_cofactors(5, 2).floats(ms.shape[0] * ms.shape[1]))
        clean = det_adjugate_rows(ms, 2, storage)
        with np.errstate(invalid="ignore", over="ignore"):
            det_adjugate_rows(np.full(ms.shape, np.nan), 2, storage)
            det_adjugate_rows(special_values(rng, ms.shape), 2, storage)
        self.assert_same_bits(clean, det_adjugate_rows(ms, 2, storage))
        self.assert_same_bits(clean, det_adjugate_rows(ms, 2))

    def test_too_small_a_storage_is_rejected(self):
        ms = np.eye(4)[None].repeat(3, axis=0)
        with pytest.raises(ValueError, match="needed"):
            det_adjugate_rows(ms, 4, np.empty(_mixing_cofactors(4, 4).floats(2)))


def bracket_real_root(coeffs, lo=-1e4, hi=0.0, iters=200):
    """Bisection oracle for one real root of a cubic inside [lo, hi]."""

    def p(x):
        return ((coeffs[0] * x + coeffs[1]) * x + coeffs[2]) * x + coeffs[3]

    flo, fhi = p(lo), p(hi)
    assert flo * fhi < 0, "bracket does not straddle a root"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * p(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, p(mid)
    return 0.5 * (lo + hi)


class TestHurwitz:
    def test_stable_diagonal(self):
        assert hurwitz_verdict(np.diag([-1.0, -2.0, -3.0])).stable is True

    def test_pure_rotation_is_marginal(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        verdict = hurwitz_verdict(m)
        assert verdict.stable is False
        assert verdict.indeterminate is True

    def test_out_of_float_range_is_indeterminate_without_warnings(self):
        # Beyond the float range the verdict is indeterminate, an expected
        # outcome, and the overflow raises no warning: in the characteristic
        # polynomial, and in the Routh array (inf / inf in its fourth row).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [
                hurwitz_verdict(np.full((2, 2), 1e300) - np.diag([2.0, 0.0])),
                routh_verdict([1.0, 1e200, 1e200, 1.0, 1.0]),
            ]
        for verdict in verdicts:
            assert verdict.stable is False
            assert verdict.indeterminate is True

    def test_unstable_saddle_not_marginal(self):
        verdict = hurwitz_verdict(np.diag([1.0, -1.0]))
        assert verdict.stable is False
        assert verdict.indeterminate is False

    def test_chua_observer_loop_stable_with_root_bracketing_oracle(self):
        from dremobs.plant import CHUA_OBSERVER_GAIN, chua_preset

        model = chua_preset()
        m = model.a - np.outer(CHUA_OBSERVER_GAIN, model.c)
        coeffs = characteristic_polynomial(m)
        # One real root by bisection, then deflate to a quadratic.
        r = bracket_real_root(coeffs)
        assert r < 0
        b1 = coeffs[0]
        b2 = coeffs[1] + r * b1
        b3 = coeffs[2] + r * b2
        disc = b2 * b2 - 4.0 * b1 * b3
        if disc >= 0:
            roots = [(-b2 + math.sqrt(disc)) / 2, (-b2 - math.sqrt(disc)) / 2]
            assert max(roots) < 0
        else:
            assert -b2 / 2 < 0  # real part of the complex pair
        assert hurwitz_verdict(m).stable is True

    def test_agrees_with_eigenvalue_sign_oracle(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            m = rng.normal(scale=2.0, size=(3, 3))
            real_parts = np.linalg.eigvals(m).real
            if np.abs(real_parts).min() < 1e-3:
                continue  # skip near-marginal draws
            assert hurwitz_verdict(m).stable == bool(real_parts.max() < 0)
            checked += 1

    def test_characteristic_polynomial_constant_term(self):
        rng = np.random.default_rng(29)
        for k in range(1, 6):
            m = rng.normal(size=(k, k))
            coeffs = characteristic_polynomial(m)
            np.testing.assert_allclose(
                coeffs[-1], (-1.0) ** k * determinant(m), rtol=1e-9, atol=1e-12
            )

    def test_characteristic_polynomial_matches_numpy(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 4))
        np.testing.assert_allclose(characteristic_polynomial(m), np.poly(m), rtol=1e-9)

    def test_routh_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            routh_verdict([0.0, 1.0])

    def test_routh_degree_one(self):
        assert routh_verdict([1.0, 2.0]).stable is True
        assert routh_verdict([1.0, -2.0]).stable is False

    def test_routh_positive_coeffs_can_still_fail(self):
        # All coefficients positive yet a right-half-plane pair exists.
        coeffs = [1.0, 1.0, 4.0, 30.0]
        verdict = routh_verdict(coeffs)
        oracle = bool(np.roots(coeffs).real.max() < 0)
        assert oracle is False
        assert verdict.stable is False
        assert verdict.indeterminate is False


class TestUnitDisc:
    """``unit_disc_verdict(offset)`` judges I + offset against the unit
    circle, with an eigenvalue solver as the oracle."""

    def test_agrees_with_eigenvalue_modulus_oracle(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 200:
            k = 1 + checked % 5
            matrix = rng.normal(scale=0.6, size=(k, k))
            radius = np.abs(np.linalg.eigvals(matrix)).max()
            if abs(radius - 1.0) < 1e-3:
                continue  # skip near-marginal draws
            assert unit_disc_verdict(matrix - np.eye(k)).stable == bool(radius < 1.0)
            checked += 1

    def test_small_offsets_keep_their_verdict(self):
        # I + offset within about 1e-6 of the identity, as an RK4 step
        # polynomial of slow poles at a small step is.  Mapped from the
        # characteristic polynomial of I + offset itself, whose small
        # coefficients cancellation rounds away, this stable matrix would
        # be judged unstable; from that of the offset, both verdicts hold.
        slow = 1e-6 * (np.diag([-1.0, -2.0, -0.5]) + 0.1 * np.eye(3, k=1))
        assert unit_disc_verdict(slow).stable is True
        assert unit_disc_verdict(slow + np.diag([0.0, 0.0, 1e-6])).stable is False

    def test_eigenvalue_on_the_circle_is_not_stable(self):
        assert unit_disc_verdict(np.diag([-2.0, -0.5])).stable is False  # eigenvalue -1
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
        verdict = unit_disc_verdict(rotation - np.eye(2))
        assert verdict.stable is False and verdict.indeterminate is True

    def test_out_of_float_range_is_indeterminate_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [unit_disc_verdict([[np.inf]]), unit_disc_verdict(np.full((3, 3), 1e200))]
        for verdict in verdicts:
            assert verdict.stable is False and verdict.indeterminate is True
