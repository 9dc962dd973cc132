"""Truncated spectral pseudo-inverse behavior, its eigensolve included."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftagg.errors import DimensionError
from shiftagg.linalg import TruncatedInverse, spectral_pinv


def psd_matrices(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        ).map(lambda vals: (lambda b: b @ b.T)(np.array(vals).reshape(n, n)))
    )


class TestSymEig:
    """The symmetric eigensolve inside spectral_pinv: input checks and the spectrum."""

    def test_diagonal_matrix(self):
        info = spectral_pinv(np.diag([0.2, 4.0]), 0.0)
        assert np.array_equal(info.eigenvalues, [4.0, 0.2])
        assert np.array_equal(info.inverse, np.diag([5.0, 0.25]))

    def test_classic_two_by_two(self):
        info = spectral_pinv(np.array([[2.0, 1.0], [1.0, 2.0]]), 0.0)
        assert np.allclose(info.eigenvalues, [3.0, 1.0])

    def test_reconstruction_random_five_by_five(self, rng):
        b = rng.normal(size=(5, 5))
        a = b @ b.T + np.eye(5)
        inverse = spectral_pinv(a, 0.0).inverse
        assert np.max(np.abs(a @ inverse - np.eye(5))) <= 1e-8

    def test_eigenvalues_sorted_descending(self, rng):
        b = rng.normal(size=(7, 7))
        values = spectral_pinv(b @ b.T, 0.0).eigenvalues
        assert np.all(np.diff(values) <= 0)

    def test_orthonormal_eigenvectors(self, rng):
        # With orthonormal eigenvectors, inverse @ a projects onto the
        # retained eigenvectors: symmetric, idempotent, trace = retained rank.
        b = rng.normal(size=(6, 3))
        a = b @ b.T
        info = spectral_pinv(a, 1e-9)
        projector = info.inverse @ a
        assert info.rank_retained == 3
        assert np.allclose(projector, projector.T, atol=1e-10)
        assert np.allclose(projector @ projector, projector, atol=1e-10)
        assert np.trace(projector) == pytest.approx(3.0, abs=1e-10)

    @given(psd_matrices())
    def test_eigenvalue_sum_equals_trace(self, a):
        values = spectral_pinv(a, 0.0).eigenvalues
        assert abs(values.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            spectral_pinv(np.zeros((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_pinv(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_asymmetry_rejected_at_small_scale(self):
        # The symmetry tolerance is relative to max|A| alone.
        a = 1e-9 * np.eye(2)
        a[0, 1] = 5e-10
        with pytest.raises(ValueError, match="symmetric"):
            spectral_pinv(a)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            spectral_pinv(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSpectralPinv:
    def test_diagonal_threshold_exact(self):
        inverse = spectral_pinv(np.diag([4.0, 0.2]), 0.1).inverse
        assert np.array_equal(inverse, np.diag([0.25, 0.0]))

    def test_identity_unchanged(self):
        assert np.allclose(spectral_pinv(np.eye(3), 0.1).inverse, np.eye(3), atol=1e-14)

    def test_well_conditioned_exact_inverse(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        inverse = spectral_pinv(a, 0.1).inverse
        assert np.allclose(inverse, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-12)
        assert np.allclose(a @ inverse, np.eye(2), atol=1e-12)

    def test_zero_matrix_gives_zero_inverse(self):
        info = spectral_pinv(np.zeros((3, 3)), 0.1)
        assert np.array_equal(info.inverse, np.zeros((3, 3)))
        assert info.rank_retained == 0
        assert info.condition == float("inf")

    def test_empty_matrix_rejected(self):
        # No estimator builds a Gram of zero models: checked_stack refuses the stack first.
        with pytest.raises(DimensionError, match="non-empty square"):
            spectral_pinv(np.zeros((0, 0)), 0.1)

    def test_small_negative_eigenvalue_clamped(self):
        a = np.diag([1.0, -1e-13])
        info = spectral_pinv(a, 0.1)
        assert info.rank_retained == 1
        assert np.array_equal(info.eigenvalues, [1.0, 0.0])

    def test_clearly_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            spectral_pinv(np.diag([1.0, -1.0]), 0.1)

    def test_indefinite_rejected_at_small_scale(self):
        # The PSD tolerance is relative to lambda_max alone, so a tiny matrix
        # gets no absolute slack.
        with pytest.raises(ValueError, match="positive semi-definite"):
            spectral_pinv(np.diag([1e-9, -5e-9]), 0.1)

    def test_tiny_valid_gram_still_solves(self):
        a = 1e-12 * np.array([[2.0, 1.0], [1.0, 2.0]])
        info = spectral_pinv(a, 0.1)
        assert info.rank_retained == 2
        assert np.allclose(a @ info.inverse, np.eye(2), atol=1e-9)

    def test_negative_rcond_rejected(self):
        with pytest.raises(ValueError, match="rcond"):
            spectral_pinv(np.eye(2), -0.5)

    @pytest.mark.parametrize("rcond", [np.nan, 1.0, 2.0, np.inf])
    def test_rcond_outside_unit_interval_rejected(self, rcond):
        # No eigenvalue compares above a NaN cutoff, so an unchecked NaN
        # would read as "keep nothing" and blame the models.
        with pytest.raises(ValueError, match="rcond"):
            spectral_pinv(np.eye(2), rcond)

    def test_diagnostics_on_rank_deficient(self):
        info = spectral_pinv(np.diag([8.0, 2.0, 0.0]), 0.1)
        assert isinstance(info, TruncatedInverse)
        assert info.rank_retained == 2
        assert info.condition == pytest.approx(4.0)

    @given(psd_matrices())
    def test_reflexivity_on_retained_spectrum(self, a):
        # rcond 1e-12 rather than exactly 0: exact zero eigenvalues surface
        # from LAPACK as ~1e-16 noise, and inverting those makes the identity
        # unattainable in floats for any implementation.
        inverse = spectral_pinv(a, 1e-12).inverse
        scale = max(1.0, float(np.max(np.abs(inverse))))
        assert np.max(np.abs(inverse @ a @ inverse - inverse)) <= 1e-8 * scale

    @given(psd_matrices())
    def test_result_symmetric(self, a):
        inverse = spectral_pinv(a, 0.1).inverse
        assert np.array_equal(inverse, inverse.T)

    @given(psd_matrices())
    def test_raising_rcond_never_raises_rank(self, a):
        ranks = [spectral_pinv(a, rcond).rank_retained for rcond in (0.0, 0.1, 0.5, 0.9)]
        assert all(later <= earlier for earlier, later in zip(ranks, ranks[1:]))


class TestSolveRegularized:
    """Solving a x = b as spectral_pinv(a).inverse @ b."""

    @staticmethod
    def solve(a, b, rcond):
        return spectral_pinv(a, rcond).inverse @ b

    def test_identity_system(self):
        assert np.array_equal(self.solve(np.eye(2), np.array([3.0, 5.0]), 0.1), [3.0, 5.0])

    def test_thresholded_direction_dropped(self):
        x = self.solve(np.diag([2.0, 1e-6]), np.array([4.0, 1.0]), 0.1)
        assert np.array_equal(x, [2.0, 0.0])

    def test_hand_solved_system(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, 1.0])
        x = self.solve(a, b, 0.1)
        assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)
        assert np.allclose(a @ x, b, atol=1e-12)
