"""Symmetric eigendecomposition and rcond-truncated pseudo-inversion.

Aggregation weights come from empirical Gram systems that are positive
semi-definite by construction but frequently near-rank-deficient (model
sequences contain near-duplicates). Every solve in this package therefore
goes through a truncated spectral pseudo-inverse: eigenvalues at or below
``rcond`` times the largest eigenvalue are treated as exact zeros instead
of being inverted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

DEFAULT_RCOND = 1e-1

# Tolerance for the input symmetry check in sym_eig, relative to max|A|.
SYMMETRY_TOL = 1e-9

# How far below zero an eigenvalue may sit (relative to the largest one)
# before the matrix is rejected as not positive semi-definite.
PSD_TOL = 1e-8


def _as_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with eigenvalues sorted in descending
    order and the matching eigenvectors in the columns of ``vectors``.
    The input is symmetrized as (A + A^T)/2 after checking that the
    asymmetry does not exceed ``SYMMETRY_TOL`` relative to max|A|, so the
    check means the same at every scale of A.
    """
    a = _as_square(a)
    if a.size:
        scale = float(np.max(np.abs(a)))
        asym = float(np.max(np.abs(a - a.T)))
        if asym > SYMMETRY_TOL * scale:
            raise ValueError(f"matrix is not symmetric: max|A - A^T| = {asym:.3e}")
    sym = 0.5 * (a + a.T)
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(
            f"eigendecomposition did not converge (LAPACK reports no sweep count): {exc}"
        ) from exc
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


@dataclass(frozen=True)
class TruncatedInverse:
    """A truncated spectral pseudo-inverse plus its spectrum diagnostics.

    ``eigenvalues`` are clamped to be non-negative and sorted descending;
    ``retained`` marks the ones that survived the rcond cutoff.
    """

    inverse: np.ndarray
    eigenvalues: np.ndarray
    retained: np.ndarray

    @property
    def rank_retained(self):
        return int(np.count_nonzero(self.retained))

    @property
    def condition(self):
        """Ratio of the largest retained eigenvalue to the smallest retained one."""
        kept = self.eigenvalues[self.retained]
        if kept.size == 0:
            return float("inf")
        return float(kept[0] / kept[-1])


def spectral_pinv(a, rcond=DEFAULT_RCOND):
    """rcond-truncated pseudo-inverse of a symmetric PSD matrix.

    Eigenvalues are clamped at zero (small negative values are numerical
    noise; the matrix is rejected when the smallest one lies below
    -PSD_TOL * lambda_max), then every eigenvalue <= rcond * lambda_max is
    treated as an exact zero. If nothing survives, the inverse is the zero
    matrix.
    """
    if rcond < 0:
        raise ValueError(f"rcond must be non-negative, got {rcond}")
    values, vectors = sym_eig(a)
    n = values.size
    if n == 0:
        empty = np.zeros((0, 0))
        return TruncatedInverse(empty, values, np.zeros(0, dtype=bool))
    lam_max = float(values[0])
    if values[-1] < -PSD_TOL * lam_max:
        raise ValueError(
            f"matrix is not positive semi-definite: smallest eigenvalue {values[-1]:.3e}"
        )
    clamped = np.maximum(values, 0.0)
    cutoff = rcond * clamped[0]
    retained = clamped > cutoff
    inv_values = np.zeros(n)
    inv_values[retained] = 1.0 / clamped[retained]
    inverse = (vectors * inv_values) @ vectors.T
    inverse = 0.5 * (inverse + inverse.T)
    return TruncatedInverse(inverse, clamped, retained)
