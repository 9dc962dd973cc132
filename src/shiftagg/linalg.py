"""Rcond-truncated spectral pseudo-inversion of symmetric PSD matrices.

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

# Tolerance for the input symmetry check in spectral_pinv, relative to max|A|.
SYMMETRY_TOL = 1e-9

# How far below zero an eigenvalue may sit (relative to the largest one)
# before the matrix is rejected as not positive semi-definite.
PSD_TOL = 1e-8


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

    The input must be square and finite, and its asymmetry may not exceed
    SYMMETRY_TOL relative to max|A|, so the check means the same at every
    scale of A; it is then symmetrized as (A + A^T)/2 and decomposed, with
    the eigenvalues sorted in descending order. Eigenvalues are clamped at
    zero (small negative values are numerical noise; the matrix is rejected
    when the smallest one lies below -PSD_TOL * lambda_max), then every
    eigenvalue <= rcond * lambda_max, for rcond in [0, 1), is treated as an
    exact zero. If nothing survives, the inverse is the zero matrix.
    """
    if not 0 <= rcond < 1:
        raise ValueError(f"rcond must lie in [0, 1), got {rcond}")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if a.size:
        scale = float(np.max(np.abs(a)))
        asym = float(np.max(np.abs(a - a.T)))
        if asym > SYMMETRY_TOL * scale:
            raise ValueError(f"matrix is not symmetric: max|A - A^T| = {asym:.3e}")
    try:
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(
            f"eigendecomposition did not converge (LAPACK reports no sweep count): {exc}"
        ) from exc
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
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
