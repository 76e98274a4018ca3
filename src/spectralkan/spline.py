"""Uniform B-spline bases over an extended knot vector.

Every learnable activation in the network is a linear combination of the
basis functions produced here. The knot vector is uniform over
``[lo, hi]`` and extended ``degree`` spans beyond each side, which gives
``grid_size + degree`` basis functions. Inputs outside the domain are
evaluated as-is; basis values decay to zero outside their support, no
clamping or grid adaptation takes place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError


@dataclass(frozen=True)
class SplineGrid:
    """Degree, span count and domain of the shared basis.

    ``knots`` has ``grid_size + 2*degree + 1`` strictly increasing entries
    with uniform spacing ``(hi - lo) / grid_size``.
    """

    degree: int
    grid_size: int
    lo: float
    hi: float
    knots: np.ndarray = field(repr=False)

    @property
    def basis_count(self) -> int:
        return self.grid_size + self.degree


def make_grid(degree: int = 3, grid_size: int = 5,
              lo: float = -1.0, hi: float = 1.0) -> SplineGrid:
    """Build the uniform extended knot vector for the given settings."""
    if degree < 0:
        raise ContractError(f"degree must be non-negative, got {degree}")
    if grid_size < 1:
        raise ContractError(f"grid_size must be positive, got {grid_size}")
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ContractError(f"invalid domain [{lo}, {hi}]")
    h = (hi - lo) / grid_size
    idx = np.arange(-degree, grid_size + degree + 1, dtype=np.float64)
    knots = lo + idx * h
    return SplineGrid(degree=degree, grid_size=grid_size, lo=float(lo),
                      hi=float(hi), knots=knots)


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError("spline evaluation requires finite inputs")
    return x


def _degree_zero(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    xe = x[..., None]
    return ((xe >= knots[:-1]) & (xe < knots[1:])).astype(np.float64)


def _raise_degree(b: np.ndarray, knots: np.ndarray, x: np.ndarray,
                  up_to: int) -> np.ndarray:
    # Cox-de Boor recursion; uniform knots are strictly increasing, so no
    # zero denominators arise.
    xe = x[..., None]
    for d in range(1, up_to + 1):
        left = (xe - knots[:-(d + 1)]) / (knots[d:-1] - knots[:-(d + 1)])
        right = (knots[d + 1:] - xe) / (knots[d + 1:] - knots[1:-d])
        b = left * b[..., :-1] + right * b[..., 1:]
    return b


def basis_values(grid: SplineGrid, x) -> np.ndarray:
    """Evaluate all basis functions at ``x``.

    ``x`` may be a scalar or an array; the result has shape
    ``x.shape + (grid.basis_count,)``. Values are non-negative, and inside
    the domain they sum to one.
    """
    x = _check_finite(x)
    b = _degree_zero(grid.knots, x)
    return _raise_degree(b, grid.knots, x, grid.degree)


def basis_derivatives(grid: SplineGrid, x) -> np.ndarray:
    """First derivative of each basis function at ``x``.

    Uses the degree-reduction identity: the derivative of a degree-k basis
    function is a weighted difference of two degree-(k-1) functions.
    """
    x = _check_finite(x)
    k = grid.degree
    if k == 0:
        return np.zeros(x.shape + (grid.basis_count,), dtype=np.float64)
    t = grid.knots
    lower = _raise_degree(_degree_zero(t, x), t, x, k - 1)
    den_a = t[k:-1] - t[:-(k + 1)]
    den_b = t[k + 1:] - t[1:-k]
    return k * (lower[..., :-1] / den_a - lower[..., 1:] / den_b)

