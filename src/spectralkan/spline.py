"""Uniform B-spline bases over an extended knot vector.

Every learnable activation in the network is a linear combination of the
basis functions produced here. The knot vector is uniform over
``[lo, hi]`` with spacing ``h = (hi - lo) / grid_size`` and extended
``degree`` spans beyond each side, which gives ``grid_size + degree``
basis functions. Inputs outside the domain are evaluated as-is, with no
clamping or grid adaptation.

Evaluation is local, as in de Boor's BSPLVB: each input ``x`` lies in one
knot span ``s`` with ``knots[s] <= x < knots[s+1]``, and only the
``degree + 1`` basis functions ``s - degree .. s`` are nonzero there.
Inputs outside ``[knots[0], knots[-1])`` lie in no span, and every basis
function is exactly zero there. The kernel walks the flattened input in
blocks of ``_BLOCK_INPUTS`` (8,192) inputs, the block size of both
kernels here, and makes three kinds of pass over each block, each an
array operation written in place where it can be. The result values a
block writes dominate its memory; at the default grid they take 512 KiB,
so that a block's result rows and temporaries stay in cache from one pass
to the next. Every input goes through the same operations in the same
order whatever the block size, so blocking changes no bit of the result:

1. *Span and offset.* ``x`` is bounded to the knot range, the span is
   estimated from the spacing and corrected by one comparison with the
   knot on each side, and the offset is ``u = min((x - knots[s]) / h, 1)``.
2. *Weights.* The recursion runs on ``u`` with weights ``w`` starting at
   ``[1.0]``; for ``j = 1 .. degree`` and ``r = 0 .. j-1`` it computes
   ``temp = w[r] / j``, ``w[r] = saved + (r + 1 - u) * temp`` and
   ``saved = (u + (j - 1 - r)) * temp``, with ``saved = 0.0`` at the
   start of each ``j`` and ``w[j] = saved`` at its end. The code starts
   from the ``j = 1`` result ``[1 - u, u + 0]`` and skips adding the
   ``0.0``, which changes no bit, since every term is non-negative and
   ``u + 0`` turns an offset of ``-0.0`` into ``+0.0``. A derivative is
   ``(v[r-1] - v[r]) / h`` over the degree-``(k-1)`` weights ``v``, a
   missing one counting as ``0.0``.
3. *Scatter.* The block's rows of the result are zeroed, and weight
   ``r`` goes to column ``s - degree + r``. One test of the column,
   viewed as unsigned, against ``basis_count`` finds every column outside
   ``0 .. basis_count - 1``, negative ones included; their writes go to a
   spare slot past the result.

The shared KAN layer needs only the spline ``coeff[i] @ B(x)`` of each
input, not the basis, and ``_pp_spline`` gives it in de Boor's
piecewise-polynomial form (BSPLPP/PPVALU) without building the basis. On
a span the ``degree + 1`` nonzero weights are polynomials in the offset,
``w = M @ [1, u, ..., u**degree]``, ``M`` exact to one rounding
(``_power_matrix``). The evaluator runs in three steps:

1. *Table,* built by the caller with ``_pp_table`` and passed in, so
   that one table serves every batch run through the same coefficients:
   ``T[m, i, s] = coeff[i, s-k .. s] @ M[:, m]`` for every input node
   ``i`` and span ``s``, a coefficient beyond the knot vector counting as
   zero, with all-zero rows for the spans -1 and ``len(knots) - 1``
   outside the knots.
2. *Span and offset,* per block of ``_row_blocks``, which the KAN
   backward walks too: ``x`` is bounded to ``[knots[0] - h/2, knots[-1]]``,
   then ``z = (x - knots[0]) * (1/h)``, ``s = min(floor(z), spans - 1)``
   and ``u = z - s``. Below the knots ``floor(z)`` is -1; at or above the
   last knot one comparison moves ``s`` to the zero row past the last
   span, so every input outside ``[knots[0], knots[-1])`` gives an exact
   zero. The estimate needs no correction next to a knot: the spline is
   continuous there, so an offset just past 0 or 1 on the neighbouring
   span changes it by rounding only. A degree-0 spline is a step, so it
   takes its span from ``_span_offset``'s exact search.
3. *Horner,* on the block: ``val = T[k, i, s]``, then for ``m = k-1 .. 0``
   ``val = val * u + T[m, i, s]``, each power's coefficients gathered with
   ``take`` on the flat table.

Its result agrees with ``einsum(basis_values(grid, x), coeff)`` to about
1e-15 and is the same bit for bit at any block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContractError, DomainError, _integer, _real


_MAX_KNOTS = 4096  # far above any grid in use; bounds what a header can ask for
# Inputs per block of both kernels and of ``_row_blocks``. A dense block at
# the default grid writes 512 KiB of float64, so that one block's result
# and temporaries stay in a 2 MiB L2 cache between the passes.
_BLOCK_INPUTS = 2**13


@dataclass(frozen=True)
class SplineGrid:
    """Degree, span count and domain of the shared basis.

    The four settings are the grid: equality and hashing go by them alone.
    ``knots``, derived from them and read-only, has
    ``grid_size + 2*degree + 1`` strictly increasing entries, at most
    ``_MAX_KNOTS``, with uniform ``spacing``.
    """

    degree: int = 3
    grid_size: int = 5
    lo: float = -1.0
    hi: float = 1.0
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        degree = _integer("degree", self.degree)
        grid_size = _integer("grid_size", self.grid_size)
        lo, hi = _real("lo", self.lo), _real("hi", self.hi)
        if degree < 0:
            raise ContractError(f"degree must be non-negative, got {degree}")
        if grid_size < 1:
            raise ContractError(f"grid_size must be positive, got {grid_size}")
        if grid_size + 2 * degree + 1 > _MAX_KNOTS:
            raise ContractError(f"grid_size + 2*degree + 1 exceeds {_MAX_KNOTS} knots")
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ContractError(f"invalid domain [{lo}, {hi}]")
        idx = np.arange(-degree, grid_size + degree + 1, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            knots = lo + idx * ((hi - lo) / grid_size)
            # The span search needs strictly increasing knots whose whole
            # extent is finite, so that no difference of two of them overflows.
            if not (np.isfinite(knots[-1] - knots[0]) and np.all(np.diff(knots) > 0)):
                raise ContractError(f"domain [{lo}, {hi}] gives knots that are not "
                                    f"strictly increasing within the float range")
        knots.flags.writeable = False
        # The dataclass is frozen, so the derived fields go in directly.
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "grid_size", grid_size)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "knots", knots)

    @property
    def basis_count(self) -> int:
        return self.grid_size + self.degree

    @property
    def spacing(self) -> float:
        """The uniform knot spacing ``h``."""
        return (self.hi - self.lo) / self.grid_size


def _span_offset(grid: SplineGrid, x: np.ndarray):
    """Knot span and fractional offset of each input of the 1-D ``x``.

    The span obeys ``knots[s] <= x < knots[s+1]``; it is -1 below the
    knots and ``len(knots) - 1`` at or above the last one. The estimate
    from the uniform spacing can be one off next to a knot, so one
    comparison with the knots on each side settles it. Bounding ``x`` to
    the knot range first keeps the arithmetic finite for any finite input.
    """
    t = grid.knots
    h = grid.spacing
    xc = np.maximum(x, t[0])
    np.minimum(xc, t[-1], out=xc)
    u = np.subtract(xc, t[0])
    u /= h
    span = u.astype(np.intp)
    np.minimum(span, len(t) - 2, out=span)
    span -= x < t.take(span)
    span += x >= t.take(span + 1)
    # A span outside the knots gets an offset from the end knot; every
    # weight of such an input is dropped, so its value does not matter.
    np.subtract(xc, t.take(span, mode="clip"), out=u)
    u /= h
    # The knots are rounded multiples of h, so just below knots[s+1] the
    # offset can round past 1 and turn a weight slightly negative.
    np.minimum(u, 1.0, out=u)
    return span, u


def _local_basis(u: np.ndarray, degree: int) -> np.ndarray:
    """The ``degree + 1`` basis functions that are nonzero on a span.

    ``w[r]`` is the value of function ``s - degree + r`` at offset ``u``
    into span ``s``; on uniform knots every denominator of the recursion
    is ``j`` spacings. Each step writes its weight in place, and the
    recursion starts from its degree-1 result ``[1 - u, u + 0]``.
    """
    w = np.empty((degree + 1,) + u.shape)
    if degree == 0:
        w[0] = 1.0
        return w
    np.subtract(1.0, u, out=w[0])
    np.add(u, 0.0, out=w[1])  # -0.0 becomes +0.0, as in the step it replaces
    temp, saved = np.empty_like(u), np.empty_like(u)
    for j in range(2, degree + 1):
        for r in range(j):
            np.divide(w[r], j, out=temp)
            np.subtract(r + 1, u, out=w[r])
            w[r] *= temp
            if r:
                w[r] += saved
            # The last step's ``saved`` is the new weight w[j].
            out = w[j] if r == j - 1 else saved
            np.add(u, j - 1 - r, out=out)
            out *= temp
    return w


def _local_derivatives(u: np.ndarray, degree: int, h: float) -> np.ndarray:
    """First derivatives of the ``degree + 1`` functions nonzero on a span.

    ``d[r] = (v[r-1] - v[r]) / h`` over the degree-``(degree-1)`` weights
    ``v``, a missing one counting as ``0.0``; at degree 0 every
    derivative is zero.
    """
    d = np.empty((degree + 1,) + u.shape)
    if degree == 0:
        d[0] = 0.0
        return d
    lower = _local_basis(u, degree - 1)
    np.subtract(0.0, lower[0], out=d[0])
    np.subtract(lower[:-1], lower[1:], out=d[1:-1])
    d[degree] = lower[degree - 1]
    d /= h
    return d


def _row_blocks(n: int, d_in: int) -> list[slice]:
    """Consecutive slices of ``max(1, _BLOCK_INPUTS // d_in)`` whole rows
    covering ``n`` rows of ``d_in`` inputs: the blocks of ``_pp_spline``
    and of both KAN backward passes."""
    step = max(1, _BLOCK_INPUTS // d_in)
    return [slice(start, start + step) for start in range(0, n, step)]


def _blocked(grid: SplineGrid, x, local) -> np.ndarray:
    """The dense result of ``local``'s weights at every input, block by block.

    ``local(u)`` gives the ``degree + 1`` weights at the offsets ``u``.
    Each block checks its inputs, finds their spans and weights, zeroes
    its rows of the result and writes ``w[r]`` into column
    ``span - degree + r``. Columns outside ``0 .. basis_count - 1``
    belong to functions beyond the knot vector, or to inputs outside
    every span; their writes go to one spare slot past the end of the
    buffer, which the result excludes.
    """
    x = np.asarray(x, dtype=np.float64)
    xs = x.reshape(-1)
    nb = grid.basis_count
    n = xs.size
    spare = n * nb
    flat = np.empty(spare + 1)
    block = _BLOCK_INPUTS
    for start in range(0, n, block):
        xb = xs[start:start + block]
        if not np.all(np.isfinite(xb)):
            raise DomainError("spline evaluation requires finite inputs")
        span, u = _span_offset(grid, xb)
        w = local(u)
        stop = start + xb.size
        flat[start * nb:stop * nb] = 0.0
        col = span - grid.degree
        # ``base + spare`` is the flat index of each input's column ``col``,
        # so zeroing ``base`` where the column is outside points to the spare.
        base = np.arange((start - n) * nb, (stop - n) * nb, nb)
        base += col
        idx = np.empty_like(base)
        inside = np.empty(xb.size, dtype=bool)
        for r in range(grid.degree + 1):
            np.less(col.view(np.uintp), nb, out=inside)
            np.multiply(base, inside, out=idx)
            idx += spare
            flat[idx] = w[r]
            col += 1
            base += 1
    return flat[:-1].reshape(x.shape + (nb,))


@lru_cache(maxsize=None)
def _power_matrix(k: int) -> np.ndarray:
    """``M`` with ``_local_basis(u, k) == M @ [1, u, ..., u**k]``, each entry
    exact to one rounding: the uniform B-spline's closed form ``M[r, p] =
    C(k, p) * sum_{j=0..k-r} (-1)**j C(k+1, j) (k-r-j)**(k-p) / k!`` is
    summed in integers and divided once."""
    m = np.array([[math.comb(k, p) * sum(
        (-1) ** j * math.comb(k + 1, j) * (k - r - j) ** (k - p)
        for j in range(k - r + 1)) / math.factorial(k)
        for p in range(k + 1)] for r in range(k + 1)])
    m.flags.writeable = False
    return m


def _pp_table(grid: SplineGrid, coeff: np.ndarray) -> np.ndarray:
    """Power coefficients of each input's spline on each span, flattened.

    ``table[m, i * (spans + 2) + s + 1]`` is the coefficient of ``u**m``
    of input ``i``'s spline on span ``s``, ``coeff[i, s-k .. s] @ M``, a
    coefficient beyond the knot vector counting as zero. The rows for
    spans -1 and ``spans``, outside the knots, are zero.
    """
    k = grid.degree
    spans = len(grid.knots) - 1
    d_in, nb = coeff.shape
    # windows[r, i, s + 1] = coeff[i, s - k + r], zero past either end.
    windows = np.zeros((k + 1, d_in, spans + 2))
    for r in range(k + 1):
        windows[r, :, k + 1 - r:k + 1 - r + nb] = coeff
    return _power_matrix(k).T @ windows.reshape(k + 1, -1)


def _pp_spline(grid: SplineGrid, table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``einsum("nit,it->ni", basis_values(grid, x), coeff)`` for the finite
    2-D ``x`` of shape ``(n, d_in)``, by the pp-form (steps in the module
    docstring) on ``table = _pp_table(grid, coeff)``; no basis tensor is
    built.
    """
    k, t, h = grid.degree, grid.knots, grid.spacing
    spans = len(t) - 1
    n, d_in = x.shape
    # Table index of span 0 of each input.
    first = np.arange(1, d_in * (spans + 2), spans + 2)
    out = np.empty((n, d_in))
    for rows in _row_blocks(n, d_in):
        xb, val = x[rows], out[rows]
        # Below the knots z lies in [-1/2, 0), so its floor is -1.
        u = np.minimum(np.maximum(xb, t[0] - 0.5 * h), t[-1])
        u -= t[0]
        u *= 1.0 / h
        f = np.minimum(np.floor(u), spans - 1)
        u -= f
        if k == 0:
            # A step function: its span must follow the knots exactly, where
            # a continuous one forgives an estimate one span off at a knot.
            span = _span_offset(grid, xb.reshape(-1))[0].reshape(xb.shape)
        else:
            span = f.astype(np.intp)
            span += xb >= t[-1]
        span += first
        # Every index is in range; "clip" lets take write to out unbuffered.
        np.take(table[k], span, out=val, mode="clip")
        for m in range(k - 1, -1, -1):
            val *= u
            val += table[m].take(span)
    return out


def basis_values(grid: SplineGrid, x) -> np.ndarray:
    """Evaluate all basis functions at ``x``.

    ``x`` may be a scalar or an array; the result has shape
    ``x.shape + (grid.basis_count,)``. Values are non-negative, and inside
    the domain they sum to one.
    """
    return _blocked(grid, x, lambda u: _local_basis(u, grid.degree))


def basis_derivatives(grid: SplineGrid, x) -> np.ndarray:
    """First derivative of each basis function at ``x``.

    Uses the degree-reduction identity: on uniform knots with spacing
    ``h``, the derivative of degree-k function ``i`` is the difference of
    degree-(k-1) functions ``i`` and ``i + 1``, divided by ``h``.
    """
    return _blocked(grid, x,
                    lambda u: _local_derivatives(u, grid.degree, grid.spacing))
