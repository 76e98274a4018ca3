"""Uniform B-spline bases over an extended knot vector.

Every learnable activation in the network is a linear combination of the
basis functions produced here. The knot vector is uniform over
``[lo, hi]`` with spacing ``h = (hi - lo) / grid_size`` and extended
``degree`` spans beyond each side, which gives ``grid_size + degree``
basis functions. Inputs outside the domain are evaluated as-is, with no
clamping or grid adaptation.

Evaluation is local, in de Boor's piecewise-polynomial form (BSPLPP):
each input ``x`` lies in one knot span ``s`` with
``knots[s] <= x < knots[s+1]``, and only the ``degree + 1`` basis
functions ``s - degree .. s`` are nonzero there. On every span their
values are the same polynomials in the offset ``u = (x - knots[s]) / h``,
``w = M @ [1, u, ..., u**degree]``, ``w[r]`` that of function
``s - degree + r``, with ``M`` exact to one rounding per entry
(``_power_matrix``). ``M`` is the one statement of these weights: the dense
kernel evaluates it, and the pp-form tabulates it against the
coefficients. Inputs outside ``[knots[0], knots[-1])`` lie in no span, and
every basis function is exactly zero there.

The dense kernel walks the flattened input in blocks of ``_BLOCK_INPUTS``
(8,192) inputs, the block size of both kernels here, and makes three
kinds of pass over each block, each an array operation written in place
where it can be. The result values a block writes dominate its memory; at
the default grid they take 512 KiB, so that a block's result rows and
temporaries stay in cache from one pass to the next. Every input goes
through the same operations in the same order whatever the block size, so
blocking changes no bit of the result:

1. *Span and offset.* ``x`` is bounded to the knot range, the span is
   estimated from the spacing and corrected by one comparison with the
   knot on each side, and the offset is ``u = min((x - knots[s]) / h, 1)``.
2. *Weights,* by Horner's rule on the rows of a coefficient matrix ``c``
   (``_horner``): ``w = c[:, -1]``, then ``w = w * u + c[:, p]`` for each
   lower power ``p``, highest first. For values ``c`` is ``M`` and the
   result is clamped with ``max(w, 0.0)``, since rounding leaves a weight
   near a span's end up to a few ulps below zero. For derivatives the
   coefficient of ``u**(p-1)`` is ``M[r, p] * (p / h)``, ``p = 1 ..
   degree``, with no clamp; at degree 0 the derivative is the zero
   polynomial, one ``0.0`` coefficient. The pp-form's step 3 is the same
   rule on its table.
3. *Scatter.* The block's rows of the result are zeroed, and weight
   ``r`` goes to column ``s - degree + r``. One test of the column,
   viewed as unsigned, against ``basis_count`` finds every column outside
   ``0 .. basis_count - 1``, negative ones included; their writes go to a
   spare slot past the result.

The shared KAN layer needs only the spline ``coeff[i] @ B(x)`` of each
input, not the basis, and ``_pp_spline`` gives it without building the
basis (de Boor's PPVALU). It runs in three steps:

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


def _horner(c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``w[r] = c[r] @ [1, u, u**2, ...]`` at every offset of the 1-D ``u``,
    by Horner's rule: ``w = c[:, -1]``, then ``w = w * u + c[:, p]`` for
    each lower power ``p``, highest first, each step written in place."""
    w = np.empty((len(c), u.size))
    w[...] = c[:, -1, None]
    for p in range(c.shape[1] - 2, -1, -1):
        w *= u
        w += c[:, p, None]
    return w


def _row_blocks(n: int, d_in: int) -> list[slice]:
    """Consecutive slices of ``max(1, _BLOCK_INPUTS // d_in)`` whole rows
    covering ``n`` rows of ``d_in`` inputs: the blocks of ``_pp_spline``
    and of both KAN backward passes."""
    step = max(1, _BLOCK_INPUTS // d_in)
    return [slice(start, start + step) for start in range(0, n, step)]


def _blocked(grid: SplineGrid, x, derivative: bool) -> np.ndarray:
    """All basis values, or their first derivatives, at every input, block
    by block (steps in the module docstring).

    Each block checks its inputs, finds their spans and weights, zeroes
    its rows of the result and writes ``w[r]`` into column
    ``span - degree + r``. Columns outside ``0 .. basis_count - 1``
    belong to functions beyond the knot vector, or to inputs outside
    every span; their writes go to one spare slot past the end of the
    buffer, which the result excludes.
    """
    k = grid.degree
    c = _power_matrix(k)
    if derivative:
        # d/dx of u**p is p * u**(p-1) / h; at degree 0, one 0.0 coefficient.
        d = np.zeros((k + 1, max(k, 1)))
        d[:, :k] = c[:, 1:] * (np.arange(1, k + 1) / grid.spacing)
        c = d
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
        w = _horner(c, u)
        if not derivative:
            # Rounding leaves a weight near a span's end up to a few ulps
            # below zero; a basis value never is.
            np.maximum(w, 0.0, out=w)
        stop = start + xb.size
        flat[start * nb:stop * nb] = 0.0
        col = span - k
        # ``base + spare`` is the flat index of each input's column ``col``,
        # so zeroing ``base`` where the column is outside points to the spare.
        base = np.arange((start - n) * nb, (stop - n) * nb, nb)
        base += col
        idx = np.empty_like(base)
        inside = np.empty(xb.size, dtype=bool)
        for r in range(k + 1):
            np.less(col.view(np.uintp), nb, out=inside)
            np.multiply(base, inside, out=idx)
            idx += spare
            flat[idx] = w[r]
            col += 1
            base += 1
    return flat[:-1].reshape(x.shape + (nb,))


@lru_cache(maxsize=None)
def _power_matrix(k: int) -> np.ndarray:
    """``M`` with ``w = M @ [1, u, ..., u**k]`` the ``k + 1`` nonzero basis
    values at offset ``u`` into span ``s``, ``w[r]`` that of function
    ``s - k + r``. Each entry is exact to one rounding: the uniform
    B-spline's closed form ``M[r, p] = C(k, p) * sum_{j=0..k-r} (-1)**j
    C(k+1, j) (k-r-j)**(k-p) / k!`` is summed in integers and divided
    once."""
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
    return _blocked(grid, x, False)


def basis_derivatives(grid: SplineGrid, x) -> np.ndarray:
    """First derivative of each basis function at ``x``.

    On a span with offset ``u = (x - knots[s]) / h`` each nonzero function
    is a polynomial in ``u``, so its derivative is that polynomial's
    derivative divided by the spacing ``h``.
    """
    return _blocked(grid, x, True)
