"""Independent reference implementations used only by the tests.

Everything here is deliberately written the slow, textbook way (scalar
recursion, explicit loops) so it shares no code path with the package.
"""

import math
from fractions import Fraction

import numpy as np


def naive_basis(x: float, k: int, i: int, knots) -> float:
    """Textbook Cox-de Boor recursion for a single basis function."""
    if k == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + k] != knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) \
            * naive_basis(x, k - 1, i, knots)
    right = 0.0
    if knots[i + k + 1] != knots[i + 1]:
        right = (knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1]) \
            * naive_basis(x, k - 1, i + 1, knots)
    return left + right


def naive_basis_vector(grid, x: float) -> np.ndarray:
    return np.array([naive_basis(float(x), grid.degree, i, grid.knots)
                     for i in range(grid.basis_count)])


def scalar_silu(x: float) -> float:
    return x / (1.0 + math.exp(-x))


def eval_layer_scalar(layer, row):
    """Evaluate one layer on one sample with plain Python loops."""
    if layer.kind == "dense":
        out = []
        for j in range(layer.d_out):
            z = float(layer.bias[j])
            for i, xi in enumerate(row):
                z += float(layer.weight[j, i]) * xi
            out.append(scalar_silu(z) if layer.activate else z)
        return out
    out = []
    for j in range(layer.d_out):
        acc = 0.0
        for i, xi in enumerate(row):
            if layer.kind == "full":
                coeff = layer.spline_coeff[j, i]
            else:
                coeff = layer.spline_coeff[i]
            spline = sum(float(coeff[t]) * naive_basis(xi, layer.grid.degree,
                                                       t, layer.grid.knots)
                         for t in range(layer.grid.basis_count))
            acc += float(layer.base_weight[j, i]) * scalar_silu(xi)
            acc += float(layer.spline_scale[j, i]) * spline
        out.append(acc)
    return out


def eval_model_scalar(model, patch):
    """Step-by-step composition of the two encoder stages for one patch."""
    p = model.config.patch_size
    b = model.config.bands
    patch = np.asarray(patch, dtype=np.float64)
    if model.config.variant.spatial_spectral:
        z = []
        for band in range(b):
            row = [float(patch[r, c, band]) for r in range(p) for c in range(p)]
            for layer in model.spatial_stack:
                row = eval_layer_scalar(layer, row)
            assert len(row) == 1
            z.append(row[0])
    else:
        z = [float(patch[r, c, band])
             for band in range(b) for r in range(p) for c in range(p)]
    for layer in model.spectral_stack:
        z = eval_layer_scalar(layer, z)
    return np.array(z)


def fd_loss_grads(loss_fn, arrays, step=1e-6):
    """Central finite differences of ``loss_fn()`` w.r.t. each array element."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat_a, flat_g = arr.reshape(-1), g.reshape(-1)
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + step
            up = loss_fn()
            flat_a[i] = orig - step
            down = loss_fn()
            flat_a[i] = orig
            flat_g[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric, floor=1e-8):
    """Worst elementwise relative error, ignoring sub-``floor`` differences."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        diff = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        mask = diff > floor
        if np.any(mask):
            worst = max(worst, float((diff[mask] / scale[mask]).max()))
    return worst


def naive_patch(values, row: int, col: int, p: int) -> np.ndarray:
    """The p x p window centered at (row, col), reflected one index at a time.

    An index past an edge is mirrored across it with the edge duplicated,
    and mirrored again until it lands inside the raster.
    """
    h, w = values.shape[:2]

    def reflect(i, n):
        while i < 0 or i >= n:
            i = -1 - i if i < 0 else 2 * n - 1 - i
        return i

    half = p // 2
    out = np.empty((p, p) + values.shape[2:], dtype=values.dtype)
    for dr in range(p):
        for dc in range(p):
            out[dr, dc] = values[reflect(row - half + dr, h),
                                 reflect(col - half + dc, w)]
    return out


def backward_every_input_grad(model, caches, grad_logits):
    """``Model.backward`` with every layer, the first too, building its
    input gradient: the reference that the first layer's skipped input
    gradient must not change any parameter gradient against."""
    layers = model.layers()
    g = np.asarray(grad_logits, dtype=np.float64)
    grads = []
    for i in reversed(range(len(layers))):
        if i == len(model.spatial_stack) - 1:
            g = g.reshape(-1, 1)
        g, layer_grads = layers[i].backward(caches[i], g, input_grad=True)
        grads[:0] = layer_grads
    return grads


def _scalar_span(grid, x: float):
    """The span ``s`` with ``knots[s] <= x < knots[s+1]``, by a linear search
    over the knots, and the offset ``min((x - knots[s]) / h, 1.0)``; both
    ``None`` outside the knots."""
    knots = [float(t) for t in grid.knots]
    span = next((s for s in range(len(knots) - 1)
                 if knots[s] <= x < knots[s + 1]), None)
    if span is None:
        return None, None
    h = (grid.hi - grid.lo) / grid.grid_size
    return span, min((x - knots[span]) / h, 1.0)


def scalar_bsplvb(grid, x: float, derivative: bool = False) -> np.ndarray:
    """All basis values (or first derivatives) at one float ``x``, by de
    Boor's span search and BSPLVB recursion in plain Python floats.

    It shares no arithmetic with the package's power form, so the two agree
    to rounding only. The span comes from ``_scalar_span``'s linear search
    over the knots, not from the spacing.
    """
    k = grid.degree
    h = (grid.hi - grid.lo) / grid.grid_size
    out = [0.0] * (grid.grid_size + k)
    if derivative and k == 0:
        return np.array(out)
    span, u = _scalar_span(grid, float(x))
    if span is None:
        return np.array(out)
    w = [1.0]
    for j in range(1, k if derivative else k + 1):
        saved = 0.0
        for r in range(j):
            temp = w[r] / j
            w[r] = saved + (r + 1 - u) * temp
            saved = (u + (j - 1 - r)) * temp
        w.append(saved)
    if derivative:
        # Function r is the degree-(k-1) function r - 1 minus function r,
        # a missing one counting as 0.0, over the spacing.
        w = [((w[r - 1] if r > 0 else 0.0) - (w[r] if r < k else 0.0)) / h
             for r in range(k + 1)]
    for r, value in enumerate(w):
        col = span - k + r
        if 0 <= col < len(out):
            out[col] = value
    return np.array(out)


def exact_power_matrix(k: int) -> list:
    """``M[r][p]``, the exact coefficient of ``u**p`` in weight ``r`` of a
    degree-``k`` span, as a ``Fraction``: the BSPLVB recursion of
    ``scalar_bsplvb`` run on polynomials in ``u``, each a list of its
    ``k + 1`` power coefficients."""
    def linear(a, b, poly):
        """``(a + b*u) * poly``; no product here exceeds degree ``k``."""
        return [a * poly[p] + (b * poly[p - 1] if p else 0) for p in range(k + 1)]

    w = [[Fraction(1)] + [Fraction(0)] * k]
    for j in range(1, k + 1):
        saved = [Fraction(0)] * (k + 1)
        for r in range(j):
            temp = [c / j for c in w[r]]
            w[r] = [s + t for s, t in zip(saved, linear(r + 1, -1, temp))]
            saved = linear(j - 1 - r, 1, temp)
        w.append(saved)
    return w


def scalar_power_form(grid, x: float, derivative: bool = False) -> np.ndarray:
    """All basis values (or first derivatives) at one float ``x``, from the
    power form of each weight in plain Python floats.

    The span and offset are ``_scalar_span``'s, as in ``scalar_bsplvb``.
    Weight ``r`` is the polynomial with coefficients ``M[r]``,
    ``exact_power_matrix(k)`` rounded once per entry, evaluated by Horner's
    rule from the highest power down and clamped with ``max(w, 0.0)``. A derivative has
    coefficients ``M[r][p] * (p / h)`` for ``p = 1 .. k``, one ``0.0`` at
    degree 0, and no clamp. Each operation follows the order that the
    ``spectralkan.spline`` docstring states, so the result is expected to
    match the package's bit for bit, signed zeros included.
    """
    k = grid.degree
    h = (grid.hi - grid.lo) / grid.grid_size
    out = [0.0] * (grid.grid_size + k)
    span, u = _scalar_span(grid, float(x))
    if span is None:
        return np.array(out)
    m = [[float(c) for c in row] for row in exact_power_matrix(k)]
    if derivative:
        m = [[row[p] * (p / h) for p in range(1, k + 1)] or [0.0] for row in m]
    for r, coeffs in enumerate(m):
        w = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            w = w * u + c
        col = span - k + r
        if 0 <= col < len(out):
            out[col] = w if derivative else max(w, 0.0)
    return np.array(out)


def scalar_adam(params, grad_steps, lrs, b1=0.9, b2=0.999, eps=1e-8):
    """Bias-corrected Adam (Kingma and Ba) over every element in Python
    floats: the parameters and both moment estimates after one step per
    gradient list.

    Per element, in the order that ``spectralkan.training.adam_step``
    states: ``m += (1 - b1) * (g - m)``, ``v += (1 - b2) * (g*g - v)``,
    then ``p -= lr * m_hat / (sqrt(v_hat) + eps)``.
    """
    flat = [[float(x) for x in np.asarray(p).reshape(-1)] for p in params]
    m = [[0.0] * len(p) for p in flat]
    v = [[0.0] * len(p) for p in flat]
    for t, (grads, lr) in enumerate(zip(grad_steps, lrs), start=1):
        for p, g, mt, vt in zip(flat, grads, m, v):
            for i, gi in enumerate(float(x) for x in np.asarray(g).reshape(-1)):
                mt[i] = mt[i] + (1.0 - b1) * (gi - mt[i])
                vt[i] = vt[i] + (1.0 - b2) * (gi * gi - vt[i])
                m_hat = mt[i] / (1.0 - b1 ** t)
                v_hat = vt[i] / (1.0 - b2 ** t)
                p[i] = p[i] - lr * m_hat / (math.sqrt(v_hat) + eps)
    return [[np.array(a).reshape(np.shape(q)) for a, q in zip(arrays, params)]
            for arrays in (flat, m, v)]
