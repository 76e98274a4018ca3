import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralkan import ModelConfig, SplineGrid, basis_derivatives, basis_values
from spectralkan import spline
from spectralkan.errors import ContractError, DomainError

from oracles import naive_basis, naive_basis_vector, scalar_bsplvb

DEGREES = range(6)
GRID_SIZES = range(1, 9)
DOMAINS = [(-1.0, 1.0), (0.0, 1.0), (-3.0, 0.7)]


@pytest.fixture
def grid():
    return SplineGrid(degree=3, grid_size=5, lo=-1.0, hi=1.0)


class TestGridConstruction:
    def test_default_shape(self, grid):
        assert grid.basis_count == 8
        assert len(grid.knots) == 5 + 2 * 3 + 1
        spacing = np.diff(grid.knots)
        assert np.allclose(spacing, 0.4)
        assert grid.knots[grid.degree] == -1.0
        assert grid.knots[grid.degree + grid.grid_size] == 1.0

    @pytest.mark.parametrize("degree,grid_size,lo,hi", [
        (-1, 5, -1.0, 1.0),
        (3, 0, -1.0, 1.0),
        (3, 5, 1.0, -1.0),
        (3, 5, 0.0, 0.0),
        (3, 5, -1e308, 1e308),
        (3, 5, -8e307, 8e307),
        (2045, 6, -1.0, 1.0),
        (10 ** 6, 5, -1.0, 1.0),
        (3, 10 ** 6, -1.0, 1.0),
    ])
    def test_rejects_bad_settings(self, degree, grid_size, lo, hi):
        with pytest.raises(ContractError):
            SplineGrid(degree, grid_size, lo, hi)

    @pytest.mark.parametrize("name", ["degree", "grid_size"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, np.bool_(True), "3", None],
                             ids=repr)
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ContractError, match=name):
            SplineGrid(**{name: value})

    def test_numpy_integer_counts_are_stored_as_int(self):
        g = SplineGrid(np.int64(3), np.int32(5))
        assert type(g.degree) is int and type(g.grid_size) is int
        assert type(g.basis_count) is int
        assert g == SplineGrid() and hash(g) == hash(SplineGrid())
        np.testing.assert_array_equal(g.knots, SplineGrid().knots)

    def test_knot_count_cap_is_inclusive(self):
        assert SplineGrid(2045, 5).knots.size == 4096

    def test_knots_are_derived_not_settable(self):
        with pytest.raises(TypeError):
            SplineGrid(3, 5, -1.0, 1.0, knots=np.linspace(-1.0, 1.0, 12))

    @pytest.mark.parametrize("degree,grid_size,lo,hi", [
        (3, 5, -1.0, 1.0), (0, 1, 0.0, 1.0), (5, 8, -3.0, 0.7), (2, 7, -1, 2),
    ])
    def test_knots_bit_equal_to_uniform_expression(self, degree, grid_size, lo, hi):
        g = SplineGrid(degree, grid_size, lo, hi)
        idx = np.arange(-degree, grid_size + degree + 1, dtype=np.float64)
        expected = lo + idx * ((hi - lo) / grid_size)
        np.testing.assert_array_equal(g.knots.view(np.uint64),
                                      expected.view(np.uint64))
        assert type(g.lo) is float and type(g.hi) is float

    def test_knots_are_read_only(self, grid):
        with pytest.raises(ValueError):
            grid.knots[0] = 0.0

    def test_equality_and_hash_go_by_the_four_settings(self):
        assert SplineGrid() == SplineGrid(3, 5, -1, 1)
        assert hash(SplineGrid()) == hash(SplineGrid(3, 5, -1, 1))
        for other in (SplineGrid(degree=2), SplineGrid(grid_size=6),
                      SplineGrid(lo=-2.0), SplineGrid(hi=2.0)):
            assert other != SplineGrid()
        assert ModelConfig() == ModelConfig()


class TestBasisValues:
    def test_partition_of_unity_at_zero(self, grid):
        assert abs(basis_values(grid, 0.0).sum() - 1.0) <= 1e-12

    def test_partition_of_unity_on_domain(self, grid):
        xs = np.linspace(-1.0, 1.0, 2001)
        sums = basis_values(grid, xs).sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_degree_zero_is_indicator(self):
        g0 = SplineGrid(degree=0, grid_size=5)
        for x in (-0.9, -0.3, 0.05, 0.77):
            vals = basis_values(g0, x)
            span = int(np.floor((x + 1.0) / 0.4))
            expected = np.zeros(5)
            expected[span] = 1.0
            assert np.array_equal(vals, expected)

    def test_matches_recursion_oracle(self, grid):
        for x in (0.3, -0.85, 0.0, 0.999, -1.0, 1.3):
            assert np.abs(basis_values(grid, x)
                          - naive_basis_vector(grid, x)).max() <= 1e-12

    def test_non_negative_everywhere(self, grid):
        xs = np.linspace(-5.0, 5.0, 4001)
        assert (basis_values(grid, xs) >= 0.0).all()

    def test_local_support(self, grid):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1.0, 1.0, 200)
        counts = (basis_values(grid, xs) > 1e-14).sum(axis=-1)
        assert counts.max() <= grid.degree + 1

    def test_decays_to_zero_outside_extension(self, grid):
        assert np.all(basis_values(grid, 3.0) == 0.0)
        assert np.all(basis_values(grid, -3.0) == 0.0)

    def test_rejects_non_finite(self, grid):
        with pytest.raises(DomainError):
            basis_values(grid, np.nan)
        with pytest.raises(DomainError):
            basis_values(grid, np.array([0.0, np.inf]))


class TestBasisDerivatives:
    def test_derivative_sum_is_zero(self, grid):
        xs = np.linspace(-1.0, 1.0, 1001)
        sums = basis_derivatives(grid, xs).sum(axis=-1)
        assert np.abs(sums).max() <= 1e-10

    def test_matches_finite_differences(self, grid):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-0.99, 0.99, 100)
        h = 1e-6
        fd = (basis_values(grid, xs + h) - basis_values(grid, xs - h)) / (2 * h)
        an = basis_derivatives(grid, xs)
        scale = max(np.abs(an).max(), 1.0)
        assert np.abs(fd - an).max() / scale <= 1e-6

    def test_point_check_at_0p3(self, grid):
        h = 1e-6
        fd = (basis_values(grid, 0.3 + h) - basis_values(grid, 0.3 - h)) / (2 * h)
        an = basis_derivatives(grid, 0.3)
        assert np.abs(fd - an).max() / np.abs(an).max() <= 1e-6

    def test_degree_zero_is_flat(self):
        g0 = SplineGrid(degree=0, grid_size=5)
        xs = np.array([-0.9, -0.31, 0.05, 0.77])
        assert np.all(basis_derivatives(g0, xs) == 0.0)

    def test_rejects_non_finite(self, grid):
        with pytest.raises(DomainError):
            basis_derivatives(grid, np.inf)


class TestSplineEval:
    """Splines as the layers form them: basis values times coefficients."""

    def test_zero_coefficients(self, grid):
        coeffs = np.zeros(grid.basis_count)
        xs = np.linspace(-1.0, 1.0, 50)
        assert np.all(basis_values(grid, xs) @ coeffs == 0.0)

    def test_constant_coefficients(self, grid):
        coeffs = np.full(grid.basis_count, 2.5)
        xs = np.linspace(-1.0, 1.0, 50)
        assert np.abs(basis_values(grid, xs) @ coeffs - 2.5).max() <= 1e-12

    def test_matches_oracle_sum(self, grid):
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(grid.basis_count)
        expected = float(coeffs @ naive_basis_vector(grid, 0.5))
        assert abs(basis_values(grid, 0.5) @ coeffs - expected) <= 1e-12


def _oracle_points(grid):
    """Every knot, both float neighbours of each, and a sweep past both ends."""
    t = grid.knots
    return np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                           np.linspace(t[0] - 1.0, t[-1] + 1.0, 61)])


class TestLocalEvaluator:
    """The local evaluator against the global recursion oracle."""

    @pytest.mark.parametrize("lo,hi", DOMAINS)
    @pytest.mark.parametrize("grid_size", GRID_SIZES)
    @pytest.mark.parametrize("degree", DEGREES)
    def test_values_match_oracle(self, degree, grid_size, lo, hi):
        g = SplineGrid(degree, grid_size, lo, hi)
        xs = _oracle_points(g)
        expected = np.array([naive_basis_vector(g, x) for x in xs])
        values = basis_values(g, xs)
        assert np.abs(values - expected).max() <= 1e-12
        assert (values >= 0.0).all()

    @pytest.mark.parametrize("lo,hi", DOMAINS)
    @pytest.mark.parametrize("grid_size", GRID_SIZES)
    @pytest.mark.parametrize("degree", DEGREES[1:])
    def test_derivatives_match_oracle_differences(self, degree, grid_size, lo, hi):
        g = SplineGrid(degree, grid_size, lo, hi)
        t = g.knots
        # Inside every span, away from the knots where the derivative of a
        # low-degree function jumps, and one point past each end.
        inner = t[:-1, None] + np.diff(t)[:, None] * np.array([0.1, 0.37, 0.5, 0.81])
        xs = np.concatenate([inner.ravel(), [t[0] - 0.5, t[-1] + 0.5]])
        h = 1e-6
        fd = np.array([[(naive_basis(x + h, degree, i, t)
                         - naive_basis(x - h, degree, i, t)) / (2 * h)
                        for i in range(g.basis_count)] for x in xs])
        an = basis_derivatives(g, xs)
        scale = max(np.abs(an).max(), 1.0)
        assert np.abs(fd - an).max() / scale <= 1e-6

    @pytest.mark.parametrize("degree", [0, 3])
    @pytest.mark.parametrize("x", [0.0, np.zeros(0), np.zeros((0, 5)),
                                   np.array([[1, 0], [-1, 2]])],
                             ids=["0-d", "empty", "empty-2d", "int"])
    def test_shape_contract(self, degree, x):
        g = SplineGrid(degree=degree)
        for fn in (basis_values, basis_derivatives):
            out = fn(g, x)
            assert out.shape == np.shape(x) + (g.basis_count,)
            assert out.dtype == np.float64

    @pytest.mark.parametrize("degree", [0, 1, 3, 5])
    def test_exact_zeros_outside_knots(self, degree):
        g = SplineGrid(degree=degree)
        t = g.knots
        big = np.finfo(np.float64).max
        xs = np.array([big, -big, 1e308, -1e308, 1e100, -1e100, 40.0, -40.0,
                       t[-1], np.nextafter(t[0], -np.inf),
                       np.nextafter(t[-1], np.inf)])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            values = basis_values(g, xs)
            derivs = basis_derivatives(g, xs)
        assert np.all(values == 0.0) and np.all(derivs == 0.0)

    @pytest.mark.parametrize("fn", [basis_values, basis_derivatives])
    def test_peak_memory_near_one_output_at_training_size(self, grid, fn):
        # A spatial layer's 9,920 band rows of 25 inputs. Whole-array passes
        # peaked at 2.14x (values) and 2.52x (derivatives) of the output.
        x = np.random.default_rng(6).uniform(-1.3, 1.3, (9920, 25))
        tracemalloc.start()
        try:
            out = fn(grid, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    @pytest.mark.parametrize("fn", [basis_values, basis_derivatives])
    def test_peak_memory_within_four_outputs(self, grid, fn):
        # The global recursion peaked at 7.4x (values) and 6.4x
        # (derivatives) of the output at this shape.
        x = np.random.default_rng(5).uniform(-1.3, 1.3, (1200, 25))
        tracemalloc.start()
        try:
            out = fn(grid, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.nbytes


def _bit_points(grid):
    """Every knot and one float on each side of it, signed zeros, a sweep
    past both ends, random points inside, and both ends of the float range.
    On a knot at 0.0 (domain (0, 1), or an even grid on (-1, 1)), -0.0 has
    offset -0.0, which no basis value may carry into its sign."""
    t = grid.knots
    big = np.finfo(np.float64).max
    rng = np.random.default_rng(grid.degree * 100 + grid.grid_size)
    return np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                           [0.0, -0.0, big, -big, 1e300, -1e300],
                           np.linspace(t[0] - 1.0, t[-1] + 1.0, 41),
                           rng.uniform(t[0], t[-1], 40)])


class TestScalarBsplvbOracle:
    """The kernel against de Boor's recursion in Python floats, bit for bit."""

    @staticmethod
    def assert_bits_equal(got, expected):
        assert got.dtype == expected.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("lo,hi", DOMAINS)
    @pytest.mark.parametrize("grid_size", GRID_SIZES)
    @pytest.mark.parametrize("degree", DEGREES)
    def test_values_and_derivatives_bit_equal(self, degree, grid_size, lo, hi):
        g = SplineGrid(degree, grid_size, lo, hi)
        xs = _bit_points(g)
        for derivative, fn in ((False, basis_values), (True, basis_derivatives)):
            expected = np.array([scalar_bsplvb(g, x, derivative) for x in xs])
            self.assert_bits_equal(fn(g, xs), expected)


class TestBlockBoundaries:
    """Inputs at the first and last slot of every block come out as they
    do alone; the oracle tests above stay inside one block."""

    @pytest.mark.parametrize("fn", [basis_values, basis_derivatives])
    @pytest.mark.parametrize("degree,grid_size,lo,hi", [
        (3, 5, -1.0, 1.0), (2, 7, 0.0, 1.0), (0, 4, -3.0, 0.7),
    ])
    def test_bit_equal_to_one_at_a_time(self, degree, grid_size, lo, hi, fn):
        g = SplineGrid(degree, grid_size, lo, hi)
        t = g.knots
        big = np.finfo(np.float64).max
        special = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                                  [0.0, -0.0, t[0] - 1.0, t[-1] + 1.0, 1e300, -1e300,
                                   big, -big]])
        rng = np.random.default_rng(degree * 100 + grid_size)
        # Every point is one of ``pool``, which is evaluated one point at a
        # time; the filler is random points inside the knots.
        pool = np.concatenate([special, rng.uniform(t[0], t[-1], 40)])
        alone = np.array([fn(g, v) for v in pool])
        block = spline._BLOCK_INPUTS
        n = 5 * block // 2
        edges = np.unique(np.concatenate([np.arange(0, n, block),
                                          np.arange(block - 1, n, block), [n - 1]]))
        for i in range(special.size):
            which = rng.integers(special.size, pool.size, n)
            which[edges] = i
            np.testing.assert_array_equal(fn(g, pool[which]).view(np.uint64),
                                          alone[which].view(np.uint64))
        for edge in edges:
            x = np.zeros(n)
            x[edge] = np.nan
            with pytest.raises(DomainError):
                fn(g, x)


def _dense_spline(grid, coeff, x):
    return np.einsum("nit,it->ni", basis_values(grid, x), coeff)


class TestPiecewisePolynomial:
    """The pp-form evaluator of the shared layer against the dense
    contraction it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), degree=st.integers(0, 4), grid_size=st.integers(1, 8),
           domain=st.sampled_from(DOMAINS), d_in=st.integers(1, 4),
           rows=st.integers(1, 40))
    def test_matches_dense_contraction(self, data, degree, grid_size, domain,
                                       d_in, rows):
        g = SplineGrid(degree, grid_size, *domain)
        t = g.knots
        big = np.finfo(np.float64).max
        inside = st.floats(t[0], t[-1], exclude_max=True)
        outside = st.one_of(
            st.floats(max_value=t[0], exclude_max=True, allow_nan=False,
                      allow_infinity=False),
            st.floats(min_value=t[-1], allow_nan=False, allow_infinity=False),
            st.sampled_from([big, -big, t[-1], np.nextafter(t[0], -np.inf)]))
        # Every knot, the float just below each (the last knot's included),
        # points inside the knots and points outside them.
        points = st.one_of(st.sampled_from(list(t)),
                           st.sampled_from(list(np.nextafter(t, -np.inf))),
                           inside, outside)
        x = np.array(data.draw(st.lists(points, min_size=rows * d_in,
                                        max_size=rows * d_in))).reshape(rows, d_in)
        coeff = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(
            -2.0, 2.0, (d_in, g.basis_count))
        with np.errstate(over="raise", divide="raise", invalid="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spline._pp_spline(g, spline._pp_table(g, coeff), x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.abs(got - _dense_spline(g, coeff, x)).max() <= 1e-12
        assert np.all(got[(x < t[0]) | (x >= t[-1])] == 0.0)

    @pytest.mark.parametrize("degree", range(6))
    def test_power_matrix_reproduces_local_basis(self, degree):
        u = np.random.default_rng(degree).uniform(0.0, 1.0, 500)
        powers = np.vander(u, degree + 1, increasing=True).T
        expected = spline._local_basis(u, degree)
        assert np.abs(spline._power_matrix(degree) @ powers - expected).max() <= 1e-14

    @pytest.mark.parametrize("degree,grid_size,lo,hi", [
        (3, 5, -1.0, 1.0), (2, 7, 0.0, 1.0), (0, 4, -3.0, 0.7),
    ])
    def test_block_size_changes_no_bit(self, degree, grid_size, lo, hi, monkeypatch):
        g = SplineGrid(degree, grid_size, lo, hi)
        rng = np.random.default_rng(degree * 100 + grid_size)
        special = _bit_points(g)
        x = np.concatenate([special, rng.uniform(-3.0, 3.0, 2250 - special.size)])
        x = rng.permutation(x).reshape(90, 25)
        coeff = rng.uniform(-1.0, 1.0, (25, g.basis_count))
        whole = spline._pp_spline(g, spline._pp_table(g, coeff), x)
        # Blocks of one row, of eight rows (a short last block) and one
        # block for all.
        for block in (1, 200, x.size):
            monkeypatch.setattr(spline, "_BLOCK_INPUTS", block)
            assert spline._pp_spline(g, spline._pp_table(g, coeff),
                                     x).tobytes() == whole.tobytes()
