import numpy as np
import pytest

from spectralkan import basis_derivatives, basis_values, make_grid
from spectralkan.errors import ContractError, DomainError

from oracles import naive_basis_vector


@pytest.fixture
def grid():
    return make_grid(degree=3, grid_size=5, lo=-1.0, hi=1.0)


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
    ])
    def test_rejects_bad_settings(self, degree, grid_size, lo, hi):
        with pytest.raises(ContractError):
            make_grid(degree, grid_size, lo, hi)


class TestBasisValues:
    def test_partition_of_unity_at_zero(self, grid):
        assert abs(basis_values(grid, 0.0).sum() - 1.0) <= 1e-12

    def test_partition_of_unity_on_domain(self, grid):
        xs = np.linspace(-1.0, 1.0, 2001)
        sums = basis_values(grid, xs).sum(axis=-1)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_degree_zero_is_indicator(self):
        g0 = make_grid(degree=0, grid_size=5)
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
        g0 = make_grid(degree=0, grid_size=5)
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
