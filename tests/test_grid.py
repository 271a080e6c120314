import numpy as np
import pytest

from tvdeblur import (DataError, EnergyReport, GradientField, Psf, ShapeError,
                      SolveParams, as_image)
from tvdeblur.grid import DEFAULT_BETA_LADDER


class TestImageValidation:
    def test_accepts_plain_lists(self):
        arr = as_image([[0.0, 1.0], [2.0, 3.0]])
        assert arr.dtype == float and arr.shape == (2, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_image(np.zeros(4))

    def test_rejects_single_row_or_column(self):
        with pytest.raises(ShapeError):
            as_image(np.zeros((1, 5)))
        with pytest.raises(ShapeError):
            as_image(np.zeros((5, 1)))

    def test_rejects_nan_and_inf(self):
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(DataError):
            as_image(bad)
        bad[1, 1] = np.inf
        with pytest.raises(DataError):
            as_image(bad)


class TestPsf:
    def test_delta(self):
        d = Psf.delta()
        assert d.mass == 1.0 and d.center == (0, 0)
        assert d.quadrantally_symmetric

    def test_zero_mass_rejected(self):
        with pytest.raises(DataError):
            Psf(np.array([[1.0, -1.0]]), (0, 0))

    def test_center_must_lie_inside(self):
        with pytest.raises(DataError):
            Psf(np.ones((3, 3)), (3, 0))

    @pytest.mark.parametrize("center", [(1.6, 0.2), (1, 0.5), (np.nan, 0), (np.inf, 0), ("1", 0),
                                        (True, False), (np.True_, 0)], ids=str)
    def test_non_integral_center_rejected(self, center):
        with pytest.raises(DataError, match="psf center entry must be an integer"):
            Psf(np.ones((3, 3)), center)

    @pytest.mark.parametrize("center,match", [
        ((1,), "must be a pair"), ((1, 1, 1), "must be a pair"), (None, "must be a sequence"),
        (1, "must be a sequence"), ("11", "must be a sequence")], ids=repr)
    def test_center_must_be_a_pair(self, center, match):
        with pytest.raises(DataError, match=f"psf center {match}"):
            Psf(np.ones((3, 3)), center)

    def test_integral_center_of_any_kind_accepted(self):
        p = Psf(np.ones((3, 3)), (1.0, np.int64(2)))
        assert p.center == (1, 2) and all(type(c) is int for c in p.center)

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Psf(np.array([[np.inf]]), (0, 0))

    def test_weights_frozen(self):
        p = Psf(np.ones((3, 3)), (1, 1))
        with pytest.raises(ValueError):
            p.weights[0, 0] = 2.0

    def test_quadrantal_symmetry_flag(self):
        sym = Psf(np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]), (1, 1))
        assert sym.quadrantally_symmetric
        nonsym = Psf(np.array([[1.0, 0.0], [0.0, 1.0]]), (0, 0))
        assert not nonsym.quadrantally_symmetric

    def test_flip_of_flip_is_identity(self):
        p = Psf(np.array([[0.5, 0.25], [0.125, 0.125], [0.0, 0.0]]), (1, 0))
        q = p.flipped().flipped()
        assert np.array_equal(p.weights, q.weights) and p.center == q.center


class TestGradientField:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            GradientField(np.zeros((3, 3)), np.zeros((3, 4)))

    def test_magnitude(self):
        z = GradientField(np.full((2, 2), 3.0), np.full((2, 2), 4.0))
        assert np.allclose(z.magnitude(), 5.0)


class TestSolveParams:
    def test_default_ladder_is_powers_of_two(self):
        p = SolveParams(alpha=1.0)
        assert p.beta_ladder == DEFAULT_BETA_LADDER
        assert p.beta_ladder == tuple(2.0 ** k for k in range(1, 8))

    def test_ladder_must_increase(self):
        with pytest.raises(DataError):
            SolveParams(alpha=1.0, beta_ladder=(2.0, 2.0))
        with pytest.raises(DataError):
            SolveParams(alpha=1.0, beta_ladder=(4.0, 2.0))

    @pytest.mark.parametrize("ladder", ["248", b"248", 5.0, None], ids=repr)
    def test_ladder_must_be_a_sequence(self, ladder):
        with pytest.raises(DataError, match="beta ladder must be a sequence"):
            SolveParams(alpha=1.0, beta_ladder=ladder)

    def test_ladder_of_any_sequence_kind_accepted(self):
        for ladder in ([2, 4], np.array([2.0, 4.0]), (b for b in (2.0, 4.0))):
            assert SolveParams(alpha=1.0, beta_ladder=ladder).beta_ladder == (2.0, 4.0)

    def test_alpha_positive(self):
        with pytest.raises(DataError):
            SolveParams(alpha=0.0)

    def test_inner_tol_range(self):
        with pytest.raises(DataError):
            SolveParams(alpha=1.0, inner_tol=1.0)
        with pytest.raises(DataError):
            SolveParams(alpha=1.0, inner_tol=0.0)

    def test_inner_max_at_least_one(self):
        with pytest.raises(DataError):
            SolveParams(alpha=1.0, inner_max=0)

    @pytest.mark.parametrize("inner_max", [2.7, 1.5, np.nan, np.inf, "3", True, np.True_], ids=str)
    def test_non_integral_inner_max_rejected(self, inner_max):
        with pytest.raises(DataError, match="inner_max must be an integer"):
            SolveParams(alpha=1.0, inner_max=inner_max)

    @pytest.mark.parametrize("inner_max", [3, 3.0, np.int32(3), np.float64(3.0)], ids=repr)
    def test_integral_inner_max_accepted(self, inner_max):
        params = SolveParams(alpha=1.0, inner_max=inner_max)
        assert params.inner_max == 3 and type(params.inner_max) is int


class TestEnergyReport:
    def test_total_must_match_parts(self):
        with pytest.raises(DataError):
            EnergyReport(fidelity=1.0, tv_z=1.0, coupling=1.0, total=4.0)

    def test_consistent_total_accepted(self):
        r = EnergyReport(fidelity=1.0, tv_z=2.0, coupling=3.0, total=6.0)
        assert r.total == 6.0
