import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import convolve2d

from tvdeblur import (DataError, GradientField, PreconditionError, Psf, UnsupportedError, apply_blur,
                      apply_correlation, crop, extend, gaussian_psf,
                      gradient)
from tvdeblur import dense
from tvdeblur.operators import (DIRECT_MAX_TAPS, _sliding_sum, adjoint_gradient, apply_stencil,
                                differences, stencil_pads, transpose_adjoint_gradient)

BCS = ("zero", "periodic", "reflective", "antireflective")
NONSYM = Psf(np.array([[0.50, 0.10], [0.20, 0.10], [0.05, 0.05]]), (1, 0))


class TestExtendCrop:
    def test_pad_zero_is_identity(self, rng):
        f = rng.standard_normal((5, 7))
        assert np.array_equal(extend(f, ((0, 0), (0, 0)), "periodic"), f)

    @pytest.mark.parametrize("ext", BCS)
    def test_pad_zero_returns_a_fresh_copy(self, rng, ext):
        f = rng.standard_normal((5, 7))
        out = extend(f, ((0, 0), (0, 0)), ext)
        assert np.array_equal(out, f) and not np.shares_memory(out, f)

    def test_constant_reflective_stays_constant(self):
        f = np.full((4, 4), 0.6)
        assert np.allclose(extend(f, ((3, 3), (2, 2)), "reflective"), 0.6)

    def test_antireflective_margins_extrapolate(self):
        f = np.array([[1.0, 2.0, 3.0, 4.0],
                      [1.0, 2.0, 3.0, 4.0]])
        out = extend(f, ((0, 0), (2, 2)), "antireflective")
        assert np.allclose(out[0], [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_antireflective_preserves_linear_ramps(self):
        rr, cc = np.meshgrid(np.arange(6.0), np.arange(8.0), indexing="ij")
        f = 0.3 + 0.2 * rr - 0.1 * cc
        out = extend(f, ((4, 4), (5, 5)), "antireflective")
        rr2, cc2 = np.meshgrid(np.arange(-4.0, 10.0), np.arange(-5.0, 13.0), indexing="ij")
        assert np.allclose(out, 0.3 + 0.2 * rr2 - 0.1 * cc2, atol=1e-12)

    def test_round_trip_is_bit_exact(self, rng):
        f = rng.standard_normal((6, 5))
        for ext in BCS:
            for pads in (((3, 3), (2, 2)), ((3, 1), (0, 2))):
                assert np.array_equal(crop(extend(f, pads, ext), pads), f)

    def test_center_crop_geometry(self):
        u = np.arange(36, dtype=float).reshape(6, 6)
        assert np.array_equal(crop(u, ((1, 1), (1, 1))), u[1:5, 1:5])

    @pytest.mark.parametrize("pads", [((-1, 0), (0, 0)), ((0, 0), (0, -2))])
    def test_negative_padding_rejected(self, rng, pads):
        u = rng.standard_normal((20, 20))
        for apply in (lambda: crop(u, pads), lambda: extend(u, pads, "zero")):
            with pytest.raises(PreconditionError, match="negative padding"):
                apply()

    @pytest.mark.parametrize("pads", [((2.5, 0), (0, 0)), ((0, 0), (True, 0)), ((0, "1"), (0, 0))],
                             ids=str)
    def test_non_integral_padding_rejected(self, rng, pads):
        u = rng.standard_normal((6, 6))
        for apply in (lambda: crop(u, pads), lambda: extend(u, pads, "zero")):
            with pytest.raises(DataError, match=re.escape(f"padding {pads} entry must be an integer")):
                apply()

    def test_integral_padding_of_any_kind_accepted(self, rng):
        u = rng.standard_normal((6, 6))
        pads = ((2.0, np.int64(1)), (np.float64(0.0), 3))
        assert np.array_equal(crop(extend(u, pads, "reflective"), pads), u)

    def test_antireflective_pad_cap(self, rng):
        f = rng.standard_normal((4, 4))
        with pytest.raises(UnsupportedError):
            extend(f, ((4, 4), (0, 0)), "antireflective")

    def test_reflective_pad_cap(self, rng):
        f = rng.standard_normal((4, 4))
        with pytest.raises(UnsupportedError):
            extend(f, ((5, 5), (0, 0)), "reflective")
        assert extend(f, ((4, 4), (4, 4)), "reflective").shape == (12, 12)


class TestApplyBlur:
    def test_delta_is_identity(self, rng):
        u = rng.standard_normal((6, 6))
        for bc in BCS:
            assert np.allclose(apply_blur(u, Psf.delta(), bc), u, atol=1e-15)

    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_constants_are_fixed_points(self, bc):
        u = np.full((8, 8), 0.42)
        out = apply_blur(u, gaussian_psf(5, 1.4), bc)
        assert np.allclose(out, 0.42, atol=1e-14)

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_dense_oracle_symmetric(self, rng, bc, n):
        psf = gaussian_psf(5, 1.0)
        u = rng.standard_normal((n, n))
        H = dense.build_blur(psf, (n, n), bc)
        assert np.abs(apply_blur(u, psf, bc) - H.apply(u)).max() < 1e-12

    @pytest.mark.parametrize("bc", ["zero", "periodic"])
    def test_matches_dense_oracle_nonsymmetric(self, rng, bc):
        u = rng.standard_normal((9, 9))
        H = dense.build_blur(NONSYM, (9, 9), bc)
        assert np.abs(apply_blur(u, NONSYM, bc) - H.apply(u)).max() < 1e-12

    def test_support_too_large(self, rng):
        with pytest.raises(UnsupportedError):
            apply_blur(rng.standard_normal((4, 4)), gaussian_psf(5, 1.0), "periodic")


class TestApplyCorrelation:
    def test_symmetric_kernel_equals_blur(self, rng):
        u = rng.standard_normal((8, 8))
        psf = gaussian_psf(5, 1.0)
        for bc in BCS:
            assert np.array_equal(apply_correlation(u, psf, bc), apply_blur(u, psf, bc))

    def test_periodic_matches_dense_transpose(self, rng):
        u = rng.standard_normal((8, 8))
        H = dense.build_blur(NONSYM, (8, 8), "periodic")
        expected = (H.matrix.T @ u.ravel()).reshape(8, 8)
        assert np.abs(apply_correlation(u, NONSYM, "periodic") - expected).max() < 1e-12

    def test_zero_image_maps_to_zero(self):
        u = np.zeros((6, 6))
        for bc in BCS:
            assert np.array_equal(apply_correlation(u, NONSYM, bc), u)

    @pytest.mark.parametrize("bc", BCS)
    def test_matches_dense_oracle(self, rng, bc):
        psf = gaussian_psf(3, 0.9) if bc in ("reflective", "antireflective") else NONSYM
        u = rng.standard_normal((8, 8))
        Hc = dense.build_correlation(psf, (8, 8), bc)
        assert np.abs(apply_correlation(u, psf, bc) - Hc.apply(u)).max() < 1e-12


class TestStencilRoutes:
    """apply_stencil convolves wide stencils by FFT, narrow ones directly."""

    WIDE = {"gauss7": gaussian_psf(7, 1.5), "gauss6": gaussian_psf(6, 1.5),
            "nonsym6x5": Psf(np.random.default_rng(6).uniform(0.1, 1.0, (6, 5)), (2, 3))}

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("kernel,bc", [(k, bc) for k in ("gauss7", "gauss6") for bc in BCS]
                             + [("nonsym6x5", "zero"), ("nonsym6x5", "periodic")])
    def test_wide_kernel_matches_dense_oracle(self, rng, kernel, bc, n):
        psf = self.WIDE[kernel]
        assert psf.weights.size > DIRECT_MAX_TAPS
        u = rng.standard_normal((n, n))
        H = dense.build_blur(psf, (n, n), bc)
        Hc = dense.build_correlation(psf, (n, n), bc)
        assert np.abs(apply_blur(u, psf, bc) - H.apply(u)).max() <= 1e-12
        assert np.abs(apply_correlation(u, psf, bc) - Hc.apply(u)).max() <= 1e-12

    @pytest.mark.parametrize("bc", ["reflective", "antireflective"])
    def test_composite_wider_than_image(self, rng, bc):
        weights, center = dense.autocorrelation(gaussian_psf(7, 1.5))
        assert weights.shape == (13, 13)
        u = rng.standard_normal((8, 8))
        S = dense.build_stencil_matrix(weights, center, (8, 8), bc)
        assert np.abs(apply_stencil(u, weights, center, bc) - S.apply(u)).max() <= 1e-12

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("shape,center", [((1, 1), (0, 0)), ((3, 3), (1, 1)),
                                              ((5, 5), (2, 2)), ((6, 4), (3, 1)),
                                              ((1, 25), (0, 12))])
    def test_narrow_stencils_keep_direct_bytes(self, rng, bc, shape, center):
        weights = rng.standard_normal(shape)
        assert weights.size <= DIRECT_MAX_TAPS
        u = rng.standard_normal((30, 30))
        up = extend(u, stencil_pads(weights, center), bc)
        expected = convolve2d(up, weights, mode="valid")
        assert apply_stencil(u, weights, center, bc).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("shape", [(3, 3), (7, 7)], ids=["direct", "fft"])
    def test_overflow_and_inf_pass_through_silently(self, rng, bc, shape):
        # a non-finite iterate is the solver's to report (ConvergenceError);
        # applying a stencil to it must not raise a RuntimeWarning first
        weights = 1e10 * rng.standard_normal(shape)
        u = rng.standard_normal((12, 12))
        u[0, 0] = u[5, 6] = 1e300
        u[8, 3] = u[-1, 5] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_stencil(u, weights, (shape[0] // 2, shape[1] // 2), bc)
        assert not np.isfinite(out).all()


# SciPy's convolve2d adds the taps of a kernel row in groups of four, so the
# byte checks cover every width remainder; a failure here after a SciPy
# upgrade means its summation order changed, not that the sliding sum broke.
SLIDING_SHAPES = [(r, c) for r in range(1, 10) for c in range(1, 10)] + [(16, 16), (31, 31)]


class TestSlidingSum:
    @pytest.mark.parametrize("shape", SLIDING_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_keeps_convolve2d_bytes(self, rng, shape):
        weights = rng.standard_normal(shape)
        x = rng.standard_normal((shape[0] + 13, shape[1] + 10))
        x *= 10.0 ** rng.uniform(-3, 3, x.shape)
        assert (_sliding_sum(x, weights).tobytes()
                == convolve2d(x, weights, mode="valid").tobytes())


class TestGradient:
    @pytest.mark.parametrize("bc", ["periodic", "reflective", "antireflective"])
    def test_constant_image_has_zero_gradient(self, bc):
        g = gradient(np.full((5, 5), 1.7), bc)
        assert np.allclose(g.z1, 0.0) and np.allclose(g.z2, 0.0)

    def test_horizontal_ramp_antireflective(self):
        u = np.tile(np.arange(7.0) * 0.5, (5, 1))
        g = gradient(u, "antireflective")
        assert np.allclose(g.z1, 0.5, atol=1e-14)
        assert np.allclose(g.z2, 0.0, atol=1e-14)

    @pytest.mark.parametrize("bc", BCS)
    def test_matches_dense_oracle(self, rng, bc):
        n = 8
        u = rng.standard_normal((n, n))
        g = gradient(u, bc)
        assert np.abs(dense.build_grad((n, n), 1, bc).apply(u) - g.z1).max() < 1e-14
        assert np.abs(dense.build_grad((n, n), 2, bc).apply(u) - g.z2).max() < 1e-14


class TestAdjointGradient:
    def test_periodic_composition_is_dense_laplacian(self, rng):
        n = 8
        u = rng.standard_normal((n, n))
        lap = dense.build_stencil_matrix(
            dense.LAPLACIAN_STENCIL, dense.LAPLACIAN_CENTER, (n, n), "periodic")
        out = adjoint_gradient(gradient(u, "periodic"), "periodic")
        assert np.abs(out - lap.apply(u)).max() < 1e-12

    def test_zero_field_maps_to_zero(self):
        z = GradientField.zeros((5, 5))
        for bc in BCS:
            assert np.array_equal(adjoint_gradient(z, bc), np.zeros((5, 5)))

    def test_periodic_pairing_is_adjoint(self, rng):
        u = rng.standard_normal((7, 6))
        z = GradientField(rng.standard_normal((7, 6)), rng.standard_normal((7, 6)))
        g = gradient(u, "periodic")
        lhs = float(np.sum(g.z1 * z.z1) + np.sum(g.z2 * z.z2))
        rhs = float(np.sum(u * adjoint_gradient(z, "periodic")))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bc", BCS)
    def test_matches_dense_oracle(self, rng, bc):
        n = 8
        z = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        expected = (dense.build_adjgrad((n, n), 1, bc).apply(z.z1)
                    + dense.build_adjgrad((n, n), 2, bc).apply(z.z2))
        assert np.abs(adjoint_gradient(z, bc) - expected).max() < 1e-14


class TestTransposeAdjointGradient:
    @pytest.mark.parametrize("bc", BCS)
    def test_exact_pairing_for_every_model(self, rng, bc):
        u = rng.standard_normal((8, 9))
        z = GradientField(rng.standard_normal((8, 9)), rng.standard_normal((8, 9)))
        g = gradient(u, bc)
        lhs = float(np.sum(g.z1 * z.z1) + np.sum(g.z2 * z.z2))
        rhs = float(np.sum(u * transpose_adjoint_gradient(z, bc)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bc", BCS)
    def test_matches_dense_transpose(self, rng, bc):
        n = 8
        z = GradientField(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        expected = (dense.build_grad((n, n), 1, bc).matrix.T @ z.z1.ravel()
                    + dense.build_grad((n, n), 2, bc).matrix.T @ z.z2.ravel()).reshape(n, n)
        assert np.abs(transpose_adjoint_gradient(z, bc) - expected).max() < 1e-14


class TestPlainForms:
    """differences and both divergences write into the buffers the solver's loop gives them."""

    # lengths of 8 and above take NumPy's vectorized loops over the strided
    # closing column and row
    SHAPES = [(2, 3), (8, 8), (9, 17)]
    # the ghost rules as np.pad modes
    PAD = {"zero": dict(mode="constant"), "periodic": dict(mode="wrap"),
           "reflective": dict(mode="symmetric"),
           "antireflective": dict(mode="reflect", reflect_type="odd")}

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("bc", BCS)
    def test_gradient_into_buffers(self, rng, bc, shape):
        u = rng.standard_normal(shape)
        kept = u.copy()
        buffers = np.full((2,) + shape, np.nan)
        z1, z2 = differences(u, bc, tuple(buffers))
        assert np.shares_memory(z1, buffers[0]) and np.shares_memory(z2, buffers[1])
        expected = gradient(u, bc)
        assert z1.tobytes() == expected.z1.tobytes() and z2.tobytes() == expected.z2.tobytes()
        assert u.tobytes() == kept.tobytes()
        # forward differences of u with one ghost sample past the last
        for got, axis in ((z1, 1), (z2, 0)):
            ghost = ((0, 0), (0, 1)) if axis else ((0, 1), (0, 0))
            reference = np.diff(np.pad(u, ghost, **self.PAD[bc]), axis=axis)
            assert np.abs(got - reference).max() <= 1e-14

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("transpose", [False, True], ids=["adjoint", "transpose"])
    def test_divergence_into_buffers(self, rng, bc, shape, transpose):
        z1, z2 = rng.standard_normal((2,) + shape)
        buffers = np.full((2,) + shape, np.nan)
        public = transpose_adjoint_gradient if transpose else adjoint_gradient
        out = public((z1, z2), bc, tuple(buffers))
        assert np.shares_memory(out, buffers[0])
        assert out.tobytes() == public((z1, z2), bc).tobytes()

    @pytest.mark.parametrize("bc", BCS)
    def test_any_memory_layout_gives_the_same_bytes(self, rng, bc):
        u, z1, z2 = rng.standard_normal((3, 9, 8))

        def strided(x):
            return np.repeat(np.repeat(x, 2, 0), 2, 1)[::2, ::2]

        for layout in (np.asfortranarray, strided):
            g = gradient(layout(u), bc)
            expected = gradient(u, bc)
            assert g.z1.tobytes() == expected.z1.tobytes()
            assert g.z2.tobytes() == expected.z2.tobytes()
            for public in (adjoint_gradient, transpose_adjoint_gradient):
                got = public((layout(z1), layout(z2)), bc)
                assert got.tobytes() == public((z1, z2), bc).tobytes()

    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("public", [adjoint_gradient, transpose_adjoint_gradient],
                             ids=["adjoint", "transpose"])
    def test_divergences_leave_their_inputs_untouched(self, rng, bc, public):
        z1, z2 = rng.standard_normal((2, 9, 8))
        kept = z1.tobytes(), z2.tobytes()
        public((z1, z2), bc)
        assert (z1.tobytes(), z2.tobytes()) == kept


@given(rows=st.integers(4, 10), cols=st.integers(4, 10),
       pad=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_extend_crop_roundtrip_property(rows, cols, pad, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((rows, cols))
    for ext in BCS:
        pads = ((pad, pad), (pad, pad))
        assert np.array_equal(crop(extend(f, pads, ext), pads), f)
