"""Every number a library entry point takes is read once, where it enters: a
malformed one is a ``DataError`` whose message names the field."""

import math
import re

import numpy as np
import pytest

from tvdeblur import (DataError, Experiment, GradientField, SolveParams, builtin_truth,
                      diagonal_motion_psf, gaussian_psf, shrink, simulate, sweep)
from tvdeblur.energy import energy
from tvdeblur.grid import _integer, _real
from tvdeblur.transforms import SystemPlanner

TRUTH = builtin_truth("cartoon", 16, 16)
PSF = gaussian_psf(3, 1.0)
FIELD = GradientField.zeros((8, 8))


def experiment(**change):
    fields = dict(truth=TRUTH, psf=PSF, sigma2=1e-4, modes=("periodic",), alphas=(100.0,),
                  params=SolveParams(alpha=1.0), seed=0)
    return Experiment(**{**fields, **change})


# (the field the message names, a call that passes it the value, out-of-range values)
ENTRY_POINTS = {
    "SolveParams.alpha": ("alpha", lambda v: SolveParams(alpha=v), (0.0, -1.0)),
    "SolveParams.beta_ladder": ("beta ladder entry",
                                lambda v: SolveParams(alpha=1.0, beta_ladder=(1.0, v)),
                                (0.0, -2.0)),
    "SolveParams.inner_tol": ("inner_tol", lambda v: SolveParams(alpha=1.0, inner_tol=v),
                              (0.0, 1.0, -0.5)),
    "SolveParams.inner_max": ("inner_max", lambda v: SolveParams(alpha=1.0, inner_max=v),
                              (0, -3)),
    "gaussian_psf.hsize": ("hsize", lambda v: gaussian_psf(v, 1.0), (0, -1)),
    "gaussian_psf.delta": ("delta", lambda v: gaussian_psf(3, v), (0.0, -1.0)),
    "diagonal_motion_psf.length": ("length", lambda v: diagonal_motion_psf(v, 0.7), (1, 0)),
    "diagonal_motion_psf.slant": ("slant", lambda v: diagonal_motion_psf(7, v), (-0.1,)),
    "simulate.sigma2": ("noise variance", lambda v: simulate(TRUTH, PSF, v, 0), (-1e-4,)),
    "simulate.seed": ("seed", lambda v: simulate(TRUTH, PSF, 1e-4, v), (-1,)),
    "Experiment.sigma2": ("sigma2", lambda v: experiment(sigma2=v), (-1e-4,)),
    "Experiment.seed": ("seed", lambda v: experiment(seed=v), (-1,)),
    "Experiment.alphas": ("alpha grid entry", lambda v: experiment(alphas=(100.0, v)),
                          (0.0, -5.0)),
    "shrink.beta": ("beta", lambda v: shrink(FIELD, v), (0.0, -1.0)),
    "SystemPlanner.plan.ratio": ("ratio",
                                 lambda v: SystemPlanner(PSF, (8, 8), "periodic").plan(v),
                                 (-1.0,)),
    "energy.alpha": ("alpha", lambda v: energy(TRUTH[:8, :8], FIELD, TRUTH[:8, :8], PSF,
                                               "periodic", v, 1.0), (0.0,)),
    "energy.beta": ("beta", lambda v: energy(TRUTH[:8, :8], FIELD, TRUTH[:8, :8], PSF,
                                             "periodic", 1.0, v), (0.0,)),
    "sweep.jobs": ("jobs", lambda v: sweep(experiment(), jobs=v, clock=None), (0, -1)),
}

MALFORMED = (True, False, np.True_, math.nan, math.inf, -math.inf, None, "1", b"1", "x",
             [1.0, 2.0], 1j)


def _cases():
    for entry, (name, call, out_of_range) in ENTRY_POINTS.items():
        for value in MALFORMED + out_of_range:
            yield pytest.param(name, call, value, id=f"{entry}={value!r}")


@pytest.mark.parametrize("name,call,value", _cases())
def test_a_malformed_number_is_a_data_error_naming_its_field(name, call, value):
    with pytest.raises(DataError, match=rf"^{re.escape(name)} must "):
        call(value)


# Calls that raised a TypeError, ValueError or AttributeError before every
# entry point read its numbers through grid's readers.
@pytest.mark.parametrize("call,message", [
    (lambda: experiment(modes=(1,)), "unknown mode 1"),
    (lambda: experiment(alphas=("x",)), "alpha grid entry must be a real number, got 'x'"),
    (lambda: experiment(alphas=(None,)), "alpha grid entry must be a real number, got None"),
    (lambda: experiment(sigma2="1e-4"), "sigma2 must be a real number, got '1e-4'"),
    (lambda: SolveParams(alpha=1.0, beta_ladder=("a",)),
     "beta ladder entry must be a real number, got 'a'"),
    (lambda: SolveParams(alpha="1"), "alpha must be a real number, got '1'"),
    (lambda: SolveParams(alpha=1.0, inner_tol="0.1"),
     "inner_tol must be a real number, got '0.1'"),
    (lambda: gaussian_psf(3, "1"), "delta must be a real number, got '1'"),
    (lambda: diagonal_motion_psf(7, None), "slant must be a real number, got None"),
    (lambda: simulate(TRUTH, PSF, "1e-4", 0),
     "noise variance must be a real number, got '1e-4'"),
    (lambda: shrink(FIELD, "1"), "beta must be a real number, got '1'"),
    (lambda: SystemPlanner(PSF, (8, 8), "periodic").plan("1"),
     "ratio must be a real number, got '1'"),
], ids=["modes", "alphas-str", "alphas-none", "sigma2", "beta_ladder", "alpha", "inner_tol",
        "delta", "slant", "simulate-sigma2", "shrink-beta", "plan-ratio"])
def test_probed_calls_raise_a_data_error(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        call()


class TestReaders:
    @pytest.mark.parametrize("value", [3, 3.0, np.int32(3), np.float32(3.0), np.float64(3.0)],
                             ids=repr)
    def test_integer_reads_integral_numbers(self, value):
        assert _integer(value, "n", least=3) == 3 and type(_integer(value, "n")) is int

    @pytest.mark.parametrize("least,message", [(0, "n must be non-negative, got -1"),
                                               (1, "n must be at least 1, got -1")])
    def test_integer_names_its_bound(self, least, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            _integer(-1, "n", least=least)

    @pytest.mark.parametrize("value", [2, 2.5, np.float32(2.5), np.float64(2.5), np.int64(2),
                                       np.array(2.5)], ids=repr)
    def test_real_reads_finite_numbers_as_floats(self, value):
        real = _real(value, "x")
        assert type(real) is float and real == float(value)

    def test_real_takes_zero_only_when_not_positive(self):
        assert _real(0, "x", positive=False) == 0.0
        with pytest.raises(DataError, match="^x must be positive and finite, got 0$"):
            _real(0, "x")
        with pytest.raises(DataError, match="^x must be non-negative and finite, got -1.0$"):
            _real(-1.0, "x", positive=False)

    def test_real_rejects_an_int_too_large_for_a_float(self):
        with pytest.raises(DataError, match="^x must be a real number"):
            _real(10 ** 400, "x")


def test_read_values_are_stored_as_read():
    params = SolveParams(alpha=np.float32(2.0), beta_ladder=[1, np.int64(4)], inner_tol=0.5,
                         inner_max=np.float64(4.0))
    assert (params.alpha, params.beta_ladder, params.inner_tol, params.inner_max) == (
        2.0, (1.0, 4.0), 0.5, 4)
    assert all(type(b) is float for b in (params.alpha, *params.beta_ladder))
    exp = experiment(sigma2=0, seed=np.int64(3), alphas=[10, np.float64(10.0)])
    assert (exp.sigma2, exp.seed, exp.alphas) == (0.0, 3, (10.0,))
    assert type(exp.sigma2) is float and type(exp.seed) is int
