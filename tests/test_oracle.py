import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fhtcheb
from fhtcheb import (
    DomainError,
    ParameterError,
    ReducedAccuracyWarning,
    WeightParam,
    cosh_pv_forward,
    pair,
    pv_fht,
    pv_reciprocal_weight,
    weight_w,
)


class TestPvFht:
    def test_unit_circle(self):
        assert pv_fht(weight_w, 0.5, 4096) == pytest.approx(0.5, abs=1e-6)

    def test_constant_log(self):
        got = pv_fht(lambda t: np.ones_like(t), 0.5, 4096)
        assert got == pytest.approx(math.log(3.0) / math.pi, abs=1e-8)

    def test_constant_at_zero(self):
        got = pv_fht(lambda t: np.ones_like(t), 0.0, 4096)
        assert abs(got) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            pv_fht(weight_w, 1.0)
        with pytest.raises(DomainError):
            pv_fht(weight_w, 0.5, m_points=32)

    def test_kink_warning(self):
        with pytest.warns(ReducedAccuracyWarning):
            pv_fht(pair("shifted").f, -0.9, 4096, kinks=pair("shifted").kinks)

    def test_richardson_convergence(self):
        # Smooth integrand: midpoint on the subtracted part is O(h^2), so
        # doubling the panel count cuts the error by about 4.
        f = lambda t: np.exp(np.asarray(t))
        ref = pv_fht(f, 0.3, 131072)
        errs = [abs(pv_fht(f, 0.3, m) - ref) for m in (1024, 2048, 4096)]
        assert errs[1] < errs[0] / 3.0 or errs[1] < 1e-12
        assert errs[2] < errs[1] / 3.0 or errs[2] < 1e-12

    def test_sqrt_endpoints_converge(self):
        # Endpoint sqrt behavior degrades midpoint to O(h^1.5); still converges.
        errs = [abs(pv_fht(weight_w, 0.3, m) - 0.3) for m in (1024, 4096)]
        assert errs[1] < errs[0] / 2.0


class TestSelfConsistency:
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.3, 0.85])
    def test_shifted_pair(self, s):
        pr = pair("shifted")
        got = pv_fht(pr.f, s, 8192, kinks=pr.kinks)
        assert got == pytest.approx(float(pr.F(np.array([s]))[0]), abs=1e-5)


class TestCoshPv:
    def test_mu_zero_equals_plain(self):
        p = WeightParam.cosh_real(0.0)
        a = cosh_pv_forward(weight_w, 0.4, p, 2048)
        b = pv_fht(weight_w, 0.4, 2048)
        assert a == b

    def test_frozen_reference(self):
        # m = 8192, confirmed at 16384 and 32768 (Richardson), see test_cosh.
        p = WeightParam.cosh_real(0.5)
        assert cosh_pv_forward(weight_w, 0.25, p, 8192) == pytest.approx(
            0.2658915778251403, abs=1e-12)

    def test_symmetry_at_zero(self):
        p = WeightParam.cosh_real(0.5)
        assert abs(cosh_pv_forward(weight_w, 0.0, p, 8192)) < 1e-10

    def test_null_function_in_reciprocal_measure(self):
        # cos(mu w(t)) annihilates the cosh kernel under the 1/w measure:
        # after t = cos(theta) the principal value is zero to machine
        # precision (the pole term vanishes via the reciprocal-weight
        # identity). The plain-measure transform of the same function is
        # NOT small; the discrete experiment measures, never asserts, that.
        mu = 3.0
        for s in (0.25, -0.4):
            th0 = math.acos(s)
            m = 40001
            h = math.pi / m
            th = (np.arange(m) + 0.5) * h

            def n_of(t):
                return np.cosh(mu * (s - np.cos(t))) * np.cos(mu * np.sin(t))

            reg = float(np.sum((n_of(th) - n_of(th0)) / (s - np.cos(th))) * h)
            assert abs(reg / math.pi) < 1e-10

    def test_null_function_plain_measure_not_small(self):
        p = WeightParam.cosh_real(3.0)
        f = lambda t: np.cos(3.0 * weight_w(np.asarray(t)))
        got = cosh_pv_forward(f, 0.25, p, 32768)
        assert math.isfinite(got)
        assert abs(got) > 0.1


class TestReciprocalWeight:
    @pytest.mark.parametrize("s", [0.2, 0.6])
    def test_zero_identity(self, s):
        assert abs(pv_reciprocal_weight(s, 8192)) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            pv_reciprocal_weight(1.0)


class TestPairs:
    def test_unit_circle(self):
        pr = pair("unit_circle")
        assert float(pr.f(np.array([0.6]))[0]) == pytest.approx(0.8)
        assert float(pr.F(np.array([0.5]))[0]) == pytest.approx(0.5)
        # exterior branch
        assert float(pr.F(np.array([2.0]))[0]) == pytest.approx(2.0 - math.sqrt(3.0))

    def test_shifted_values(self):
        pr = pair("shifted")
        assert float(pr.F(np.array([0.0]))[0]) == pytest.approx(0.1)
        assert float(pr.F(np.array([0.9]))[0]) == pytest.approx(0.4)
        # support endpoints: exact zero up to sqrt of float rounding in 0.64-(t+0.1)^2
        assert abs(float(pr.f(np.array([-0.9]))[0])) < 1e-7
        assert abs(float(pr.f(np.array([0.7]))[0])) < 1e-7

    def test_unknown(self):
        with pytest.raises(ParameterError):
            pair("nope")


def test_import_leaves_the_oracle_unloaded():
    # No solver uses the PV oracle, so a fresh process that imports fhtcheb (or its
    # CLI) does not load it; its four names still resolve, on first use.
    code = (
        "import sys, fhtcheb, fhtcheb.cli\n"
        "assert 'fhtcheb.oracle' not in sys.modules\n"
        "from fhtcheb import pv_fht\n"
        "import fhtcheb.oracle as o\n"
        "names = ('pv_fht', 'pair', 'cosh_pv_forward', 'pv_reciprocal_weight')\n"
        "assert pv_fht is o.pv_fht and all(getattr(fhtcheb, k) is getattr(o, k) for k in names)\n"
        "assert not hasattr(fhtcheb, 'no_such_name')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fhtcheb.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
