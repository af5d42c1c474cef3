import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint
from scipy.fft import next_fast_len
from scipy.special import logsumexp

import oracles
from chaoslab import numerics
from chaoslab.errors import GridResolution, NonConvergent, NonFinite
from chaoslab.marginals import build_mixture, marginal_log_density_batch
from chaoslab.meanfield import tilted_measure
from chaoslab.model import GeneralPotential, ModelSpec, RankOneInteraction
from chaoslab.numerics import (LOG_CUT, GridDensity, _chunk_rows,
                               _next_fast_len, convolution_powers, cumulative_trapezoid,
                               log_laplace, log_laplace_grid, log_mgf, log_trapezoid,
                               nested_log_trapezoid, newton_root, tilted_windows,
                               trapezoid_log_weights, window_search)
from conftest import LOG_QUARTIC_GAUSS, QUARTIC_NORM, TANH_ROOT
from oracles import (convolve, integrate, log_integrate_exp, mixed_convolution_powers,
                     node_grid_densities, unit_mass_rows)


# TestIntegrate, TestLogIntegrateExp, TestConvolve and
# TestMixedConvolutionPowers are self-tests of the quadrature and
# convolution oracles in ``oracles``, which the library tests compare
# against.
class TestIntegrate:
    def test_gaussian_normalization(self):
        val = integrate(lambda x: np.exp(-x**2 / 2))
        assert val == pytest.approx(np.sqrt(2 * np.pi), abs=1e-10)

    def test_odd_integrand_vanishes(self):
        val = integrate(lambda x: x * np.exp(-x**2 / 2))
        assert abs(val) < 1e-10

    def test_quartic_regression(self):
        val = integrate(lambda x: np.exp(-x**4 / 4))
        assert val == pytest.approx(QUARTIC_NORM, abs=1e-10)

    def test_identically_zero_integrand(self):
        assert integrate(lambda x: np.zeros_like(np.asarray(x, dtype=float))) == 0.0

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NonFinite):
            integrate(lambda x: np.where(np.abs(np.asarray(x)) < 0.5,
                                         np.nan, np.exp(-np.asarray(x)**2)))

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        f = lambda x: np.exp(-x**2 / 2)
        g = lambda x: np.exp(-x**4 / 4)
        lhs = integrate(lambda x: a * f(x) + b * g(x) + 1e-300 * np.exp(-x**2))
        rhs = a * integrate(f) + b * integrate(g)
        assert lhs == pytest.approx(rhs, abs=1e-11 + 1e-9 * abs(rhs))


class TestLogIntegrateExp:
    def test_gaussian(self):
        assert log_integrate_exp(lambda x: -x**2 / 2) == pytest.approx(
            0.5 * np.log(2 * np.pi), abs=1e-10)

    def test_shift_invariance_large(self):
        base = log_integrate_exp(lambda x: -x**2 / 2)
        shifted = log_integrate_exp(lambda x: -x**2 / 2 + 1000.0)
        assert shifted == pytest.approx(base + 1000.0, abs=1e-10)

    def test_minus_infinity_everywhere_raises(self):
        with pytest.raises(NonConvergent):
            log_integrate_exp(lambda x: np.full(np.shape(x), -np.inf))

    def test_quartic_gauss_regression(self):
        val = log_integrate_exp(lambda x: -x**4 / 4 - x**2 / 2)
        assert val == pytest.approx(LOG_QUARTIC_GAUSS, abs=1e-10)

    @given(c=st.floats(-700, 700))
    @settings(max_examples=20, deadline=None)
    def test_shift_property(self, c):
        base = log_integrate_exp(lambda x: -x**2 / 2)
        assert log_integrate_exp(lambda x: -x**2 / 2 + c) == pytest.approx(
            base + c, abs=1e-10)


def _dense_log_laplace(ts, nodes, log_weights):
    return logsumexp(log_weights + np.asarray(ts)[..., None] * nodes, axis=-1)


class TestLogLaplace:
    NODES = np.linspace(-6.0, 6.0, 4097)
    LOG_WEIGHTS = -NODES**4 / 4 - NODES**2 / 2

    @pytest.mark.parametrize("offset", [None, -1, 0, 1],
                             ids=["one-row", "chunk-1", "chunk", "chunk+1"])
    def test_matches_scipy_across_chunk_boundaries(self, offset):
        chunk = _chunk_rows(self.NODES.size)
        rows = 1 if offset is None else chunk + offset
        ts = np.linspace(-15.0, 15.0, rows)
        got = log_laplace(ts, self.NODES, self.LOG_WEIGHTS)
        want = _dense_log_laplace(ts, self.NODES, self.LOG_WEIGHTS)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_shape_is_kept(self):
        scalar = log_laplace(0.5, self.NODES, self.LOG_WEIGHTS)
        assert scalar.shape == ()
        assert float(scalar) == pytest.approx(
            float(_dense_log_laplace(0.5, self.NODES, self.LOG_WEIGHTS)), rel=1e-14)
        ts = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        grid = log_laplace(ts, self.NODES, self.LOG_WEIGHTS)
        assert grid.shape == (3, 4)
        np.testing.assert_allclose(
            grid, _dense_log_laplace(ts, self.NODES, self.LOG_WEIGHTS),
            rtol=1e-14, atol=0.0)

    def test_all_minus_inf_row_gives_minus_inf(self):
        out = log_laplace(np.array([-1.0, 0.0, 2.0]), self.NODES,
                          np.full(self.NODES.size, -np.inf))
        assert np.all(out == -np.inf)

    @pytest.mark.parametrize("level", [-700.0, 700.0])
    def test_extreme_weights(self, level):
        ts = np.array([-2.0, 0.0, 3.0])
        base = log_laplace(ts, self.NODES, self.LOG_WEIGHTS)
        shifted = log_laplace(ts, self.NODES, self.LOG_WEIGHTS + level)
        assert np.all(np.isfinite(shifted))
        np.testing.assert_allclose(shifted, base + level, rtol=1e-14, atol=0.0)

    def test_batch_density_equals_row_by_row(self, quartic_model):
        law = build_mixture(quartic_model, 16)
        n = 70_000  # more rows than the old 65536-row chunk
        pts = np.random.default_rng(5).uniform(-2.5, 2.5, size=(n, 2))
        batch = marginal_log_density_batch(law, pts)
        chunk = _chunk_rows(law.z_nodes.size)
        rows = sorted({0, chunk - 1, chunk, chunk + 1, 65_535, 65_536, n - 1}
                      | set(range(0, n, 997)))
        single = [marginal_log_density_batch(law, pts[i:i + 1])[0] for i in rows]
        np.testing.assert_allclose(batch[rows], single, rtol=1e-14, atol=0.0)


class TestLogLaplaceGrid:
    # |log_weights + t * nodes| stays below about 20 on every grid here, where
    # one ulp is 3.6e-15: the gate of 1e-14 absolute is a few ulps.
    NODES = np.linspace(-2.5, 2.5, 257)
    LOG_WEIGHTS = -2.0 * NODES**2
    B = numerics._GRID_BLOCK

    def assert_matches_log_laplace(self, lo, step, n, nodes, log_weights):
        got = log_laplace_grid(lo, step, n, nodes, log_weights)
        # The points lo + i * step, rounded as np.linspace rounds them.
        want = log_laplace(np.arange(n) * step + lo, nodes, log_weights)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 8192])
    def test_matches_log_laplace(self, n):
        self.assert_matches_log_laplace(-4.0, 8.0 / 8191, n, self.NODES, self.LOG_WEIGHTS)

    @given(data=st.data(), n=st.integers(1, 300), m=st.integers(1, 60),
           lo=st.floats(-4.0, 0.0), span=st.floats(0.01, 6.0))
    @settings(max_examples=50, deadline=None)
    def test_random_nodes_and_weights(self, data, n, m, lo, span):
        unit = st.floats(-1.0, 1.0)
        nodes = 2.0 * np.array(data.draw(st.lists(unit, min_size=m, max_size=m)))
        log_weights = 5.0 * np.array(data.draw(st.lists(unit, min_size=m, max_size=m)))
        self.assert_matches_log_laplace(lo, span / max(n - 1, 1), n, nodes, log_weights)

    def test_minus_inf_weights(self):
        log_weights = self.LOG_WEIGHTS.copy()
        log_weights[::3] = -np.inf
        self.assert_matches_log_laplace(-4.0, 0.01, 300, self.NODES, log_weights)
        out = log_laplace_grid(-4.0, 0.01, 300, self.NODES, np.full(self.NODES.size, -np.inf))
        assert np.all(out == -np.inf)

    def test_wide_nodes_force_a_smaller_block(self):
        # max|z| * B * step = 60 * 64 * 0.02 nats exceeds the block's limit,
        # so the 101 points go in blocks of 33.  The weights keep the
        # exponents that count small: z x - 1.5 |z| <= -|z| / 2.
        nodes = np.linspace(-60.0, 60.0, 257)
        assert 60.0 * self.B * 0.02 > numerics._GRID_BLOCK_NATS
        self.assert_matches_log_laplace(-1.0, 0.02, 101, nodes, -1.5 * np.abs(nodes))

    @pytest.mark.parametrize("case", ["gaussian", "minus-inf", "wide"])
    def test_against_mpmath(self, case):
        # log sum_j exp(log_weights[j] + t_i nodes[j]) at 50 digits, at the
        # exact points lo + i * step.
        nodes, log_weights, lo, step, n = {
            "gaussian": (self.NODES[::8], self.LOG_WEIGHTS[::8], -4.0, 0.05, self.B + 9),
            "minus-inf": (self.NODES[::8], np.where(np.arange(33) % 4, self.LOG_WEIGHTS[::8],
                                                    -np.inf), -1.0, 0.03, 2 * self.B),
            "wide": (np.linspace(-60.0, 60.0, 33), -1.5 * np.abs(np.linspace(-60.0, 60.0, 33)),
                     -1.0, 0.02, 101),
        }[case]
        got = log_laplace_grid(lo, step, n, nodes, log_weights)
        live = np.isfinite(log_weights)
        with mpmath.workdps(50):
            for i in range(n):
                t = mpmath.mpf(lo) + i * mpmath.mpf(step)
                want = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(w) + t * mpmath.mpf(z))
                                              for z, w in zip(nodes[live], log_weights[live])))
                assert abs(mpmath.mpf(float(got[i])) - want) <= 1e-14


class TestLogMgf:
    NODES = np.linspace(-4.0, 4.0, 4097)
    LOG_W = -NODES**4 / 4 - NODES**2 / 2

    @classmethod
    def log_probs(cls, log_w=None):
        log_w = cls.LOG_W if log_w is None else log_w
        return log_w - logsumexp(log_w)

    @classmethod
    def long_double(cls, ts, log_probs):
        """log(sum_j p_j exp(t x_j) / sum_j p_j) in long double."""
        x = cls.NODES.astype(np.longdouble)
        p = np.exp(np.asarray(log_probs, dtype=np.longdouble))
        return np.array([float(np.log1p((p * np.expm1(t * x)).sum() / p.sum()))
                         for t in np.atleast_1d(ts).astype(np.longdouble)])

    def test_zero_at_zero(self):
        assert log_mgf(0.0, self.NODES, self.log_probs()) == 0.0

    @pytest.mark.parametrize("offset", [None, -1, 0, 1],
                             ids=["one-row", "chunk-1", "chunk", "chunk+1"])
    def test_rows_are_independent(self, offset):
        # Every value is its t's alone, bit for bit, across chunk boundaries.
        chunk = _chunk_rows(self.NODES.size)
        ts = np.linspace(-15.0, 15.0, 1 if offset is None else chunk + offset)
        got = log_mgf(ts, self.NODES, self.log_probs())
        single = [float(log_mgf(t, self.NODES, self.log_probs())) for t in ts]
        assert np.array_equal(got, single)

    def test_rounding_vanishes_near_zero(self):
        # A difference of two log_laplace sums carries about 1e-16 absolute;
        # the expm1 form's rounding is a few eps times sum_j p_j |expm1(t x_j)|,
        # which vanishes with t.
        ts = np.array([-1e-3, -1e-6, 1e-9, 1e-6, 1e-3, 0.5, 3.0])
        lp = self.log_probs()
        got = log_mgf(ts, self.NODES, lp)
        scale = np.abs(np.expm1(ts[:, None] * self.NODES)) @ np.exp(lp)
        err = np.abs(got - self.long_double(ts, lp))
        assert np.all(err <= 8 * np.finfo(float).eps * scale)
        assert err[2] < 1e-24

    def test_overflow_and_cancellation_fall_back(self):
        # |t x| > 700 would overflow expm1, and for exp(-V + 6 x) normalized
        # the value at t = -10 is below -2, where log1p would cancel: both
        # are log_laplace's values.
        lp = self.log_probs(self.LOG_W + 6.0 * self.NODES)
        ts = np.array([-300.0, -10.0, 200.0])
        got = log_mgf(ts, self.NODES, lp)
        assert np.array_equal(got, log_laplace(ts, self.NODES, lp))
        assert got[1] < -2
        np.testing.assert_allclose(got, self.long_double(ts, lp), rtol=1e-13)

    def test_shape_is_kept(self):
        ts = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = log_mgf(ts, self.NODES, self.log_probs())
        assert got.shape == (3, 4) and log_mgf(0.5, self.NODES, self.log_probs()).shape == ()


def _mean(g):
    return float(np.trapezoid(g.xs * g.values, dx=g.dx))


class TestGridDensity:
    def test_normalization(self):
        g = GridDensity.from_callable(lambda x: np.exp(-x**2 / 2), -10, 10, 2001)
        assert np.trapezoid(g.values, dx=g.dx) == pytest.approx(1.0, abs=1e-12)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            GridDensity(0.0, 1.0, 3, np.array([1.0, -0.5, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN or inf would otherwise normalize to NaN values, which no
        # later check of W_2 or the T1 scan catches.
        with pytest.raises(NonFinite):
            GridDensity(0.0, 1.0, 3, np.array([1.0, bad, 1.0]))

    def test_moments(self):
        g = GridDensity.from_callable(
            lambda x: np.exp(-(x - 2) ** 2 / 2), -10, 14, 4097)
        assert _mean(g) == pytest.approx(2.0, abs=1e-8)
        assert np.trapezoid((g.xs - 2.0) ** 2 * g.values, dx=g.dx) == pytest.approx(
            1.0, abs=1e-8)


class TestConvolve:
    def test_uniform_gives_triangle(self):
        n = 2001
        u = GridDensity(0.0, 1.0, n, np.ones(n))
        tri = convolve(u, u)
        xs = tri.xs
        expected = np.where(xs <= 1.0, xs, 2.0 - xs)
        assert np.max(np.abs(tri.values - expected)) <= 2.0 / n

    def test_spike_is_identity(self):
        n = 4001
        xs = np.linspace(-5, 5, n)
        spike = np.zeros(n)
        spike[n // 2] = 1.0
        d = GridDensity(-5.0, 5.0, n, spike)
        q = GridDensity.from_callable(lambda x: np.exp(-x**2 / 2), -5, 5, n)
        out = convolve(d, q)
        mid = np.interp(q.xs, out.xs, out.values)
        assert np.max(np.abs(mid - q.values)) < 1e-6

    def test_gaussian_sum(self):
        n = 4096
        g = GridDensity.from_callable(lambda x: np.exp(-x**2 / 2), -12, 12, n)
        out = convolve(g, g)
        expected = np.exp(-out.xs**2 / 4) / np.sqrt(4 * np.pi)
        assert np.max(np.abs(out.values - expected)) <= 1e-4

    def test_grid_mismatch(self):
        p = GridDensity.from_callable(lambda x: np.exp(-x**2), -5, 5, 100)
        q = GridDensity.from_callable(lambda x: np.exp(-x**2), -5, 5, 137)
        with pytest.raises(ValueError):
            convolve(p, q)

    def test_commutative_and_mean_additive(self):
        n = 2049
        p = GridDensity.from_callable(lambda x: np.exp(-(x - 1) ** 2), -10, 10, n)
        q = GridDensity.from_callable(lambda x: np.exp(-(x + 2) ** 2 / 3), -10, 10, n)
        pq, qp = convolve(p, q), convolve(q, p)
        assert np.allclose(pq.values, qp.values, atol=1e-10)
        assert _mean(pq) == pytest.approx(_mean(p) + _mean(q), abs=1e-6)


def _node_rows(model, n_points=1024):
    """Node densities of the N = 16 mixture, their spacing and mixing weights."""
    law = build_mixture(model, 16)
    xs, dens = node_grid_densities(law, n_points)
    lo, hi = float(xs[0]), float(xs[-1])
    return dens, lo, hi, np.exp(law.z_log_weights)


def _repeated_convolve(rows, lo, hi, weights, k_max):
    """sum_j w_j rho_j^{*k} for k = 1..k_max, one ``convolve`` at a time."""
    base = [GridDensity(lo, hi, rows.shape[1], r) for r in rows]
    current, out = base, []
    for k in range(1, k_max + 1):
        if k > 1:
            current = [convolve(p, b) for p, b in zip(current, base)]
        out.append(weights @ np.stack([p.values for p in current]))
    return out


def _assert_close_to_peak(got, want, tol):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= tol * w.max()


class TestMixedConvolutionPowers:
    @pytest.mark.parametrize("family", ["gaussian", "quartic"])
    def test_matches_repeated_convolve(self, family, gauss_model, quartic_model):
        model = gauss_model if family == "gaussian" else quartic_model
        rows, lo, hi, weights = _node_rows(model)
        dx = (hi - lo) / (rows.shape[1] - 1)
        got = mixed_convolution_powers(rows, dx, weights, 4)
        want = _repeated_convolve(rows, lo, hi, weights, 4)
        # Level 1 is the GridDensity mix itself, bit for bit.
        assert np.array_equal(got[0], want[0])
        _assert_close_to_peak(got[1:], want[1:], 1e-12)

    @pytest.mark.parametrize("count", ["1", "chunk-1", "chunk", "chunk+1", "257"])
    def test_row_counts_across_chunk_boundaries(self, count, quartic_model):
        rows, lo, hi, weights = _node_rows(quartic_model)
        n = rows.shape[1]
        chunk = oracles._chunk_rows(next_fast_len(3 * (n - 1) + 1, real=True))
        assert len(rows) == 257 and chunk + 1 < 257
        count = {"1": 1, "chunk-1": chunk - 1, "chunk": chunk,
                 "chunk+1": chunk + 1, "257": 257}[count]
        rows, weights = rows[:count], weights[:count]
        got = mixed_convolution_powers(rows, (hi - lo) / (n - 1), weights, 3)
        _assert_close_to_peak(got, _repeated_convolve(rows, lo, hi, weights, 3), 1e-12)

    def test_chunk_size_does_not_change_the_result(self, quartic_model, monkeypatch):
        rows, lo, hi, weights = _node_rows(quartic_model)
        dx = (hi - lo) / (rows.shape[1] - 1)
        reference = mixed_convolution_powers(rows, dx, weights, 3)
        for chunk_bytes in (1, 100_000, 1 << 24):
            monkeypatch.setattr(oracles, "_CHUNK_BYTES", chunk_bytes)
            got = mixed_convolution_powers(rows, dx, weights, 3)
            assert np.array_equal(got[0], reference[0])
            _assert_close_to_peak(got[1:], reference[1:], 1e-14)

    @pytest.mark.parametrize("k_max", [1, 3])
    def test_row_reaching_the_edge_raises(self, k_max, quartic_model):
        rows, lo, hi, weights = _node_rows(quartic_model)
        xs = np.linspace(lo, hi, rows.shape[1])
        # One row, past the first chunk, with a standard deviation of half
        # the grid's width: its density is far from negligible at the edges.
        rows = np.array(rows)
        rows[200] = np.exp(-0.5 * (xs / (0.5 * (hi - lo))) ** 2)
        with pytest.raises(GridResolution):
            mixed_convolution_powers(rows, (hi - lo) / (len(xs) - 1), weights, k_max)


class TestConvolutionPowers:
    def test_matches_repeated_convolve(self, quartic_model):
        rows, lo, hi, _ = _node_rows(quartic_model)
        dx = (hi - lo) / (rows.shape[1] - 1)
        row = rows[200]
        want = _repeated_convolve(row[None, :], lo, hi, np.ones(1), 4)
        powers = list(convolution_powers(row, 4))
        assert [k for k, _ in powers] == [2, 3, 4]
        # Scaled to unit mass, the k-fold sums are the k-fold densities.
        got = [vals / np.trapezoid(vals, dx=dx) for _, vals in powers]
        _assert_close_to_peak(got, want[1:], 1e-12)

    def test_unit_mass_rows_mix_is_the_grid_density_mix(self, quartic_model):
        rows, lo, hi, weights = _node_rows(quartic_model)
        base = unit_mass_rows(rows, (hi - lo) / (rows.shape[1] - 1))
        want = weights @ np.stack([GridDensity(lo, hi, rows.shape[1], r).values
                                   for r in rows])
        assert np.array_equal(weights @ base, want)

    def test_row_reaching_the_edge_raises(self):
        xs = np.linspace(-1.0, 1.0, 513)
        with pytest.raises(GridResolution):
            next(convolution_powers(np.exp(-xs**2), 3))
        with pytest.raises(GridResolution):
            unit_mass_rows(np.exp(-xs**2)[None, :], xs[1] - xs[0])


class TestWindowSearch:
    """The plain doubling search, as ``tilted_windows`` runs it at tilt 0."""

    def test_gaussian_window(self):
        assert tilted_windows(lambda x: -x**2 / 2, [0.0]).tolist() == [[-16.0, 16.0]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_scan_value_raises(self, bad):
        def log_f(x):
            out = -x**2 / 2
            out[100] = bad
            return out

        with pytest.raises(NonFinite):
            tilted_windows(log_f, [0.0])

    def test_minus_inf_is_a_zero_integrand(self):
        ends = tilted_windows(lambda x: np.where(np.abs(x) < 3, -x**2, -np.inf), [0.0])
        assert ends[0, 1] == 4.0

    def test_nan_potential_raises_non_finite(self):
        # V = x^3 / (2x) is x^2 / 2 with 0/0 at the scan point x = 0.  Its
        # window search used to double 40 times and raise NonConvergent.
        model = ModelSpec(GeneralPotential(v=lambda x: x**3 / (2 * x),
                                           grad_v=lambda x: x),
                          RankOneInteraction(0.5))
        with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
            tilted_measure(model, 0.0)


def _convex_profile(c, n, shift):
    """log f(u) = -c u^2 + n g(u) with g(u) = log cosh(u - shift) convex, and
    the number of points of each call."""
    asked = []

    def profile(us):
        asked.append(np.size(us))
        g = np.logaddexp(us - shift, shift - us) - np.log(2.0)
        return -c * us**2 + n * g, g

    return profile, asked


class TestChordScan:
    @pytest.mark.parametrize("c, n, shift", [(0.5, 1.0, 0.0), (0.5, 100.0, 3.0),
                                             (1e-3, 1.0, -40.0), (2.0, 8.0, 0.7)])
    def test_window_search_matches_full_scans(self, c, n, shift):
        profile, asked = _convex_profile(c, n, shift)
        want = oracles.window_search_by_full_scans(profile, c, n)
        asked.clear()
        xs, vals = window_search(profile, c, n)
        assert np.array_equal(xs, want[0])
        read = ~np.isnan(vals)
        assert np.array_equal(vals[read], want[1][read])
        assert sum(asked) < 257 * len(asked)

    def test_narrow_peak_between_read_points_stops_the_search(self):
        # log f = -c min((u - p)^2, r^2): a peak at p = 0.06, between the read
        # points 0 and 0.125 of the first scan, 50 nats above a plateau that
        # holds every read point.  Only the gap around p can stop the search
        # at [-1, 1]; g = (c/n)(2 p u - p^2 + max(0, (u - p)^2 - r^2)) is convex.
        c, n, p, r = 2e4, 3.0, 0.06, 0.05

        def profile(us):
            g = c / n * (2 * p * us - p * p + np.maximum(0.0, (us - p) ** 2 - r * r))
            return -c * np.minimum((us - p) ** 2, r * r), g

        xs, vals = window_search(profile, c, n)
        assert (xs[0], xs[-1]) == (-1.0, 1.0)
        assert np.nanmax(vals) > vals[0] + LOG_CUT

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_read_raises(self, bad):
        profile, _ = _convex_profile(0.5, 1.0, 0.0)

        def broken(us):
            vals, g = profile(us)
            return np.where(us == 0.0, bad, vals), g

        # u = 0 is the 128th point of every scan, which is read.
        with pytest.raises(NonFinite):
            window_search(broken, 0.5, 1.0)


def _tanh_gd(x):
    """g(x) = x - tanh(2x) and g'(x): roots at 0 and +-TANH_ROOT."""
    return x - math.tanh(2 * x), 1 - 2 / math.cosh(2 * x) ** 2


class TestFindRoot:
    def test_linear(self):
        assert newton_root(lambda x: (x - 1, 1.0), 0.0, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_tanh_fixed_point(self):
        assert newton_root(_tanh_gd, 3.0, 1e-12) == pytest.approx(TANH_ROOT, abs=1e-10)

    def test_origin(self):
        assert newton_root(lambda x: (x, 1.0), -1.0, 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_converged_start_costs_one_call(self):
        calls = []
        x0 = 0.1 + 0.2
        root = newton_root(lambda x: calls.append(x) or (x - 0.3, 1.0), x0, 1e-12)
        assert root == x0 and calls == [x0]

    @pytest.mark.parametrize("gd, x0, want", [
        # Newton from 0 on atan(x - 5) overshoots further on every step.
        (lambda x: (math.atan(x - 5), 1 / (1 + (x - 5) ** 2)), 0.0, 5.0),
        # g' < 0 between the roots: no Newton direction there.
        (_tanh_gd, 0.3, TANH_ROOT),
        (_tanh_gd, -0.3, -TANH_ROOT),
        # g' is 1e-9: every Newton step before the sign change is too long.
        (lambda x: (1e-9 * (x - 1000.0), 1e-9), 0.0, 1000.0),
    ])
    def test_steps_downhill_within_cap_then_bracket(self, gd, x0, want):
        seen = []
        root = newton_root(lambda x: seen.append((x, gd(x)[0])) or gd(x), x0, 1e-12)
        assert root == pytest.approx(want, abs=1e-10)
        lo, hi, cap = -math.inf, math.inf, max(1.0, abs(x0))
        for (x, g), (x_next, _) in zip(seen, seen[1:]):
            lo, hi = (x, hi) if g < 0 else (lo, x)
            assert lo < x_next < hi
            assert abs(x_next - x) <= cap
            cap *= 2

    @pytest.mark.parametrize("nan_at", [0, 1, 4])
    def test_nan_raises(self, nan_at):
        calls = []

        def gd(x):
            calls.append(x)
            return (math.nan, 1.0) if len(calls) > nan_at else _tanh_gd(x)

        with pytest.raises(NonConvergent):
            newton_root(gd, 3.0, 1e-12)
        assert len(calls) == nan_at + 1

    def test_nan_derivative_raises(self):
        with pytest.raises(NonConvergent):
            newton_root(lambda x: (x - 1, math.nan), 0.0, 1e-12)

    def test_iteration_cap_raises(self):
        # A step has no slope: every step bisects, the bracket closes on two
        # adjacent floats around 1/3 within 60 steps, and no Newton step there
        # is ever as short as tol.
        step = lambda x: (-1.0 if x < 1 / 3 else 1.0, 0.0)
        with pytest.raises(NonConvergent):
            newton_root(step, 0.0, 1e-300)


def _wavy_log_f(k):
    """log of exp(-t^2/2) (2 + cos(k t)): on 257 nodes over [-16, 16] its
    halving check first passes on every node for k = 8, and on none for
    k = 18."""
    return lambda ts: -ts**2 / 2 + np.log(2 + np.cos(k * ts))


class TestNestedLogTrapezoid:
    @pytest.mark.parametrize("log_f, stride", [
        (lambda ts: -ts**2 / 4, 4), (lambda ts: -ts**2 / 2, 2), (_wavy_log_f(8), 1)],
        ids=["wide", "gaussian", "wavy"])
    def test_reads_coarse_to_fine(self, log_f, stride):
        # The first values come from a scan's every 16th point, as the chord
        # scan of ``window_search`` reads them; each missing value is read
        # once, and the result is the trapezoid on the first set of nodes
        # whose halving check passes.
        ts = np.linspace(-16.0, 16.0, 257)
        values = np.full(ts.size, np.nan)
        values[::16] = log_f(ts[::16])
        reads = []
        got = nested_log_trapezoid(ts, values, lambda idx: reads.append(idx) or log_f(ts[idx]))
        read = np.concatenate(reads)
        assert np.unique(read).size == read.size and np.isnan(values[read]).all()
        assert np.array_equal(np.union1d(read, np.arange(0, 257, 16)),
                              np.arange(0, 257, stride))
        sub = ts[::stride]
        assert got == log_trapezoid(0.0, sub, trapezoid_log_weights(sub) + log_f(sub))

    def test_full_read_is_log_trapezoid(self):
        ts = np.linspace(-16.0, 16.0, 257)
        log_f = _wavy_log_f(8)(ts)
        got = nested_log_trapezoid(ts, log_f, lambda idx: pytest.fail("read"))
        assert got == log_trapezoid(0.0, ts, trapezoid_log_weights(ts) + log_f)

    def test_unresolved_raises(self):
        ts = np.linspace(-16.0, 16.0, 257)
        log_f = _wavy_log_f(18)
        with pytest.raises(GridResolution):
            nested_log_trapezoid(ts, np.full(ts.size, np.nan), lambda idx: log_f(ts[idx]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_read_raises(self, bad):
        ts = np.linspace(-16.0, 16.0, 257)
        log_f = lambda t: np.where(t == 1.0, bad, -t**2 / 2)
        with pytest.raises(NonFinite):
            nested_log_trapezoid(ts, np.full(ts.size, np.nan), lambda idx: log_f(ts[idx]))


def test_next_fast_len_is_scipys():
    ours = [_next_fast_len(n) for n in range(1, 2**17 + 1)]
    assert ours == [next_fast_len(n, real=True) for n in range(1, 2**17 + 1)]


@pytest.mark.parametrize("shape", [(1001,), (7, 513)])
def test_cumulative_trapezoid_is_scipys(shape):
    y = np.random.default_rng(3).lognormal(size=shape)
    want = sciint.cumulative_trapezoid(y, dx=0.0137, axis=-1, initial=0.0)
    assert np.array_equal(cumulative_trapezoid(y, 0.0137), want)
