from functools import partial

import numpy as np
import pytest

from chaoslab import meanfield
from chaoslab.errors import GridResolution, NonConvergent, NonFinite, Supercritical
from chaoslab.meanfield import (LogPartition, critical_coupling, magnetization,
                                solve_fixed_point, subcritical_reference, tilt_windows,
                                tilted_measure)
from chaoslab.model import (GeneralPotential, ModelSpec, RankOneInteraction,
                            curie_weiss_model, gaussian_model)
from conftest import (F_AT_1, H_STAR_SUPER, J_CRIT, X2_MOMENT, counting_quartic,
                      critical_coupling_of)
from oracles import (fresh_kernel_pi_zero, ghs_concavity_check, integrate,
                     log_integrate_exp, solve_interpolated_fixed_point, tilt_window,
                     tilted_measure_per_tilt)


class TestMoments:
    def test_odd_moment_vanishes(self, quartic_model):
        assert abs(tilted_measure(quartic_model, 0.0).mean) < 1e-10

    def test_second_moment_regression(self, quartic_model):
        assert tilted_measure(quartic_model, 0.0).second_moment == pytest.approx(
            X2_MOMENT, abs=1e-10)

    def test_variance_positive(self, quartic_model, rng):
        for t in rng.uniform(-3, 3, size=5):
            mu = tilted_measure(quartic_model, t)
            assert mu.second_moment - mu.mean ** 2 > 0

    @pytest.mark.parametrize("tilt", [0.0, 0.7, -0.7, -3.0, 12.0])
    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, 1.0),
                                       curie_weiss_model(1.0, -1.0, 1.0),
                                       gaussian_model(0.5, 0.1), gaussian_model(4.0, 0.1)],
                             ids=["quartic", "double-well", "gauss-0.5", "gauss-4"])
    def test_matches_adaptive_quadrature(self, model, tilt):
        log_f = lambda x: -model.potential(x) + tilt * x
        log_z = log_integrate_exp(log_f)
        mu = tilted_measure(model, tilt)
        assert mu.log_z == pytest.approx(log_z, rel=1e-11)
        for p, got in ((1, mu.mean), (2, mu.second_moment)):
            exact = integrate(lambda x: np.asarray(x)**p * np.exp(log_f(x) - log_z))
            # The mean vanishes at tilt 0: the absolute floor covers it.
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0])
    def test_gaussian_closed_form(self, sigma):
        for z in (-3.0, 0.0, 0.7, 12.0):
            mu = tilted_measure(gaussian_model(sigma, 0.1), z)
            exact = (z**2 / (2.0 * sigma) + 0.5 * np.log(2.0 * np.pi / sigma),
                     z / sigma, 1.0 / sigma + z**2 / sigma**2)
            got = (mu.log_z, mu.mean, mu.second_moment)
            for g, e in zip(got, exact):
                assert abs(g - e) <= 1e-12 * max(1.0, abs(e))

    def test_underresolved_moment_raises(self):
        # sd 1e-3 against a node spacing of 4.9e-4 on the window [-1, 1].
        with pytest.raises(GridResolution):
            tilted_measure(gaussian_model(1e6, 1.0), 0.0)


class TestLogPartition:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0])
    def test_gaussian_closed_form(self, sigma):
        zs = np.linspace(-20.0, 20.0, 81)
        exact = zs**2 / (2.0 * sigma) + 0.5 * np.log(2.0 * np.pi / sigma)
        got = LogPartition(gaussian_model(sigma, 0.1 * sigma))(zs)
        assert np.all(np.abs(got - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))

    def test_query_order_does_not_matter(self, quartic_model):
        small_first = LogPartition(quartic_model)
        a0 = small_first.cgf(0.0)
        a20 = small_first.cgf(np.array([-20.0, 20.0]))
        large_first = LogPartition(quartic_model)
        b20 = large_first.cgf(np.array([-20.0, 20.0]))
        b0 = large_first.cgf(0.0)
        assert a0 == b0 == 0.0
        np.testing.assert_allclose(a20, b20, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(
            large_first(np.array([0.0, 20.0])),
            LogPartition(quartic_model)(np.array([0.0, 20.0])), rtol=1e-14, atol=0.0)

    def test_matches_adaptive_quadrature(self, quartic_model):
        kernel = LogPartition(quartic_model)
        for z in (0.0, 0.7, -3.0, 12.0):
            exact = log_integrate_exp(lambda x: -quartic_model.potential(x) + z * x)
            assert kernel(z) == pytest.approx(exact, abs=1e-10)

    def test_underresolved_window_raises(self):
        with pytest.raises(GridResolution):
            LogPartition(gaussian_model(1e8, 1.0))(0.0)

    def test_growth_inside_the_window_keeps_the_grid(self):
        # The quartic window stays [-4, 4] up to z = 2: the growth reruns the
        # halving check but evaluates V on no new grid.
        model, sizes = counting_quartic(0.5 * J_CRIT)
        kernel = LogPartition(model)
        window = kernel.window
        kernel(np.array([-1.0, 2.0]))
        assert kernel.z_max == 2.0 and kernel.window == window == (-4.0, 4.0)
        assert sizes.count(4097) == 1

    @pytest.mark.parametrize("read", [
        lambda k: k(np.nan), lambda k: k.cgf([0.5, np.nan]),
        lambda k: k.linspace(0.0, np.nan, 9), lambda k: k.measure(np.nan),
        lambda k: k.measure(np.array([0.5, np.nan]))],
        ids=["call", "cgf", "linspace", "measure", "measure-array"])
    def test_nan_tilt_is_non_finite(self, quartic_model, read):
        # A NaN tilt read NaN (log Z, cgf) or failed the halving check with a
        # change of nan (measure).
        with pytest.raises(NonFinite):
            read(LogPartition(quartic_model))

    def test_first_growth_checks_one_row(self, monkeypatch):
        # The grid of z = 0 is checked at z = 0 once, not on three equal rows.
        rows = []
        check = meanfield.log_trapezoid
        monkeypatch.setattr(meanfield, "log_trapezoid",
                            lambda ts, *grid: rows.append(np.size(ts)) or check(ts, *grid))
        kernel = LogPartition(curie_weiss_model(1.0, 1.0, 1.0))
        assert rows == [1]
        kernel(3.0)
        assert rows == [1, 3]

    def test_failed_growth_keeps_raising(self):
        # sd 0.01: resolved on the z = 0 window, not once z = 1e5 widens it.
        kernel = LogPartition(gaussian_model(1e4, 1.0))
        before = kernel(0.0)
        for _ in range(2):
            with pytest.raises(GridResolution):
                kernel(1e5)
        assert kernel(0.0) == before


# Models of the one-kernel oracle test; each kernel is grown to +-60 J before
# its measures are read.
MEASURE_MODELS = {
    "quartic": curie_weiss_model(1.0, 1.0, 1.0),
    "double-well": curie_weiss_model(1.0, -1.0, 1.0),
    "theta-10": curie_weiss_model(10.0, 1.0, 1.0),
    "gauss-1e-3": gaussian_model(1e-3, 5e-4),
    "gauss-1": gaussian_model(1.0, 0.5),
    "gauss-100": gaussian_model(100.0, 50.0),
}
MEASURE_ELLS = np.concatenate([-np.geomspace(0.01, 60.0, 25)[::-1], [0.0],
                               np.geomspace(0.01, 60.0, 25)])


MEASURE_FIELDS = ("tilt", "log_z", "mean", "second_moment")


def _family_fields(family):
    """Each field of a family as the bytes of its values, to compare bit for bit."""
    return [np.asarray(getattr(family, f), dtype=float).tobytes() for f in MEASURE_FIELDS]


def _fields_per_tilt(kernel, tilts):
    """``_family_fields`` of the measures of ``kernel`` at each tilt alone."""
    alone = [kernel.measure(t) for t in tilts]
    return [np.array([getattr(mu, f) for mu in alone]).tobytes() for f in MEASURE_FIELDS]


class TestMeasure:
    @pytest.mark.parametrize("name", list(MEASURE_MODELS))
    def test_grown_kernel_matches_per_tilt_grids(self, name):
        # Each pi[t] read from one kernel grown to +-60 J agrees with pi[t] on
        # its own window and grid, and raises GridResolution exactly where
        # that does (no tilt of this sweep raises; the sweeps past the
        # resolved range are in test_halving_verdict_is_monotone_in_the_tilt).
        # The gate is 1e-13 relative, or eps |log Z| where that is larger: V
        # and t x, and so every node weight's exponent, carry that absolute
        # rounding on both grids (gauss-100 above |t| = 300 only).
        model = MEASURE_MODELS[name]
        J = model.coupling
        kernel = LogPartition(model)
        kernel(np.array([-60.0 * J, 60.0 * J]))
        for ell in MEASURE_ELLS:
            try:
                want, _ = tilted_measure_per_tilt(model, J * ell)
            except GridResolution:
                with pytest.raises(GridResolution):
                    kernel.measure(J * ell)
                continue
            got = kernel.measure(J * ell)
            tol = max(1e-13, np.finfo(float).eps * abs(want.log_z))
            sd = np.sqrt(want.second_moment - want.mean**2)
            assert got.tilt == want.tilt
            assert abs(got.log_z - want.log_z) <= tol * max(1.0, abs(want.log_z))
            assert abs(got.mean - want.mean) <= tol * max(abs(want.mean), sd)
            assert abs(got.second_moment - want.second_moment) <= tol * want.second_moment

    @pytest.mark.parametrize("name", list(MEASURE_MODELS))
    def test_array_is_per_tilt_calls(self, name):
        # One measure of an array of tilts is one family whose fields give,
        # entry by entry, the bits of a call with each tilt alone on the
        # same grid; a scalar tilt gives float fields.
        model = MEASURE_MODELS[name]
        J = model.coupling
        kernel = LogPartition(model)
        kernel(np.array([-60.0 * J, 60.0 * J]))
        tilts = J * MEASURE_ELLS
        family = kernel.measure(tilts)
        assert _family_fields(family) == _fields_per_tilt(kernel, tilts)
        one = kernel.measure(tilts[0])
        assert all(type(getattr(one, f)) is float for f in MEASURE_FIELDS)
        assert _family_fields(kernel.measure(tilts[:1])) == _fields_per_tilt(kernel, tilts[:1])

    def test_2d_tilts_keep_their_shape(self):
        model = curie_weiss_model(1.0, 1.0, 1.0)
        kernel = LogPartition(model)
        tilts = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        family = kernel.measure(tilts)
        flat = kernel.measure(tilts.reshape(-1))
        for f in MEASURE_FIELDS:
            assert getattr(family, f).shape == (3, 4)
            assert np.array_equal(getattr(family, f), getattr(flat, f).reshape(3, 4))

    def test_empty_family_is_empty(self):
        # No tilt: an empty family, not an error of the halving check.
        family = LogPartition(curie_weiss_model(1.0, 1.0, 1.0)).measure(np.array([]))
        assert all(getattr(family, f).shape == (0,) for f in MEASURE_FIELDS)

    def test_array_grows_once_to_its_largest_tilt(self):
        # Read in one call, an ascending family grows the kernel once, and
        # its measures are those of a kernel grown to the largest tilt first.
        model = curie_weiss_model(1.0, 1.0, 1.0)
        tilts = np.geomspace(0.01, 40.0, 9)
        one = LogPartition(model)
        family = one.measure(tilts)
        grown = LogPartition(model)
        grown(tilts[-1])
        assert _family_fields(family) == _fields_per_tilt(grown, tilts)

    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, 1.0),
                                       gaussian_model(100.0, 50.0),
                                       gaussian_model(1e4, 1.0)],
                             ids=["quartic", "gauss-100", "gauss-1e4"])
    def test_halving_verdict_is_monotone_in_the_tilt(self, model):
        # The halving check compares the two trapezoid sums under one shift,
        # so it reads the relative change of Z, not the rounding of log Z
        # (eps |log Z|, 3.6e-12 for gauss-100 at |t| = 2087.8, where
        # log Z = 2.2e4).  Along either side of a sweep the verdict flips from
        # resolved to GridResolution at most once, and each model here flips
        # before |t| = 1e5.  A fresh kernel swept along one side, growing as
        # it goes, first raises at the same tilt as the per-tilt grids (index
        # 29 of 41 for quartic and gauss-100, 37 for gauss-1e4), and at every
        # tilt after it.
        tilts = np.geomspace(1.0, 1e5, 41)
        for sign in (1.0, -1.0):
            kernel = LogPartition(model)
            per_tilt, grown = [], []
            for t in sign * tilts:
                for raised, measure in ((per_tilt, partial(tilted_measure_per_tilt, model)),
                                        (grown, kernel.measure)):
                    try:
                        measure(t)
                        raised.append(False)
                    except GridResolution:
                        raised.append(True)
            assert per_tilt[-1] and per_tilt == sorted(per_tilt)
            assert grown == per_tilt

    @pytest.mark.parametrize("tilt", [-2087.8, 2087.8])
    def test_large_log_z_is_resolved(self, tilt):
        # log Z = t^2 / 2 sigma + log(2 pi / sigma) / 2 for V = sigma x^2 / 2.
        mu = LogPartition(MEASURE_MODELS["gauss-100"]).measure(tilt)
        exact = tilt**2 / 200.0 + 0.5 * np.log(2.0 * np.pi / 100.0)
        assert mu.log_z == pytest.approx(exact, rel=1e-14)

    def test_pi_zero_of_a_fresh_kernel_is_the_per_tilt_one(self, quartic_model):
        # The kernel starts on the window of z = 0, so pi[0] is bit for bit
        # the measure on its own grid.
        want, _ = tilted_measure_per_tilt(quartic_model, 0.0)
        assert LogPartition(quartic_model).measure(0.0) == want


def _potential(v):
    return ModelSpec(GeneralPotential(v=v, grad_v=lambda x: 0.0 * x), RankOneInteraction(0.5))


# Tilts of the window sweep: each model's measure sweep and, for the
# narrow Gaussian, means out to 1e6, past the first block of 8 doubling levels.
WINDOW_TILTS = {name: model.coupling * MEASURE_ELLS for name, model in MEASURE_MODELS.items()}
WINDOW_TILTS["gauss-1e-3"] = np.concatenate([WINDOW_TILTS["gauss-1e-3"],
                                             np.geomspace(-1e3, -1e-3, 13),
                                             np.geomspace(1e-3, 1e3, 13)])


class TestTiltWindows:
    @pytest.mark.parametrize("name", list(MEASURE_MODELS))
    def test_matches_per_tilt_window_search(self, name):
        model = MEASURE_MODELS[name]
        tilts = WINDOW_TILTS[name]
        want = np.array([tilt_window(model, t) for t in tilts])
        assert np.array_equal(tilt_windows(model, tilts), want)

    def test_non_finite_beyond_the_stop_is_not_read(self):
        # V is NaN past |x| = 100.  The search at t = 0 stops at [-16, 16] and
        # never reaches it; at t = 150 the mean is 150 and the search does.
        model = _potential(lambda x: np.where(np.abs(x) > 100.0, np.nan, x**2 / 2))
        assert np.array_equal(tilt_windows(model, [0.0, -3.0]),
                              [tilt_window(model, 0.0), tilt_window(model, -3.0)])
        with pytest.raises(NonFinite):
            tilt_window(model, 150.0)
        with pytest.raises(NonFinite):
            tilt_windows(model, [0.0, 150.0])

    def test_infinite_exponent_raises(self):
        # V = -inf at x = 0.5, a point of the first scan.
        model = _potential(lambda x: np.where(x == 0.5, -np.inf, x**2 / 2))
        with pytest.raises(NonFinite):
            tilt_window(model, 1.0)
        with pytest.raises(NonFinite):
            tilt_windows(model, [1.0])

    def test_no_decaying_window_raises(self):
        # exp(-V) = 1 never decays: every search runs out of doublings.
        model = _potential(lambda x: 0.0 * x)
        with pytest.raises(NonConvergent):
            tilt_window(model, 0.0)
        with pytest.raises(NonConvergent):
            tilt_windows(model, [0.0, 0.0])

    def test_one_evaluation_of_v_per_block(self):
        # Both end windows of a growth, [-4, 4] and [-8, 8] here, come from one
        # evaluation of V on the first 8 doubling levels.
        model, sizes = counting_quartic(0.5 * J_CRIT)
        ends = tilt_windows(model, [-30.0, 2.0])
        assert np.array_equal(ends, [[-8.0, 8.0], [-4.0, 4.0]])
        assert sizes == [8 * 257]


class TestMagnetization:
    def test_zero_at_origin(self, quartic_model):
        assert abs(magnetization(quartic_model, 0.0)) < 1e-12

    def test_oddness(self, quartic_model):
        for h in (0.3, 1.0, 2.5):
            assert magnetization(quartic_model, -h) == pytest.approx(
                -magnetization(quartic_model, h), abs=1e-10)

    def test_frozen_value(self, quartic_model):
        assert magnetization(quartic_model, 1.0) == pytest.approx(F_AT_1, abs=1e-10)

    def test_underresolved_tilt_raises(self):
        # The mean is about 17 and the sd 0.034, against a node spacing of
        # 0.016 on the window [-32, 32].
        with pytest.raises(GridResolution):
            magnetization(curie_weiss_model(1.0, 1.0, 1.0), 5000.0)

    def test_strictly_increasing(self, quartic_model):
        hs = np.linspace(-2, 2, 9)
        vals = [magnetization(quartic_model, h) for h in hs]
        assert np.all(np.diff(vals) > 0)

    def test_idempotent_at_fixed_point(self, quartic_model):
        res = solve_fixed_point(LogPartition(quartic_model), tol=1e-10)
        assert magnetization(quartic_model, res.h_star) == pytest.approx(
            res.h_star, abs=1e-9)


def _f_prime(model, h):
    """f'(h) = J Var(pi[J h]), as ``solve_fixed_point`` forms it."""
    J = model.coupling
    return J * tilted_measure(model, J * h).variance


class TestMagnetizationDerivative:
    def test_value_at_zero(self, quartic_model, quartic_jc):
        expected = quartic_model.coupling / quartic_jc
        assert _f_prime(quartic_model, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_matches_finite_difference(self, quartic_model):
        h, step = 0.7, 1e-5
        fd = (magnetization(quartic_model, h + step)
              - magnetization(quartic_model, h - step)) / (2 * step)
        assert _f_prime(quartic_model, h) == pytest.approx(fd, rel=1e-6)

    def test_positive_on_grid(self, quartic_model):
        for h in np.linspace(-5, 5, 11):
            assert _f_prime(quartic_model, h) > 0

    def test_one_grid_per_tilt(self):
        # log Z, the mean and the variance all come from one 4097-node grid:
        # the tilt's window is the window of z = 0, so growing the kernel to
        # it evaluates V on no second grid.
        model, sizes = counting_quartic(0.5 * J_CRIT)
        _f_prime(model, 0.7)
        assert sizes.count(4097) == 1

    def test_maximal_at_zero(self, quartic_model):
        # Non-increasing on h >= 0, so largest at h = 0.
        values = [_f_prime(quartic_model, h) for h in np.linspace(0.0, 4, 9)]
        assert np.all(np.diff(values) <= 1e-8)


class TestCriticalCoupling:
    def test_pure_gaussian_unit(self):
        assert critical_coupling_of(gaussian_model(1.0, 0.1)) == pytest.approx(1.0, abs=1e-9)

    def test_pure_gaussian_scaled(self):
        assert critical_coupling_of(gaussian_model(2.5, 0.1)) == pytest.approx(2.5, abs=1e-8)

    def test_narrow_gaussian(self):
        assert critical_coupling_of(gaussian_model(1e5, 1.0)) == pytest.approx(1e5, rel=1e-12)

    def test_quartic_regression(self, quartic_model):
        assert critical_coupling_of(quartic_model) == pytest.approx(J_CRIT, abs=1e-9)

    def test_reads_a_built_reference(self, quartic_model):
        mstar = tilted_measure(quartic_model, 0.0)
        assert critical_coupling(mstar) == 1.0 / mstar.second_moment


class TestSubcriticalReference:
    def test_returns_the_measure_it_checks(self, quartic_model, monkeypatch):
        # It takes pi[0] and builds no kernel of its own.
        mstar = LogPartition(quartic_model).reference
        monkeypatch.setattr(LogPartition, "__init__",
                            lambda self, model: pytest.fail("built a kernel"))
        assert subcritical_reference(mstar) is mstar

    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, J_CRIT),
                                       gaussian_model(1.0, 1.5)])
    def test_at_or_above_critical_raises(self, model):
        with pytest.raises(Supercritical):
            subcritical_reference(LogPartition(model).reference)


class TestReference:
    @pytest.mark.parametrize("name", list(MEASURE_MODELS))
    def test_is_pi_zero_of_a_fresh_kernel(self, name):
        # pi[0] comes from the first growth's halving check, on the first
        # grid: bit for bit what a fresh kernel's measure(0.0) gives.
        got = LogPartition(MEASURE_MODELS[name]).reference
        want = fresh_kernel_pi_zero(MEASURE_MODELS[name])
        assert got.model is want.model
        assert ([float(getattr(got, f)).hex() for f in MEASURE_FIELDS]
                == [float(getattr(want, f)).hex() for f in MEASURE_FIELDS])

    def test_is_kept_as_the_kernel_grows(self, quartic_model):
        kernel = LogPartition(quartic_model)
        first = kernel.reference
        kernel(np.array([-30.0, 30.0]))
        assert kernel.reference is first


class TestFixedPoint:
    def test_subcritical_is_centered(self, quartic_model):
        res = solve_fixed_point(LogPartition(quartic_model), tol=1e-10)
        assert abs(res.h_star) <= 1e-9
        assert abs(res.residual) <= 1e-10

    def test_zero_coupling(self):
        m = curie_weiss_model(1.0, 1.0, 0.0)
        res = solve_fixed_point(LogPartition(m), tol=1e-10)
        assert res.h_star == pytest.approx(0.0, abs=1e-12)
        assert res.iterations == 1

    def test_supercritical_branch(self):
        m = curie_weiss_model(1.0, 1.0, 1.5 * J_CRIT)
        res = solve_fixed_point(LogPartition(m), tol=1e-10, h0=1.0)
        assert res.h_star == pytest.approx(H_STAR_SUPER, abs=1e-8)

    def test_supercritical_start_at_zero_leaves_it(self):
        # h = 0 solves h = f(h) above J_c too, but f'(0) = J/J_c > 1 there:
        # the solver must not stop on it.
        m = curie_weiss_model(1.0, 1.0, 1.5 * J_CRIT)
        res = solve_fixed_point(LogPartition(m), tol=1e-10)
        assert res.h_star == pytest.approx(H_STAR_SUPER, abs=1e-8)
        assert abs(res.residual) <= 1e-10

    def test_subcritical_start_at_zero_is_unchanged(self, quartic_model):
        res = solve_fixed_point(LogPartition(quartic_model), tol=1e-10)
        mstar = tilted_measure(quartic_model, 0.0)
        assert (res.h_star, res.iterations, res.residual) == (0.0, 1, -mstar.mean)
        assert res.m_star == mstar

    def test_one_grid(self):
        model, sizes = counting_quartic(0.5 * J_CRIT)
        solve_fixed_point(LogPartition(model), tol=1e-10, h0=1.0)
        assert sizes.count(4097) <= 1

    def test_supercritical_root_to_1e10(self):
        m = curie_weiss_model(1.0, 1.0, 1.5 * J_CRIT)
        assert solve_fixed_point(LogPartition(m), tol=1e-10).h_star == pytest.approx(
            H_STAR_SUPER, abs=1e-10)

    @pytest.mark.parametrize("ratio", [1.01, 1.05, 1.1, 1.5])
    def test_supercritical_start_at_zero_finds_positive_root(self, ratio):
        # From the unstable h = 0 the solver steps up, so the root it reports
        # is the stable h_* > 0 at every J above J_c, not -h_*.
        res = solve_fixed_point(LogPartition(curie_weiss_model(1.0, 1.0, ratio * J_CRIT)),
                                tol=1e-10)
        assert res.h_star > 0
        assert abs(res.residual) <= 1e-10

    @pytest.mark.parametrize("ratio, h0, budget", [
        (1.5, 0.0, 10),
        *[(r, h0, 12) for r in (0.5, 0.9, 0.99) for h0 in (1.0, -2.0)]])
    def test_iterations_count_measure_calls(self, monkeypatch, ratio, h0, budget):
        calls = []
        measure = LogPartition.measure
        monkeypatch.setattr(LogPartition, "measure",
                            lambda self, tilt: calls.append(tilt) or measure(self, tilt))
        res = solve_fixed_point(LogPartition(curie_weiss_model(1.0, 1.0, ratio * J_CRIT)),
                                tol=1e-10, h0=h0)
        assert res.iterations == len(calls) <= budget
        assert abs(res.residual) <= 1e-10


_DOUBLE_WELL_JC = critical_coupling_of(curie_weiss_model(1.0, -1.0, 1.0))
_SUBCRITICAL = {
    **{f"quartic-{frac}Jc": curie_weiss_model(1.0, 1.0, frac * J_CRIT)
       for frac in (0.1, 0.5, 0.9, 0.99)},
    "double-well": curie_weiss_model(1.0, -1.0, 0.5 * _DOUBLE_WELL_JC),
    "gaussian": gaussian_model(1.0, 0.5),
}


class TestInterpolatedFixedPoint:
    """h = f(alpha h0 + (1 - alpha) h), the fixed point of the psi scan."""

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("name", list(_SUBCRITICAL))
    def test_matches_the_interpolated_solver(self, name, alpha):
        # Below J_c no root is unstable, so the solve takes the Newton steps
        # of the solver ``verify`` kept for it, bit for bit.
        model = _SUBCRITICAL[name]
        for h0 in (0.0, 0.3, 1.0, -0.7):
            got = solve_fixed_point(LogPartition(model), 1e-12, h0, alpha).h_star
            want = solve_interpolated_fixed_point(LogPartition(model), alpha, h0)
            assert got == want, h0

    def test_supercritical_start_at_zero_is_the_stable_root(self):
        # At 1.2 J_c from h0 = 0 the interpolated solver stopped on the
        # unstable h = 0; the restart reaches the stable root.
        model = curie_weiss_model(1.0, 1.0, 1.2 * J_CRIT)
        assert solve_interpolated_fixed_point(LogPartition(model), 0.0, 0.0) == 0.0
        res = solve_fixed_point(LogPartition(model), 1e-12, 0.0, 0.0)
        assert res.h_star > 0
        assert model.coupling * res.m_star.variance < 1.0
        assert abs(res.residual) <= 1e-12


class TestGhsConcavity:
    """f'' <= 0 for h > 0, which ``subcritical_reference`` assumes of a quartic V."""

    @pytest.mark.parametrize("sigma", [-1.0, 0.0, 1.0])
    def test_subcritical_quartic(self, sigma):
        j_c = critical_coupling_of(curie_weiss_model(1.0, sigma, 1.0))
        rep = ghs_concavity_check(curie_weiss_model(1.0, sigma, 0.5 * j_c),
                                  np.linspace(0.1, 5, 12))
        assert rep.passed

    def test_double_well(self):
        m = curie_weiss_model(1.0, -2.0, 0.5)
        rep = ghs_concavity_check(m, np.linspace(0.1, 5, 12))
        assert rep.passed

    def test_convexity_on_negative_axis(self, quartic_model):
        grid = np.linspace(0.1, 3, 8)
        rep = ghs_concavity_check(quartic_model, grid)
        # f odd implies f'' odd: second differences at -h are the negatives.
        fd = 1e-2
        for h, d in zip(rep.grid, rep.second_differences):
            fm = magnetization(quartic_model, -h - fd)
            f0 = magnetization(quartic_model, -h)
            fp = magnetization(quartic_model, -h + fd)
            neg = (fp - 2 * f0 + fm) / fd**2
            assert neg == pytest.approx(-d, abs=1e-8)
            assert neg >= -1e-6
