import tracemalloc
from dataclasses import replace
from functools import partial, reduce

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson

from chaoslab import marginals, numerics, verify
from chaoslab.errors import (GridResolution, NonFinite, NonPositiveDefinite,
                             RegimeViolation, Supercritical)
from chaoslab.marginals import (MAX_LEVEL, MixtureLaw, build_mixture,
                                conditional_entropy_level,
                                gaussian_entropy_oracle, marginal_grid_density,
                                marginal_log_density_batch, marginal_moment,
                                relative_entropy_levels, sample_marginal,
                                wasserstein2_marginal)
from chaoslab.meanfield import LogPartition, tilt_windows, tilted_measure
from chaoslab.model import (MAX_PARTICLES, GeneralPotential, ModelSpec,
                            RankOneInteraction, curie_weiss_model, gaussian_model)
from chaoslab.numerics import FINE_POINTS, GridDensity
from chaoslab.verify import jw_log_mgf
from conftest import (GAUSS_JOINT_KL, J_CRIT, N2_KL_LIMIT_SAMPLE, W2_N32,
                      critical_coupling_of)
from oracles import (EXP_UNDERFLOW, fresh_kernel_pi_zero, integrate,
                     node_density_window_by_trapezoid, node_grid_densities,
                     node_row_entropy_levels, node_rows_per_row,
                     refine_support_by_full_scans, tensor_entropy_levels,
                     tensor_marginal_log_density, unit_mass_rows,
                     window_search_by_full_scans)

# theta = 1 models of the tensor-oracle gates: (sigma, fraction of J_c).
TENSOR_GATE_MODELS = [(1.0, 0.5), (1.0, 0.9), (-1.0, 0.5)]
TENSOR_GATE_IDS = ["quartic-0.5", "quartic-0.9", "double-well-0.5"]


class TestBuildMixture:
    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            build_mixture(curie_weiss_model(1.0, 1.0, -0.5), 4)

    @pytest.mark.parametrize("J", [1.0, 1.5])
    def test_supercritical_gaussian_raises(self, J):
        # J_c = sigma for the Gaussian model; the mixing weight
        # exp(-N z^2 (1/J - 1/sigma) / 2) is not normalizable there.
        with pytest.raises(Supercritical):
            build_mixture(gaussian_model(1.0, J), 16)

    @pytest.mark.parametrize("n", [1, 32, 2**16])
    @pytest.mark.parametrize("model", [
        curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT), gaussian_model(1.0, 0.5),
        curie_weiss_model(1.0, -1.0, 0.5)], ids=["quartic", "gaussian", "double-well"])
    def test_reference_is_pi_zero_of_a_fresh_kernel(self, model, n):
        # m_* is measured on the mixture kernel's first grid, before the
        # field search grows it: bit for bit a fresh kernel's pi[0].
        got, want = build_mixture(model, n).reference, fresh_kernel_pi_zero(model)
        assert got.model is model
        for name in ("tilt", "log_z", "mean", "second_moment"):
            assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), name

    def test_rejects_n_above_range(self, quartic_model):
        # Above 2^20 the levels drift with no typed error (N^2 H_1 reads 5.11
        # at 2^28 against 0.138 at 2^20).
        with pytest.raises(ValueError):
            build_mixture(quartic_model, MAX_PARTICLES + 1)

    def test_n1_density_matches_direct(self, quartic_model):
        law = build_mixture(quartic_model, 1)
        J = quartic_model.coupling
        z = integrate(lambda x: np.exp(-quartic_model.potential(x) + J * x**2 / 2))
        xs = np.linspace(-2.5, 2.5, 21)
        direct = np.exp(-quartic_model.potential(xs) + J * xs**2 / 2) / z
        mix = np.exp(marginal_log_density_batch(law, xs[:, None]))
        assert np.max(np.abs(mix - direct)) < 1e-8

    def test_weak_coupling_collapses_to_mstar(self):
        m = curie_weiss_model(1.0, 1.0, 1e-6)
        law = build_mixture(m, 8)
        g = marginal_grid_density(law)
        mstar = tilted_measure(m, 0.0)
        tv = 0.5 * np.trapezoid(np.abs(g.values - mstar.density(g.xs)), dx=g.dx)
        assert tv <= 1e-4

    def test_underresolved_grid_raises(self):
        # The fixed x-window (-1, 1) under-resolves this model: unchecked, the
        # mixture gives H_1 = 0.093 against the closed-form 0.00094.
        with pytest.raises(GridResolution):
            build_mixture(gaussian_model(1e8, 0.5e8), 16)

    def test_weights_normalized(self, quartic_model):
        from scipy.special import logsumexp
        law = build_mixture(quartic_model, 16)
        assert abs(logsumexp(law.z_log_weights)) < 1e-10
        assert len(law.z_nodes) >= 32

    @pytest.mark.parametrize("n, grids", [(32, 4), (1024, 2)])
    def test_one_growing_kernel(self, n, grids):
        # Every log Z_1, log Z_1(0) included, comes from one kernel whose
        # 4097-node grid grows with the field search; a fresh grid per z-scan
        # would make 8 at N = 32 and 6 at N = 1024.
        sizes = []

        def v(x):
            sizes.append(np.size(x))
            return x**4 / 4 + x**2 / 2

        model = ModelSpec(GeneralPotential(v=v, grad_v=lambda x: x**3 + x),
                          RankOneInteraction(0.5 * J_CRIT))
        build_mixture(model, n)
        assert 1 <= sizes.count(4097) <= grids
        # The tilt windows read V on the first 8 doubling levels in one call.
        assert set(sizes) <= {257, 513, 8 * 257, 4097}

    def test_node_grid_spans_x_window(self, quartic_model):
        law = build_mixture(quartic_model, 32)
        g = marginal_grid_density(law)
        assert (g.lo, g.hi) == law.x_window
        xs = marginals._node_grid(law, 1001)
        assert (xs[0], xs[-1]) == law.x_window
        rows = marginals._node_rows(law, slice(None), xs, -quartic_model.potential(xs))
        assert rows.shape == (len(law.z_nodes), 1001)


def _broken_log_z1(method, beyond, bad):
    """``method``, a log Z_1 read of ``LogPartition``, with the value ``bad``
    at every tilt of magnitude ``beyond`` or more."""
    def values(self, *args):
        zs = np.linspace(*args) if len(args) == 3 else args[0]
        return np.where(np.abs(zs) >= beyond, bad, method(self, *args))
    return values


def _refinement_cases():
    j_c = critical_coupling_of(curie_weiss_model(1.0, 1.0, 1.0))
    cases = [(f"quartic-{frac}Jc", curie_weiss_model(1.0, 1.0, frac * j_c), n)
             for frac in (0.1, 0.5, 0.9, 0.99, 1.5) for n in (2, 32, 1024, 2**16, 2**20)]
    cases += [("double-well", curie_weiss_model(1.0, -1.0, 1.0), n) for n in (8, 64)]
    cases += [("deep-double-well", curie_weiss_model(0.1, -5.0, 0.3), n)
              for n in (4, 64, 4096)]
    cases += [("gaussian", gaussian_model(1.0, 0.5), n) for n in (1, 1024, 65536)]
    return [pytest.param(model, n, id=f"{name}-N{n}") for name, model, n in cases]


class TestMixtureKernels:
    """The mixture kernels that compute only what they keep, against the full
    computations in ``oracles``, bit for bit where a test does not say
    otherwise."""

    @pytest.mark.parametrize("model, n", _refinement_cases())
    def test_refinement_matches_full_scans(self, model, n, monkeypatch):
        # Both field searches of build_mixture, the doubling search and the
        # refinement, against versions that read log Z_1 on every point.
        got = build_mixture(model, n)
        monkeypatch.setattr(marginals, "window_search", window_search_by_full_scans)
        monkeypatch.setattr(marginals, "_refine_support", refine_support_by_full_scans)
        want = build_mixture(model, n)
        for name in ("z_nodes", "z_log_weights", "node_log_z1"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.log_z0 == want.log_z0
        assert got.x_window == want.x_window

    @pytest.mark.parametrize("model, n", [
        pytest.param(gaussian_model(0.2, 0.1), 2, id="gaussian-0.2-N2"),
        pytest.param(gaussian_model(0.2, 0.1), 32, id="gaussian-0.2-N32"),
        pytest.param(gaussian_model(10.0, 5.0), 1024, id="gaussian-10-N1024")])
    def test_refinement_matches_full_scans_at_ties(self, model, n, monkeypatch):
        # A point of the first refinement pass lies on the cut to the last
        # bit.  A grid read alone lands a rounding away and moves the window
        # by one step; the refinement reads such points again one by one.
        J = model.coupling
        profile = partial(marginals._log_weight_profile, LogPartition(model), n, J)
        zs = numerics.window_search(profile, n / (2.0 * J), n)[0]
        logw = profile(np.linspace(zs[0], zs[-1], marginals._REFINE_POINTS))[0]
        assert (logw == logw.max() - numerics.LOG_CUT).any()
        got = build_mixture(model, n)
        monkeypatch.setattr(marginals, "_refine_support", refine_support_by_full_scans)
        want = build_mixture(model, n)
        assert np.array_equal(got.z_nodes, want.z_nodes)

    @pytest.mark.parametrize("search", ["build_mixture", "jw_log_mgf"])
    @pytest.mark.parametrize("n", [2, 1024])
    def test_kernel_grows_as_with_full_scans(self, search, n, monkeypatch):
        # Each scan reads its two ends in its first call, so the kernel grows
        # at the same tilts, and to the same windows, as on full scans.
        grown = []
        grow = LogPartition._grow

        def recorded(self, z_max):
            log_z = grow(self, z_max)
            grown.append((z_max, self.window))
            return log_z

        monkeypatch.setattr(LogPartition, "_grow", recorded)
        quartic = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        run = {"build_mixture": lambda: build_mixture(quartic, n),
               "jw_log_mgf": lambda: jw_log_mgf(quartic, n)}[search]
        run()
        got = list(grown)
        grown.clear()
        module = marginals if search == "build_mixture" else verify
        monkeypatch.setattr(module, "window_search", window_search_by_full_scans)
        run()
        # The jw search at N = 2 stops on its first scan, |t| <= 16, so its
        # kernel grows once past pi[0]'s grid.
        assert got == grown and len(got) >= (2 if (search, n) == ("jw_log_mgf", 2) else 3)

    def test_log_z1_work(self, monkeypatch):
        # Full scans read 3432 log Z_1 rows here: 2403 in the refinement, 771
        # in the doubling search.  Each refinement pass is one grid read of
        # its 801 points, and reads per point only its maximum again (3 rows
        # in all).  The per-point rows are 312: 51 in the doubling search
        # (three scans of 17 read points, no gap filled), those 3, the 257
        # nodes and log Z_1(0).
        rows, grids, refinement = [], [], []
        call, linspace = LogPartition.__call__, LogPartition.linspace
        refine = marginals._refine_support

        def counted_call(self, zs):
            rows.append(np.size(zs))
            return call(self, zs)

        def counted_linspace(self, lo, hi, n):
            grids.append(n)
            return linspace(self, lo, hi, n)

        def counted_refine(*args):
            before = sum(rows)
            out = refine(*args)
            refinement.append(sum(rows) - before)
            return out

        monkeypatch.setattr(LogPartition, "__call__", counted_call)
        monkeypatch.setattr(LogPartition, "linspace", counted_linspace)
        monkeypatch.setattr(marginals, "_refine_support", counted_refine)
        build_mixture(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT), 32)
        assert grids == [801, 801, 801]
        assert refinement[0] <= 6
        assert sum(rows) <= 320

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("beyond", [0.5, 3.0])
    def test_non_finite_log_z1_raises(self, bad, beyond, monkeypatch):
        # log Z_1 is NaN or +inf for |z| >= beyond: at points of the first
        # doubling scan (0.5), or of a later one (3.0).  Points skipped
        # inside a gap need no check (a convex log Z_1 finite at both ends
        # of a gap is finite inside it), but every point read is checked.
        # build_mixture reads log Z_1 (__call__ in the doubling search,
        # linspace in the refinement), jw_log_mgf its cgf.
        for name in ("__call__", "cgf", "linspace"):
            monkeypatch.setattr(LogPartition, name,
                                _broken_log_z1(getattr(LogPartition, name), beyond, bad))
        model = curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT)
        with pytest.raises(NonFinite):
            build_mixture(model, 2)
        with pytest.raises(NonFinite):
            jw_log_mgf(model, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_refinement_read_raises(self, bad, monkeypatch):
        # Only the refinement's grid reads are broken, so the doubling search
        # passes and the refinement's own check must raise.
        monkeypatch.setattr(LogPartition, "linspace",
                            _broken_log_z1(LogPartition.linspace, 0.5, bad))
        with pytest.raises(NonFinite):
            build_mixture(curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT), 2)

    def test_exp_underflow_constant(self):
        assert np.exp(EXP_UNDERFLOW) == 0.0
        assert np.exp(np.full(9, EXP_UNDERFLOW)).max() == 0.0

    @pytest.mark.parametrize("n_points, chunk_rows",
                             [(marginals._LEVEL_POINTS, None), (1001, 6), (4097, 40)])
    @pytest.mark.parametrize("n", [8, 1024])
    def test_level_one_density_is_node_row_mix(self, n, n_points, chunk_rows,
                                               quartic_model, monkeypatch):
        # Level 1's p_1 = pi[0] g_1 is the Esscher form of the mix of the
        # unit-mass node rows, with g_1 summed in chunks of points.
        law = build_mixture(quartic_model, n)
        xs, dens = node_grid_densities(law, n_points)
        dx = (xs[-1] - xs[0]) / (n_points - 1)
        want = np.exp(law.z_log_weights) @ unit_mass_rows(dens, dx)
        if chunk_rows is not None:
            monkeypatch.setattr(numerics, "_CHUNK_BYTES", 8 * law.z_nodes.size * chunk_rows)
            assert n_points % chunk_rows
        log_g = marginals._log_gk(law, 1, xs)
        got = np.exp(log_g - quartic_model.potential(xs) - law.log_z0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=4e-15 * want.max())

    @pytest.mark.parametrize("block", ["quartic-tails", "all-dead-row",
                                       "dead-inside-span", "nan-row"])
    def test_node_rows_match_per_row_loop(self, block, quartic_model):
        # One dead mask per block against each row's exp between its first
        # and last live exponent: dead entries inside a row's span are 0.0
        # either way, and NaN is live on both routes.
        law = build_mixture(quartic_model, 32)
        xs = marginals._node_grid(law, 1001)
        neg_v = -quartic_model.potential(xs)
        log_z1 = law.node_log_z1.copy()
        if block == "all-dead-row":
            log_z1[3] = 1e4
        elif block == "nan-row":
            log_z1[5] = np.nan
        elif block == "dead-inside-span":
            neg_v[480:520] = -1e4
        law = replace(law, node_log_z1=log_z1)
        want = node_rows_per_row(law, slice(None), xs, neg_v)
        got = marginals._node_rows(law, slice(None), xs, neg_v)
        assert got.tobytes() == want.tobytes()
        exponents = np.multiply.outer(law.z_nodes, xs) + neg_v - log_z1[:, None]
        dead = exponents < EXP_UNDERFLOW
        assert (dead | np.isnan(exponents))[:, [0, -1]].all() and not dead.all()
        assert {"all-dead-row": dead[3].all(), "nan-row": np.isnan(got[5]).all(),
                "dead-inside-span": dead[:, 480:520].all() and not dead[:, 470].any(),
                "quartic-tails": True}[block]

    @pytest.mark.parametrize("model, n", _refinement_cases())
    def test_node_density_window_matches_trapezoid(self, model, n, monkeypatch):
        # The sizing pass's moments against np.trapezoid's, on the window
        # build_mixture hands it: bit for bit where that window (the end
        # nodes' tilt windows) holds every node, as on every Gaussian case,
        # and within 16 ulp per end where the +-12 std reach past it.
        calls = []
        window = marginals._node_density_window

        def recorded(law):
            calls.append((law, window(law)))
            return calls[-1][1]

        monkeypatch.setattr(marginals, "_node_density_window", recorded)
        build_mixture(model, n)
        (law, got), = calls
        want = node_density_window_by_trapezoid(law)
        if want == law.x_window:
            assert got == want
        else:
            np.testing.assert_array_max_ulp(np.array(got), np.array(want), maxulp=16)

    @pytest.mark.parametrize("n", [1024, 2**16])
    def test_gaussian_probe_window_is_the_end_tilt_windows(self, n):
        # The window of the Gaussian h1_relerr_* probes: the end nodes' tilt
        # windows, which the sizing pass's +-12 std (about +-12.3) lie inside,
        # so no change of that pass's sums can move a bit of its levels.
        law = build_mixture(gaussian_model(1.0, 0.5), n)
        ends = tilt_windows(law.model, law.z_nodes[[0, -1]])
        assert law.x_window == (-16.0, 16.0)
        assert law.x_window == (ends[:, 0].min(), ends[:, 1].max())

    def test_row_moments_match_gaussian_closed_form(self):
        # Rows of peak 1, so the means and variances are read per unit mass.
        xs = np.linspace(-16.0, 16.0, 513)
        mu, sd = np.array([-3.0, 0.0, 0.7, 2.5]), np.array([0.25, 0.5, 1.0, 1.0])
        rows = np.exp(-0.5 * ((xs - mu[:, None]) / sd[:, None]) ** 2)
        mass, means, variances = marginals._row_moments(rows, xs)
        np.testing.assert_allclose(mass, np.sqrt(2.0 * np.pi) * sd, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(means, mu, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(variances, sd**2, rtol=0.0, atol=1e-13)

    @staticmethod
    def assert_grid_density_matches_full_matrix(law, n_points):
        # The oracle mixes the node densities of one full (points, nodes)
        # matrix with one BLAS product; the kernel sums in the log domain,
        # in blocks of points.  Returns the oracle's mix.
        xs, dens = node_grid_densities(law, n_points)
        want = GridDensity(xs[0], xs[-1], n_points, np.exp(law.z_log_weights) @ dens)
        got = marginal_grid_density(law)
        assert (got.lo, got.hi, got.n_points) == (want.lo, want.hi, want.n_points)
        assert np.max(np.abs(got.values - want.values)) <= 1e-14 * want.values.max()
        return got.values, want.values

    @pytest.mark.parametrize("n_points, block",
                             [(FINE_POINTS, None), (1001, 48), (1000, 8)])
    @pytest.mark.parametrize("n", [8, 1024])
    def test_marginal_grid_density_matches_full_matrix(self, n, n_points, block,
                                                      quartic_model, monkeypatch):
        # 1001 points are not a multiple of a 48-point block; 1000 are of 8.
        law = build_mixture(quartic_model, n)
        monkeypatch.setattr(marginals, "FINE_POINTS", n_points)
        if block is not None:
            monkeypatch.setattr(numerics, "_GRID_BLOCK", block)
        got, want = self.assert_grid_density_matches_full_matrix(law, n_points)
        # The quartic's tails underflow: points there are exactly 0.0.
        assert want[0] == want[-1] == got[0] == got[-1] == 0.0

    @pytest.mark.parametrize("model", [gaussian_model(4.0, 0.99 * 4.0),
                                       curie_weiss_model(1.0, -1.0, 1.0)],
                             ids=["gauss-0.99Jc", "double-well"])
    @pytest.mark.parametrize("n", [8, 1024])
    def test_marginal_grid_density_matches_full_matrix_off_quartic(self, n, model):
        # Wide field supports (the Gaussian's nodes reach +-67 at N = 8) and
        # a two-humped marginal.
        self.assert_grid_density_matches_full_matrix(build_mixture(model, n), FINE_POINTS)

    def test_level_one_rows_reaching_the_edge_raise(self, quartic_model):
        law = build_mixture(quartic_model, 32)
        with pytest.raises(GridResolution):
            relative_entropy_levels(replace(law, x_window=(-1.0, 1.0)), 1)


class TestMarginalLogDensity:
    def test_evenness(self, quartic_model):
        law = build_mixture(quartic_model, 8)
        for x in (0.3, 1.1, 2.0):
            assert marginal_log_density_batch(law, [x])[0] == pytest.approx(
                marginal_log_density_batch(law, [-x])[0], abs=1e-9)

    def test_exchangeability(self, quartic_model, rng):
        law = build_mixture(quartic_model, 8)
        pt = rng.normal(size=3)
        base = marginal_log_density_batch(law, pt[None])[0]
        for _ in range(4):
            assert marginal_log_density_batch(law, rng.permutation(pt)[None])[0] == pytest.approx(
                base, abs=1e-12)

    def test_n2_brute_force(self, quartic_model, rng):
        law = build_mixture(quartic_model, 2)
        pts1 = rng.uniform(-1.5, 1.5, size=(10, 1))
        pts2 = rng.uniform(-1.5, 1.5, size=(10, 2))
        assert np.allclose(marginal_log_density_batch(law, pts1),
                           tensor_marginal_log_density(quartic_model, 2, pts1, -8.0, 8.0, 2001),
                           atol=1e-7)
        assert np.allclose(marginal_log_density_batch(law, pts2),
                           tensor_marginal_log_density(quartic_model, 2, pts2, -8.0, 8.0, 2001),
                           atol=1e-7)

    def test_n3_brute_force(self, quartic_model, rng):
        law = build_mixture(quartic_model, 3)
        pts = rng.uniform(-1.5, 1.5, size=(6, 2))
        assert np.allclose(marginal_log_density_batch(law, pts),
                           tensor_marginal_log_density(quartic_model, 3, pts, -8.0, 8.0, 801),
                           atol=1e-6)

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("sigma, frac", TENSOR_GATE_MODELS, ids=TENSOR_GATE_IDS)
    def test_matches_tensor_oracle(self, sigma, frac, n, rng):
        # On +-6 with 601 points a side the tensor rule met the mixture to
        # 3.6e-15 in log at every case.
        model = _subcritical_model(sigma, frac)
        law = build_mixture(model, n)
        for k in (1, 2):
            pts = rng.uniform(-2.5, 2.5, size=(10, k))
            np.testing.assert_allclose(
                marginal_log_density_batch(law, pts),
                tensor_marginal_log_density(model, n, pts, -6.0, 6.0, 601),
                rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_batch_k_outside_one_to_n_raises(self, k):
        # m^{2,k} exists for k = 1, 2 only; k = 5 read -3.858 and k = 0 read 0.0.
        law = build_mixture(curie_weiss_model(1.0, 1.0, 1.0), 2)
        with pytest.raises(ValueError):
            marginal_log_density_batch(law, np.zeros((1, k)))


class TestEntropyLevels:
    def test_weak_coupling_levels_tiny(self):
        m = curie_weiss_model(1.0, 1.0, 1e-6)
        law = build_mixture(m, 8)
        lv = relative_entropy_levels(law, 4)
        assert np.all(lv.levels <= 1e-8)

    def test_gaussian_oracle_match(self, gauss_model):
        law = build_mixture(gauss_model, 16)
        lv = relative_entropy_levels(law, 2)
        for k in (1, 2):
            assert lv.levels[k] == pytest.approx(
                gaussian_entropy_oracle(1.0, 0.5, 16, k), abs=1e-6)

    def test_levels_positive_and_monotone(self, quartic_model):
        law = build_mixture(quartic_model, 16)
        lv = relative_entropy_levels(law, 4)
        assert np.all(lv.levels >= 0)
        conds = [conditional_entropy_level(lv, k) for k in range(1, 5)]
        assert np.all(np.diff(conds) >= -1e-10)
        assert all(c >= -1e-10 for c in conds)

    def test_conditionals_telescope(self, quartic_model):
        law = build_mixture(quartic_model, 8)
        lv = relative_entropy_levels(law, 4)
        total = sum(conditional_entropy_level(lv, k) for k in range(1, 5))
        assert total == pytest.approx(float(lv.levels[4]), abs=1e-14)

    def test_level_one_memory(self, quartic_model):
        # Level 1 is pi[0] g_1 on the 4096-point grid, with g_1 summed in
        # chunks: no (nodes, points) buffer, which alone was 8.4 MB.
        law = build_mixture(quartic_model, 1024)
        relative_entropy_levels(law, 1)
        tracemalloc.start()
        try:
            relative_entropy_levels(law, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                                       gaussian_model(1.0, 0.5)],
                             ids=["quartic", "gaussian"])
    def test_level_one_bits_do_not_depend_on_chunking(self, model, monkeypatch):
        # Each point's log g_1 is its own Laplace sum, so the chunk size that
        # bounds level 1's memory leaves its bits, and the Tier-1 pin, alone.
        law = build_mixture(model, 1024)
        want = relative_entropy_levels(law, 1).levels[1]
        monkeypatch.setattr(numerics, "_CHUNK_BYTES", 8 * law.z_nodes.size * 7)
        assert relative_entropy_levels(law, 1).levels[1] == want

    def test_zero_level_raises(self):
        # At J = 1e-30, H_1 is of order (J/N)^2: every digit is lost and
        # level 1 reads 0.0.  J > 0 makes every level positive, so that is
        # an error.
        law = build_mixture(curie_weiss_model(1.0, 1.0, 1e-30), 1024)
        with pytest.raises(GridResolution):
            relative_entropy_levels(law, 1)

    def test_supercritical_raises(self):
        # m_* = pi[0] is the wrong limit above J_c: unguarded, H_1 reads 1.565.
        law = build_mixture(curie_weiss_model(1.0, 1.0, 1.5 * J_CRIT), 64)
        with pytest.raises(Supercritical):
            relative_entropy_levels(law, 1)

    def test_asymmetric_confinement_raises(self):
        # pi[0] of V = x^4/4 + x^2/2 - x/2 has mean 0.231, so pi[0] is not the
        # limit: unguarded, H_1 reads 0.0359, 0.0365, 0.0367 at N = 64, 256,
        # 1024 instead of falling as 1/N^2.
        v = GeneralPotential(v=lambda x: x**4 / 4 + x**2 / 2 - 0.5 * x,
                             grad_v=lambda x: x**3 + x - 0.5)
        law = build_mixture(ModelSpec(v, RankOneInteraction(1.0)), 64)
        with pytest.raises(RegimeViolation):
            relative_entropy_levels(law, 1)

    def test_even_general_potential_matches_quartic(self, quartic_model):
        v = GeneralPotential(v=lambda x: x**4 / 4 + x**2 / 2, grad_v=lambda x: x**3 + x)
        general = ModelSpec(v, quartic_model.interaction)
        got = relative_entropy_levels(build_mixture(general, 16), 2).levels
        want = relative_entropy_levels(build_mixture(quartic_model, 16), 2).levels
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 4, 1024, 2**16])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [1e-3, 1e-2, 0.1, 1.0, 100.0])
    def test_gaussian_oracle_over_scales(self, sigma, frac, n):
        # Narrow and wide Gaussians at small and large N: the node densities
        # must be sized on the end nodes' tilt windows, not on a wider one.
        J = frac * sigma
        k_max = min(2, n)
        levels = relative_entropy_levels(build_mixture(gaussian_model(sigma, J), n),
                                         k_max).levels
        for k in range(1, k_max + 1):
            assert levels[k] == pytest.approx(
                gaussian_entropy_oracle(sigma, J, n, k), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n", [8, 64, 1024, 2**16])
    def test_gaussian_oracle_high_levels(self, gauss_model, n):
        levels = relative_entropy_levels(build_mixture(gauss_model, n), 8).levels
        for k in range(5, 9):
            assert levels[k] == pytest.approx(
                gaussian_entropy_oracle(1.0, 0.5, n, k), rel=1e-9, abs=0.0)

    def test_quartic_level_n_closed_form(self, quartic_model):
        n = 8
        law = build_mixture(quartic_model, n)
        got = relative_entropy_levels(law, n).levels[n]
        assert got == pytest.approx(_level_n_closed_form(law), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("theta, sigma, frac",
                             [(1.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, -1.0, 0.9),
                              (10.0, 1.0, 0.9), (1.0, 0.0, 0.5)])
    def test_quartic_level_n_closed_form_family(self, theta, sigma, frac, n):
        # Single and double wells, a stiff quartic and the pure quartic, up to
        # 0.9 J_c.  The node-row route met these only to 1.4e-12.
        j_c = critical_coupling_of(curie_weiss_model(theta, sigma, 1.0))
        law = build_mixture(curie_weiss_model(theta, sigma, frac * j_c), n)
        got = relative_entropy_levels(law, n).levels[n]
        assert got == pytest.approx(_level_n_closed_form(law), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("frac, n, k_max",
                             [(0.5, 32, 3), (0.5, 128, 3), (0.5, 512, 3), (0.9, 1024, 8)])
    def test_matches_node_row_oracle(self, frac, n, k_max):
        # Every node's k-fold density convolved: the oracle is itself within
        # about 2e-10 of the Gaussian closed form.  Its level 1 mixes the
        # unit-mass node rows, which pi[0] g_1 replaced.
        law = build_mixture(curie_weiss_model(1.0, 1.0, frac * J_CRIT), n)
        got = relative_entropy_levels(law, k_max).levels
        want = node_row_entropy_levels(law, k_max)
        assert got[1] == pytest.approx(want[1], rel=1e-14, abs=0.0)
        np.testing.assert_allclose(got[2:], want[2:], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("model, n, k_max",
                             [("quartic", 32, 3), ("quartic", 8, 8),
                              ("double-well", 8, 8), ("gaussian", 1024, 8)])
    def test_more_reference_rows_agree(self, model, n, k_max, monkeypatch):
        model = {"quartic": curie_weiss_model(1.0, 1.0, 0.5 * J_CRIT),
                 "double-well": curie_weiss_model(
                     1.0, -1.0, 0.9 * critical_coupling_of(curie_weiss_model(1.0, -1.0, 1.0))),
                 "gaussian": gaussian_model(1.0, 0.5)}[model]
        law = build_mixture(model, n)
        used = []
        chosen = marginals._reference_tilts

        def spy(law, xs, k_max):
            rows = chosen(law, xs, k_max)
            used.append(len(rows[0]))
            return rows

        monkeypatch.setattr(marginals, "_reference_tilts", spy)
        base = relative_entropy_levels(law, k_max).levels
        (m,) = used
        monkeypatch.setattr(marginals, "_reference_tilts",
                            lambda law, xs, k_max: marginals._tilted_rows(law, xs, 2 * m - 1))
        more = relative_entropy_levels(law, k_max).levels
        np.testing.assert_allclose(more[1:], base[1:], rtol=1e-12, atol=0.0)

    def test_too_many_reference_rows_raise(self, quartic_model, monkeypatch):
        # N = 8 at k_max = 8 needs 9 rows; with a cap of 5 it must raise, not
        # return levels from rows spaced too far apart.
        law = build_mixture(quartic_model, 8)
        monkeypatch.setattr(marginals, "_MAX_ROWS", 5)
        with pytest.raises(GridResolution):
            relative_entropy_levels(law, 8)

    def test_k_max_bounds(self, quartic_model):
        with pytest.raises(ValueError):
            relative_entropy_levels(build_mixture(quartic_model, 4), 5)
        with pytest.raises(ValueError):  # above MAX_LEVEL = 8
            relative_entropy_levels(build_mixture(quartic_model, 16), 9)

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("sigma, frac", TENSOR_GATE_MODELS, ids=TENSOR_GATE_IDS)
    def test_matches_tensor_oracle(self, sigma, frac, n):
        # Every quartic level k <= min(N, 8) off the mixture.  On +-6 with
        # 601 points a side the tensor rule met it to 1.6e-14 relative, and
        # doubling the points moved the rule by at most 1.4e-14.
        model = _subcritical_model(sigma, frac)
        k_max = min(n, MAX_LEVEL)
        got = relative_entropy_levels(build_mixture(model, n), k_max).levels
        want = tensor_entropy_levels(model, n, k_max, -6.0, 6.0, 601)
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-9, atol=0.0)


class TestTensorOracle:
    @pytest.mark.parametrize("model", [curie_weiss_model(1.0, 1.0, 1.0),
                                       curie_weiss_model(1.0, -1.0, 1.0)],
                             ids=["quartic", "double-well"])
    def test_is_the_tensor_grid_sum(self, model, rng):
        # The convolution powers only reorder the composite-Simpson tensor
        # sum: on a coarse grid, summing every grid point of [lo, hi]^N one
        # term at a time gives the same m^{N,1} and m^{N,2}.
        xs = np.linspace(-8.0, 8.0, 201)
        a = simpson(np.eye(xs.size), x=xs) * np.exp(-model.potential(xs))
        J = model.coupling

        def tensor_sum(s, n, r):
            # sum over the r-dim grid of prod a(x_i) exp(J (s + sum x_i)^2 / 2n)
            weight = reduce(np.multiply, np.ix_(*[a] * r), 1.0)
            return np.sum(weight * np.exp(J * (s + sum(np.ix_(*[xs] * r))) ** 2 / (2 * n)))

        for n in (2, 3):
            log_z = np.log(sum(ai * tensor_sum(x, n, n - 1) for x, ai in zip(xs, a)))
            for k in (1, 2):
                pts = rng.uniform(-1.5, 1.5, size=(4, k))
                want = [np.log(tensor_sum(pt.sum(), n, n - k)) - model.potential(pt).sum() - log_z
                        for pt in pts]
                np.testing.assert_allclose(
                    tensor_marginal_log_density(model, n, pts, -8.0, 8.0, 201), want,
                    rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_gaussian_levels_match_closed_form(self, gauss_model, n):
        # On +-16 the rule holds every coordinate's tail and met the closed
        # form to 2.8e-17 (on +-8 it read H_1 1.5e-8 high at N = 2).
        got = tensor_entropy_levels(gauss_model, n, n, -16.0, 16.0, 1201)
        want = [gaussian_entropy_oracle(1.0, 0.5, n, k) for k in range(1, n + 1)]
        np.testing.assert_allclose(got[1:], want, rtol=0.0, atol=1e-12)

    def test_truncated_window_raises(self, gauss_model):
        # At N = 2 one coordinate's law (variance 3/2) weighs exp(-64/3) =
        # 5.4e-10 of its peak at x = 8.
        with pytest.raises(GridResolution):
            tensor_entropy_levels(gauss_model, 2, 1, -8.0, 8.0, 801)
        with pytest.raises(GridResolution):
            tensor_marginal_log_density(gauss_model, 2, np.zeros((1, 1)), -8.0, 8.0, 801)

    def test_overflowing_exp_raises(self):
        # exp(J N L^2 / 2) at N = 16, L = 8 and 0.9 J_c is exp(985).
        model = curie_weiss_model(1.0, 1.0, 0.9 * J_CRIT)
        with pytest.raises(NonFinite):
            tensor_entropy_levels(model, 16, 1, -8.0, 8.0, 801)


def _subcritical_model(sigma: float, frac: float):
    """The theta = 1 quartic model at ``frac`` of its critical coupling."""
    return curie_weiss_model(
        1.0, sigma, frac * critical_coupling_of(curie_weiss_model(1.0, sigma, 1.0)))


def _level_n_closed_form(law: MixtureLaw) -> float:
    """H(m^N | m_*^N) = (J/2N) E[S_N^2] - log E_{m_*^N}[exp(J S_N^2/2N)], with
    E[S_N^2] = sum_j w_j (N Var_j + N^2 mean_j^2) over the field nodes."""
    model, n = law.model, law.n_particles
    second = 0.0
    for z, logw in zip(law.z_nodes, law.z_log_weights):
        mu = tilted_measure(model, z)
        var = mu.second_moment - mu.mean**2
        second += np.exp(logw) * (n * var + n * n * mu.mean**2)
    return model.coupling / (2 * n) * second - jw_log_mgf(model, n)


class TestGaussianOracle:
    def test_zero_coupling(self):
        for k in (1, 3, 5):
            assert gaussian_entropy_oracle(1.0, 0.0, 8, k) == 0.0

    def test_full_joint_regression(self):
        assert gaussian_entropy_oracle(1.0, 0.5, 4, 4) == pytest.approx(
            GAUSS_JOINT_KL, abs=1e-12)

    def test_n_squared_scaling(self):
        n = 1024
        assert n * n * gaussian_entropy_oracle(1.0, 0.5, n, 1) == pytest.approx(
            N2_KL_LIMIT_SAMPLE, abs=1e-10)
        # The scaled sequence converges: doubling N moves it by o(1).
        seq = [2**p * 2**p * gaussian_entropy_oracle(1.0, 0.5, 2**p, 1)
               for p in (7, 8, 9, 10)]
        assert abs(seq[-1] - seq[-2]) < abs(seq[1] - seq[0])

    def test_not_positive_definite(self):
        with pytest.raises(NonPositiveDefinite):
            gaussian_entropy_oracle(1.0, 1.0, 8, 1)

    @pytest.mark.parametrize("sigma, J, n, k", [
        *[(1.0, u / (1.0 + u), 1, 1) for u in np.logspace(-12, 1, 27)],
        *[(1.0, -u / (1.0 - u), 1, 1) for u in (1e-12, 1e-6, 0.01, 0.2, 0.3, 0.9)],
        (1.0, 0.5, 2**10, 1), (1.0, 0.5, 2**16, 1), (1.0, 0.5, 2**20, 1),
        (4.0, 1.0, 2**20, 1), (1.0, 0.5, 2**16, 8), (4.0, 3.96, 8, 8),
    ])
    def test_against_mpmath(self, sigma, J, n, k):
        # u = kJ / (N (sigma - J)) from 1e-12 to 10 (and a few negative u);
        # (u - log1p u)/2 cancels for small u, to 4.9e-12 at N = 2^16.
        with mpmath.workdps(50):
            u = mpmath.mpf(k) * J / (mpmath.mpf(n) * (mpmath.mpf(sigma) - J))
            exact = (u - mpmath.log1p(u)) / 2
            got = gaussian_entropy_oracle(sigma, J, n, k)
            assert abs(got - exact) <= 1e-14 * exact

    def test_subadditivity(self):
        # H(m^{N,k}|m_*^k) <= H(m^N|m_*^N) / floor(N/k) in the Gaussian family.
        for n in (12, 24):
            full = gaussian_entropy_oracle(1.0, 0.5, n, n)
            for k in (1, 2, 3, 4):
                lhs = gaussian_entropy_oracle(1.0, 0.5, n, k)
                assert lhs <= full / (n // k) + 1e-10


class TestWasserstein2:
    def test_frozen_value_and_talagrand_direction(self, quartic_model):
        law = build_mixture(quartic_model, 32)
        w2 = wasserstein2_marginal(law)
        assert w2 == pytest.approx(W2_N32, abs=1e-9)
        h1 = relative_entropy_levels(law, 1).levels[1]
        rho0 = 1.0  # sigma = 1 branch
        assert rho0 / 2.0 * w2 * w2 <= h1 + 1e-10

    def test_near_zero_for_weak_coupling(self):
        m = gaussian_model(1.0, 1e-6)
        law = build_mixture(m, 16)
        w2 = wasserstein2_marginal(law)
        assert w2 < 1e-4


class TestSampling:
    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_k_outside_one_to_n_raises(self, k):
        law = build_mixture(curie_weiss_model(1.0, 1.0, 1.0), 2)
        with pytest.raises(ValueError):
            sample_marginal(law, 3, k=k)

    def test_seed_determinism(self, quartic_model):
        law = build_mixture(quartic_model, 8)
        a = sample_marginal(law, 500, seed=3, k=2)
        b = sample_marginal(law, 500, seed=3, k=2)
        assert np.array_equal(a, b)

    def test_draws_match_the_per_node_loop(self, quartic_model):
        # Every node's CDF is built in one batched pass; the draws must be
        # those of the per-node construction, bit for bit.
        law = build_mixture(quartic_model, 8)
        got = sample_marginal(law, 3000, seed=4, k=3)

        rng = np.random.Generator(np.random.Philox(key=4))
        xs, dens = node_grid_densities(law, FINE_POINTS)
        weights = np.exp(law.z_log_weights)
        node_idx = rng.choice(len(weights), size=3000, p=weights / weights.sum())
        want = np.empty((3000, 3))
        for j in np.unique(node_idx):
            mask = node_idx == j
            cdf = cumulative_trapezoid(dens[j], dx=xs[1] - xs[0], initial=0.0)
            cdf /= cdf[-1]
            want[mask] = np.interp(rng.random((int(mask.sum()), 3)), cdf, xs)
        assert np.array_equal(got, want)

    def test_moments_match_grid(self, quartic_model):
        law = build_mixture(quartic_model, 16)
        draws = sample_marginal(law, 200_000, seed=5)
        exact = marginal_moment(law, 2)
        se = draws.std() ** 2 / np.sqrt(len(draws))
        assert abs((draws**2).mean() - exact) < 5 * max(se, 1e-3)
