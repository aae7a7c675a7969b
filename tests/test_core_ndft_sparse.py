"""NDFT construction and the Algorithm 1 sparse solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ndft import (
    forward_ndft,
    get_operator,
    matched_filter,
    ndft_matrix,
    steering_vector,
    tau_grid,
    unambiguous_window_s,
)
from repro.core.sparse import (
    SparseSolverConfig,
    invert_ndft,
    invert_ndft_batch,
    lasso_objective,
    soft_threshold,
)
from repro.wifi.bands import US_BAND_PLAN

FREQS_5G = US_BAND_PLAN.subset_5g().center_frequencies_hz


class TestTauGrid:
    def test_grid_spans_window(self):
        g = tau_grid(200e-9, 0.5e-9)
        assert g[0] == 0.0
        assert g[-1] < 200e-9
        assert np.allclose(np.diff(g), 0.5e-9)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            tau_grid(0.0, 1e-9)
        with pytest.raises(ValueError):
            tau_grid(10e-9, -1e-9)


class TestUnambiguousWindow:
    def test_5g_plan_is_200ns(self):
        assert unambiguous_window_s(FREQS_5G) == pytest.approx(200e-9)

    def test_2g4_plan_is_200ns(self):
        """Differences (not raw values) determine distinguishability."""
        freqs = US_BAND_PLAN.subset_2g4().center_frequencies_hz
        assert unambiguous_window_s(freqs) == pytest.approx(200e-9)

    def test_combined_plan_is_1us(self):
        freqs = US_BAND_PLAN.center_frequencies_hz
        assert unambiguous_window_s(freqs) == pytest.approx(1e-6)

    def test_single_frequency_infinite(self):
        assert unambiguous_window_s(np.array([5.18e9])) == float("inf")


class TestNdftMatrix:
    def test_shape_and_modulus(self):
        taus = tau_grid(50e-9, 1e-9)
        F = ndft_matrix(FREQS_5G, taus)
        assert F.shape == (len(FREQS_5G), len(taus))
        assert np.allclose(np.abs(F), 1.0)

    def test_float32_inputs_still_yield_complex128(self):
        """Regression: float32 frequencies/taus must not leak a
        complex64 Fourier matrix — at 5 GHz carriers a float32 phase
        argument loses the sub-nanosecond delay resolution the whole
        pipeline is built for."""
        taus = tau_grid(50e-9, 1e-9)
        F = ndft_matrix(
            FREQS_5G.astype(np.float32), taus.astype(np.float32)
        )
        assert F.dtype == np.complex128
        assert np.allclose(np.abs(F), 1.0)

    def test_forward_matches_channel_model(self):
        taus = np.array([0.0, 10e-9, 20e-9])
        profile = np.array([0.0, 1.0, 0.5], dtype=complex)
        h = forward_ndft(profile, FREQS_5G, taus)
        expected = np.exp(-2j * np.pi * FREQS_5G * 10e-9) + 0.5 * np.exp(
            -2j * np.pi * FREQS_5G * 20e-9
        )
        assert np.allclose(h, expected)

    def test_matched_filter_peaks_at_truth(self):
        tau = 33e-9
        h = steering_vector(FREQS_5G, tau)
        grid = tau_grid(200e-9, 0.25e-9)
        spectrum = matched_filter(h, FREQS_5G, grid)
        assert grid[np.argmax(spectrum)] == pytest.approx(tau, abs=0.25e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matched_filter(np.ones(3), FREQS_5G, tau_grid(10e-9, 1e-9))


class TestSoftThreshold:
    def test_small_values_zeroed(self):
        p = np.array([0.1 + 0.1j, 1.0 + 0j])
        out = soft_threshold(p, 0.5)
        assert out[0] == 0.0
        assert abs(out[1]) == pytest.approx(0.5)

    def test_phase_preserved(self):
        p = np.array([2.0 * np.exp(1j * 1.2)])
        out = soft_threshold(p, 0.5)
        assert np.angle(out[0]) == pytest.approx(1.2)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)

    @settings(max_examples=50)
    @given(
        mag=st.floats(min_value=1e-12, max_value=10.0),
        phase=st.floats(min_value=-np.pi, max_value=np.pi),
        thr=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_shrinkage_property(self, mag, phase, thr):
        """|S(x,t)| = max(|x|-t, 0) — the proximal map of the L1 norm."""
        x = np.array([mag * np.exp(1j * phase)])
        out = soft_threshold(x, thr)
        assert abs(out[0]) == pytest.approx(max(mag - thr, 0.0), abs=1e-9)

    def test_subnormal_inputs_do_not_nan(self):
        out = soft_threshold(np.array([2.2e-311 + 0j]), 1e-320)
        assert np.isfinite(out).all()


class TestInvertNdft:
    def test_single_path_recovery(self):
        tau = 40e-9
        h = steering_vector(FREQS_5G, tau)
        grid = tau_grid(200e-9, 0.5e-9)
        p = invert_ndft(h, FREQS_5G, grid)
        assert grid[np.argmax(np.abs(p))] == pytest.approx(tau, abs=0.5e-9)

    def test_solution_is_sparse(self):
        tau = 40e-9
        h = steering_vector(FREQS_5G, tau)
        grid = tau_grid(200e-9, 0.5e-9)
        p = invert_ndft(h, FREQS_5G, grid)
        occupied = np.sum(np.abs(p) > 0.01 * np.abs(p).max())
        assert occupied < 20  # a few bins, not a smeared spectrum

    def test_two_paths_separated(self):
        h = steering_vector(FREQS_5G, 30e-9) + 0.6 * steering_vector(FREQS_5G, 55e-9)
        grid = tau_grid(200e-9, 0.5e-9)
        p = np.abs(invert_ndft(h, FREQS_5G, grid))
        assert p[np.argmin(np.abs(grid - 30e-9))] > 0.1
        assert p[np.argmin(np.abs(grid - 55e-9))] > 0.05

    def test_higher_alpha_sparser_solution(self):
        h = steering_vector(FREQS_5G, 30e-9) + 0.3 * steering_vector(FREQS_5G, 90e-9)
        grid = tau_grid(200e-9, 0.5e-9)
        loose = invert_ndft(h, FREQS_5G, grid, SparseSolverConfig(alpha_rel=0.02))
        tight = invert_ndft(h, FREQS_5G, grid, SparseSolverConfig(alpha_rel=0.4))
        nnz = lambda p: np.sum(np.abs(p) > 1e-6)
        assert nnz(tight) <= nnz(loose)

    def test_accelerated_matches_plain_ista(self):
        """FISTA and ISTA share the fixed point (same LASSO optimum)."""
        h = steering_vector(FREQS_5G, 25e-9)
        grid = tau_grid(100e-9, 1e-9)
        fista = invert_ndft(
            h, FREQS_5G, grid, SparseSolverConfig(accelerated=True, max_iterations=4000)
        )
        ista = invert_ndft(
            h, FREQS_5G, grid, SparseSolverConfig(accelerated=False, max_iterations=4000)
        )
        alpha = 0.08 * np.abs(ndft_matrix(FREQS_5G, grid).conj().T @ h).max()
        obj_f = lasso_objective(fista, h, FREQS_5G, grid, alpha)
        obj_i = lasso_objective(ista, h, FREQS_5G, grid, alpha)
        assert obj_f == pytest.approx(obj_i, rel=0.05)

    def test_zero_input_gives_zero(self):
        grid = tau_grid(100e-9, 1e-9)
        p = invert_ndft(np.zeros(len(FREQS_5G)), FREQS_5G, grid)
        assert np.all(p == 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            invert_ndft(np.ones(5), FREQS_5G, tau_grid(10e-9, 1e-9))

    def test_objective_never_worse_than_zero_solution(self):
        """The solver must beat the trivial p = 0 (objective = ||h||²)."""
        h = steering_vector(FREQS_5G, 61e-9)
        grid = tau_grid(200e-9, 0.5e-9)
        p = invert_ndft(h, FREQS_5G, grid)
        alpha = 0.08 * np.abs(ndft_matrix(FREQS_5G, grid).conj().T @ h).max()
        assert lasso_objective(p, h, FREQS_5G, grid, alpha) < float(
            np.vdot(h, h).real
        )


def three_path_links(n_links, seed):
    """Seeded 3-path reciprocity-squared 5 GHz channels with mild noise."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_links):
        taus = np.sort(rng.uniform(5e-9, 90e-9, 3))
        amps = rng.uniform(0.3, 1.0, 3) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        h = sum(
            a * steering_vector(FREQS_5G, 2 * t) for a, t in zip(amps, taus, strict=True)
        )
        h += 0.02 * (rng.normal(size=len(FREQS_5G)) + 1j * rng.normal(size=len(FREQS_5G)))
        rows.append(h)
    return np.vstack(rows)


def solver_objective(P, H, grid, alpha_rel=0.08):
    """Per-link ``½||h - Fp||² + α||p||₁``: the problem the 1/L step with
    threshold ``γα`` minimizes, with α relative to ``||Fᴴh||_inf``."""
    op = get_operator(FREQS_5G, grid)
    alphas = alpha_rel * np.abs(op.adjoint @ H.T).max(axis=0)
    residual = H.T - op.F @ P.T
    return 0.5 * np.sum(np.abs(residual) ** 2, axis=0) + alphas * np.sum(
        np.abs(P), axis=1
    )


class TestAdaptiveRestart:
    """Restarted FISTA on a 64-link set: same optimum, fewer iterations,
    and a restart decision that belongs to each link alone."""

    GRID = tau_grid(200e-9, 0.5e-9)

    @pytest.fixture(scope="class")
    def solved(self):
        H = three_path_links(64, seed=11)
        iterations = np.zeros(len(H), dtype=np.int64)
        P = invert_ndft_batch(H, FREQS_5G, self.GRID, iterations_out=iterations)
        return H, P, iterations

    def test_objective_matches_long_plain_ista(self, solved):
        H, P, _ = solved
        reference = invert_ndft_batch(
            H,
            FREQS_5G,
            self.GRID,
            SparseSolverConfig(
                accelerated=False, max_iterations=20_000, tolerance_rel=1e-12
            ),
        )
        restarted = solver_objective(P, H, self.GRID)
        plain = solver_objective(reference, H, self.GRID)
        np.testing.assert_allclose(restarted, plain, rtol=1e-3)

    def test_mean_iterations_stay_low(self, solved):
        _, _, iterations = solved
        assert iterations.mean() <= 350

    def test_link_alone_matches_link_in_the_stack(self, solved):
        H, P, iterations = solved
        for i in range(len(H)):
            alone = np.zeros(1, dtype=np.int64)
            profile = invert_ndft_batch(
                H[i : i + 1], FREQS_5G, self.GRID, iterations_out=alone
            )[0]
            assert alone[0] == iterations[i]
            assert np.linalg.norm(profile - P[i]) <= 1e-12 * np.linalg.norm(P[i])
