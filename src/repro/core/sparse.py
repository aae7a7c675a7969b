"""Algorithm 1 of the paper: sparse inversion of the non-uniform DFT.

The inverse-NDFT problem is under-determined (n ≈ 35 measurements,
m ≈ hundreds of candidate delays).  The paper regularizes it with an L1
penalty (Eqn. 10):

    min_p  || h - F p ||_2^2  +  alpha * || p ||_1

and solves it with a proximal-gradient iteration whose proximal operator
is complex soft-thresholding — the paper's SPARSIFY function.  We
implement exactly that (ISTA), plus optional FISTA acceleration with
gradient-based adaptive restart (O'Donoghue & Candès 2015): on every
stop-test iteration, a link whose momentum points against its latest
step (``Re<y_k - p_{k+1}, p_{k+1} - p_k> > 0``) has its momentum
dropped and its step counter reset.  Both reach the same fixed point;
restarted FISTA gets there in roughly a third of plain FISTA's
iterations on 24-band 5 GHz links.  The paper's step size
``gamma = 1 / ||F||^2`` and its ``||p_{t+1} - p_t|| < eps`` stop rule
apply throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.ndft import NdftOperator, get_operator, ndft_matrix
from repro.core.typing import (
    BoolMask,
    ComplexCSI,
    ComplexCSIStack,
    ComplexProfile,
    ComplexProfileStack,
    DelayVector,
    FrequencyVector,
    IndexVector,
)


@dataclass(frozen=True)
class SparseSolverConfig:
    """Tuning knobs for Algorithm 1.

    Attributes:
        alpha_rel: Sparsity weight as a fraction of ``||Fᴴh||_inf`` (the
            smallest alpha that zeroes everything is exactly that norm,
            so a relative scale is the standard LASSO convention).
        max_iterations: Hard iteration cap.
        tolerance_rel: Stop when the iterate moves less than this fraction
            of its own norm (the paper's epsilon, made scale-free).
        accelerated: Use FISTA momentum with per-link gradient restart
            (same solution as plain ISTA in far fewer iterations).  The
            restart test runs on the ``check_every`` iterations only.
        check_every: Iterations between convergence (and restart)
            tests.  Testing is three full reductions per active link, a
            measurable share of an iteration's cost; checking every few
            iterations trades at most ``check_every - 1`` extra
            (convergent) iterations per link for that overhead.  Applies
            identically to the scalar and batched solvers, which share
            the kernel.
    """

    alpha_rel: float = 0.08
    max_iterations: int = 2000
    tolerance_rel: float = 1e-5
    accelerated: bool = True
    check_every: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_rel < 1.0:
            raise ValueError(f"alpha_rel must be in (0, 1), got {self.alpha_rel}")
        if self.max_iterations < 1:
            raise ValueError(f"need at least one iteration, got {self.max_iterations}")
        if self.tolerance_rel <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance_rel}")
        if self.check_every < 1:
            raise ValueError(
                f"check_every must be at least 1, got {self.check_every}"
            )


def soft_threshold(
    p: ComplexProfile | Sequence[complex], threshold: float
) -> ComplexProfile:
    """The paper's SPARSIFY: complex soft-thresholding.

    Entries with magnitude below ``threshold`` become zero; the rest
    shrink toward zero by ``threshold`` while keeping their phase:

        p_i -> p_i * (|p_i| - t) / |p_i|     if |p_i| > t, else 0
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    p = np.asarray(p, dtype=complex)
    mags = np.abs(p)
    out = np.zeros_like(p)
    # The subnormal floor guards the division below: entries that small
    # are zero for every practical purpose and would otherwise produce
    # nan/inf through underflowing arithmetic.
    keep = (mags > threshold) & (mags > 1e-300)
    out[keep] = p[keep] * (mags[keep] - threshold) / mags[keep]
    return out


def invert_ndft(
    channels: ComplexCSI | Sequence[complex],
    frequencies_hz: FrequencyVector | Sequence[float],
    taus_s: DelayVector | Sequence[float],
    config: SparseSolverConfig | None = None,
    operator: NdftOperator | None = None,
) -> ComplexProfile:
    """Solve ``min ||h - F p||² + α||p||₁`` for the delay profile ``p``.

    The scalar entry point is the ``N = 1`` case of
    :func:`invert_ndft_batch`; the Fourier matrix and its Lipschitz
    constant come from the process-wide operator cache, so repeated
    calls on the same band plan and grid never rebuild them.

    Args:
        channels: Measured (zero-subcarrier) channels, one per frequency.
        frequencies_hz: The non-uniform measurement frequencies.
        taus_s: Candidate-delay grid (see :func:`repro.core.ndft.tau_grid`).
        config: Solver settings; defaults are tuned for the 35-band plan.
        operator: Precomputed operator for (frequencies, taus); fetched
            from the cache when omitted.

    Returns:
        Complex profile ``p`` over ``taus_s``; its magnitude is the
        multipath profile of the paper's Fig. 4.
    """
    h = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    if h.shape != freqs.shape:
        raise ValueError(
            f"channels shape {h.shape} does not match frequencies {freqs.shape}"
        )
    return invert_ndft_batch(h[None, :], freqs, taus_s, config, operator)[0]


def invert_ndft_batch(
    channels: ComplexCSIStack | Sequence[Sequence[complex]],
    frequencies_hz: FrequencyVector | Sequence[float],
    taus_s: DelayVector | Sequence[float],
    config: SparseSolverConfig | None = None,
    operator: NdftOperator | None = None,
    initial: ComplexProfileStack | None = None,
    iterations_out: IndexVector | None = None,
) -> ComplexProfileStack:
    """Algorithm 1 for a stack of links sharing one frequency set.

    Solves ``min ||h_i - F p_i||² + α_i ||p_i||₁`` for every row ``h_i``
    of ``channels`` in one vectorized FISTA run: the per-iteration
    matrix products become single GEMMs over all still-active links,
    which is where the batched engine's throughput comes from.  With
    ``accelerated`` on, each column restarts its own momentum when the
    gradient test fires, so a link's trajectory never depends on the
    other links in the stack.

    Per-link semantics match the scalar solver exactly: each link gets
    its own ``α_i`` (relative to its ``||Fᴴh_i||_inf``) and its own stop
    test, and a link that converges is *frozen* at that iterate while
    the rest keep iterating — the same trajectory the scalar loop would
    have produced for it, just computed in lockstep.

    Warm starts: a non-zero row of ``initial`` seeds that link's
    iterate (a temporal prior from the link's previous solve) and opts
    the link into *extra* convergence tests on the iterations between
    regular checks, so an already-converged seed freezes after a single
    step instead of riding out the check cadence.  All-zero rows are
    exactly the cold start: every GEMM, threshold, stop and restart test is
    column-independent, so cold links in a mixed batch follow the cold
    trajectory bit for bit, and a warm link behaves identically whether
    solved alone or stacked with cold ones.

    Args:
        channels: ``(n_links, n_frequencies)`` stacked measurements.
        frequencies_hz: The shared non-uniform measurement frequencies.
        taus_s: Candidate-delay grid shared by every link.
        config: Solver settings (shared).
        operator: Precomputed operator; fetched from the cache if None.
        initial: Optional ``(n_links, len(taus_s))`` starting iterates;
            all-zero rows start cold.
        iterations_out: Optional int array of length ``n_links``;
            filled with the iteration at which each link froze (0 for
            links whose channel is exactly zero).

    Returns:
        ``(n_links, len(taus_s))`` complex profiles, row ``i`` for link ``i``.
    """
    cfg = config or SparseSolverConfig()
    H_rows = np.asarray(channels, dtype=complex)
    freqs = np.asarray(frequencies_hz, dtype=float)
    taus = np.asarray(taus_s, dtype=float)
    if H_rows.ndim != 2:
        raise ValueError(f"channels must be 2-D (n_links, n_freqs), got {H_rows.shape}")
    if freqs.ndim != 1 or H_rows.shape[1] != len(freqs):
        raise ValueError(
            f"channels shape {H_rows.shape} does not match frequencies "
            f"{freqs.shape}"
        )
    if H_rows.shape[1] < 2:
        raise ValueError("need at least 2 frequency measurements")
    op = operator if operator is not None else get_operator(freqs, taus)
    # Value check, not just shape: an operator built for a different
    # band plan with the same dimensions would silently produce a
    # wrong profile.  Two small comparisons, noise next to the GEMMs.
    if not (
        np.array_equal(op.frequencies_hz, freqs)
        and np.array_equal(op.taus_s, taus)
    ):
        raise ValueError(
            "operator was built for different frequencies or delay grid"
        )
    F = op.F
    Fh = op.adjoint
    # Step size: gamma = 1 / ||F||^2 (largest singular value squared), as
    # in Algorithm 1; this is the Lipschitz constant of the smooth term's
    # gradient up to the factor 2 absorbed into the residual definition.
    gamma = 1.0 / op.lipschitz

    n_links = H_rows.shape[0]
    n_freqs = len(freqs)
    m = len(taus)
    if initial is not None:
        initial = np.asarray(initial, dtype=complex)
        if initial.shape != (n_links, m):
            raise ValueError(
                f"initial iterates shape {initial.shape} does not match "
                f"({n_links}, {m})"
            )
    if iterations_out is not None:
        if len(iterations_out) != n_links:
            raise ValueError(
                f"iterations_out length {len(iterations_out)} does not "
                f"match {n_links} links"
            )
        iterations_out[:] = 0
    out = np.zeros((n_links, m), dtype=complex)
    H = np.ascontiguousarray(H_rows.T)  # (n, N): links as columns
    correlation = np.abs(Fh @ H)  # (m, N)
    alphas = cfg.alpha_rel * correlation.max(axis=0)
    active = np.flatnonzero(alphas > 0.0)
    if active.size == 0:
        return out

    H_a = np.ascontiguousarray(H[:, active])
    thr = gamma * alphas[active]
    tol2 = cfg.tolerance_rel**2
    n_active = active.size
    if initial is not None:
        P = np.ascontiguousarray(initial[active].T)
        warm = np.any(P != 0.0, axis=0)
    else:
        P = np.zeros((m, n_active), dtype=complex)
        warm = np.zeros(n_active, dtype=bool)
    # FISTA state per column: the momentum point y (starting at p_0) and
    # the step counter t, a vector because restart resets it per link.
    momentum = P.copy() if cfg.accelerated else P
    t_k = np.ones(n_active)
    work = _FistaScratch(n_freqs, m, n_active)
    for iteration in range(1, cfg.max_iterations + 1):
        base = momentum if cfg.accelerated else P
        np.dot(F, base, out=work.residual)
        np.subtract(work.residual, H_a, out=work.residual)
        np.dot(Fh, work.residual, out=work.grad)
        np.multiply(work.grad, -gamma, out=work.grad)
        np.add(work.grad, base, out=work.grad)
        P_next = _soft_threshold_columns(work.grad, thr, work)
        diff = np.subtract(P_next, P, out=work.diff)
        check = iteration % cfg.check_every == 0 or iteration == cfg.max_iterations
        done: BoolMask | None = None
        restart: BoolMask | None = None
        if check:
            # The scalar stop rule ``||Δp|| < tol·||p||`` compared in
            # squares (one fused reduction per column, no square roots).
            # ``grad`` is free once thresholded, so it takes the
            # conjugated iterate and then the restart test's gap.
            diff_conj = np.conjugate(diff, out=work.diff_conj)
            step2 = np.einsum("ij,ij->j", diff, diff_conj).real
            scale2 = np.maximum(
                np.einsum(
                    "ij,ij->j", P_next, np.conjugate(P_next, out=work.grad)
                ).real,
                1e-60,
            )
            done = step2 < tol2 * scale2
            if cfg.accelerated:
                # Gradient restart (O'Donoghue & Candès 2015): once the
                # momentum point y_k and the step p_{k+1} - p_k disagree,
                # momentum is carrying the column uphill, so drop it.
                gap = np.subtract(base, P_next, out=work.grad)
                restart = np.einsum("ij,ij->j", gap, diff_conj).real > 0.0
        elif warm.any():
            # Off-cadence stop test for warm columns only: a seed that
            # arrives converged should freeze at iteration 1, not wait
            # out check_every.  Cold columns are never tested (let
            # alone frozen) here, preserving their cold trajectory.
            w = np.flatnonzero(warm)
            dw = diff[:, w]
            pw = P_next[:, w]
            step2_w = np.einsum("ij,ij->j", dw, dw.conj()).real
            scale2_w = np.maximum(
                np.einsum("ij,ij->j", pw, pw.conj()).real, 1e-60
            )
            done = np.zeros(active.size, dtype=bool)
            done[w[step2_w < tol2 * scale2_w]] = True
        if cfg.accelerated:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            weight = (t_k - 1.0) / t_next
            if restart is not None:
                weight[restart] = 0.0
                t_next[restart] = 1.0
            np.multiply(diff, weight, out=diff)
            np.add(P_next, diff, out=momentum)
            t_k = t_next
        # Ping-pong: the old iterate's buffer receives the next threshold.
        work.iterate = P
        P = P_next
        if done is None:
            continue
        if done.any():
            out[active[done]] = P[:, done].T
            if iterations_out is not None:
                iterations_out[active[done]] = iteration
            keep = ~done
            active = active[keep]
            if active.size == 0:
                return out
            P = _compact(P, keep)
            H_a = _compact(H_a, keep)
            thr = thr[keep]
            warm = warm[keep]
            t_k = t_k[keep]
            if cfg.accelerated:
                momentum = _compact(momentum, keep)
            work.narrow(active.size)
    out[active] = P.T
    if iterations_out is not None:
        iterations_out[active] = cfg.max_iterations
    return out


class _FistaScratch:
    """Work arrays of the FISTA loop, sized once for the whole batch.

    Every per-iteration operation writes into one of these, so the loop
    allocates nothing.  ``iterate`` is the ping-pong partner of the
    current iterate: each threshold lands in it, and the iterate it
    replaces becomes the next one's target.  When columns retire, each
    array is narrowed to a view of its own buffer's front (see
    :func:`_compact`), never reallocated.
    """

    __slots__ = ("residual", "grad", "iterate", "diff", "diff_conj", "mags", "shrink")

    def __init__(self, n_freqs: int, m: int, n_columns: int) -> None:
        self.residual = np.empty((n_freqs, n_columns), dtype=complex)
        self.grad = np.empty((m, n_columns), dtype=complex)
        self.iterate = np.empty((m, n_columns), dtype=complex)
        self.diff = np.empty((m, n_columns), dtype=complex)
        self.diff_conj = np.empty((m, n_columns), dtype=complex)
        self.mags = np.empty((m, n_columns))
        self.shrink = np.empty((m, n_columns))

    def narrow(self, n_columns: int) -> None:
        """Re-view every array at ``n_columns`` columns (contents dropped)."""
        for name in self.__slots__:
            array = getattr(self, name)
            rows = array.shape[0]
            setattr(
                self, name, array.reshape(-1)[: rows * n_columns].reshape(rows, n_columns)
            )


def _compact(X: np.ndarray, keep: BoolMask) -> np.ndarray:
    """The ``keep`` columns of C-contiguous ``X``, moved to its buffer's front.

    Returns a C-contiguous view of ``X``'s own memory, so a retirement
    costs one transient copy of the survivors and leaves nothing behind.
    """
    kept = X[:, keep]
    front = X.reshape(-1)[: kept.size].reshape(kept.shape)
    front[...] = kept
    return front


def _soft_threshold_columns(
    P: np.ndarray, thresholds: np.ndarray, work: _FistaScratch
) -> np.ndarray:
    """Column-wise complex soft-thresholding (``thresholds[j]`` per column).

    Same shrinkage map as :func:`soft_threshold`, expressed as
    whole-array operations with a real (not complex) division because
    this runs once per FISTA iteration on the full batch: entries at or
    below the threshold get a zero ratio, and the subnormal clamp on
    the denominator keeps 0/0 out without a data-dependent branch.
    Writes into ``work.iterate`` (returned) using the scratch's real
    buffers, so it allocates nothing.
    """
    # sqrt(re² + im²) instead of np.abs: the hypot ufunc's overflow
    # guards cost ~2x on arrays this size, and profile entries are
    # nowhere near the overflow range.
    mags = np.multiply(P.real, P.real, out=work.mags)
    shrink = np.multiply(P.imag, P.imag, out=work.shrink)
    np.add(mags, shrink, out=mags)
    np.sqrt(mags, out=mags)
    np.subtract(mags, thresholds, out=shrink)
    np.maximum(shrink, 0.0, out=shrink)
    np.maximum(mags, 1e-300, out=mags)
    np.divide(shrink, mags, out=shrink)
    return np.multiply(P, shrink, out=work.iterate)


def lasso_objective(
    p: ComplexProfile | Sequence[complex],
    channels: ComplexCSI | Sequence[complex],
    frequencies_hz: FrequencyVector | Sequence[float],
    taus_s: DelayVector | Sequence[float],
    alpha: float,
) -> float:
    """Evaluate the Eqn. 10 objective — used by convergence tests."""
    F = ndft_matrix(np.asarray(frequencies_hz, float), np.asarray(taus_s, float))
    residual = np.asarray(channels, complex) - F @ np.asarray(p, complex)
    return float(np.sum(np.abs(residual) ** 2) + alpha * np.sum(np.abs(p)))
