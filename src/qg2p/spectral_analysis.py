"""Spectral post-processing: lifted spectra, Weyl fits, heat traces and
Dirichlet/Robin bracketing checks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import form_assembly
from .eigensolve import chain_counts, counting_function, solve
from .graph_core import MetricGraph
from .vertex_conditions import VertexConditions

BRACKET_SLACK = 1e-9   # relative slack of the bracketing inequalities


class AnalysisError(ValueError):
    pass


def lift_spectrum(one_particle: np.ndarray, count: int,
                  sector: str = "full", complete: bool = False) -> np.ndarray:
    """Lowest eigenvalues of the two-particle operator with non-interacting
    conditions: sums lam_n + lam_m of one-particle eigenvalues, with n <= m
    (boson), n < m (fermion), or all ordered pairs (full); all of them
    exact when the one-particle spectrum is ``complete``."""
    lam = np.sort(np.asarray(one_particle, dtype=float))
    if sector == "full":
        sums = np.add.outer(lam, lam).ravel()
    elif sector == "boson":
        i, j = np.triu_indices(len(lam))
        sums = lam[i] + lam[j]
    elif sector == "fermion":
        i, j = np.triu_indices(len(lam), k=1)
        sums = lam[i] + lam[j]
    else:
        raise AnalysisError(f"unknown sector {sector!r}")
    sums = np.sort(sums)
    if count > len(sums):
        raise AnalysisError(
            f"need {count} lifted eigenvalues but only {len(sums)} sums are "
            "reliable; supply more one-particle eigenvalues")
    if complete:
        return sums[:count]
    # Sums using the largest one-particle eigenvalue may miss smaller
    # combinations outside the supplied range; stay below that ceiling.
    ceiling = lam[-1] + lam[0]
    reliable = sums[sums <= ceiling]
    if count > len(reliable):
        raise AnalysisError(
            f"only {len(reliable)} lifted eigenvalues are complete below the "
            "truncation ceiling; supply more one-particle eigenvalues")
    return reliable[:count]


@dataclass(frozen=True)
class WeylReport:
    slope: float
    target: float
    relative_error: float
    window: tuple
    n_used: int


def _weyl_fit(eigenvalues, variable, target: float, window: tuple,
              cap: float, counts) -> WeylReport:
    """Fit N ~ slope * x + c, x = variable(lam), over the window (its top
    capped at ``cap``, the mesh-resolved end, when given); each chain of
    tied eigenvalues counts whole (``counts``, N at each sorted eigenvalue,
    by default ``chain_counts``), and so do equal x (every lam <= 0 has
    k = 0).  A chain enters the fit whole or not at all, by the x of its
    smallest member, which no roundoff in the other members can move."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    x = variable(lam)
    lo = window[0] if window else max(x[0], 0.0)
    hi = window[1] if window else x[-1]
    if cap is not None:
        hi = min(hi, cap)
    counts = chain_counts(lam) if counts is None else np.asarray(counts)
    first = x[np.searchsorted(counts, counts)]     # x of each chain's start
    used = (first >= lo) & (first <= hi)
    xs = x[used]
    if len(xs) < 30:
        raise AnalysisError(
            f"only {len(xs)} eigenvalues in the fit window [{lo:.3g}, {hi:.3g}]; "
            "need at least 30")
    ns = counts[np.searchsorted(x, x, side="right") - 1][used].astype(float)
    sol, *_ = np.linalg.lstsq(np.vstack([xs, np.ones_like(xs)]).T, ns, rcond=None)
    slope = float(sol[0])
    return WeylReport(slope=slope, target=target,
                      relative_error=abs(slope - target) / target,
                      window=(float(lo), float(hi)), n_used=len(xs))


def weyl_fit_two_particle(eigenvalues: np.ndarray, g: MetricGraph,
                          sector: str = "full", window: tuple = None,
                          h_max: float = None, counts=None) -> WeylReport:
    """Fit N(lam) ~ slope * lam over a window and compare the slope against
    the area term: L^2 / 4pi for the full operator, L^2 / 8pi per sector."""
    c = 4.0 if sector == "full" else 8.0
    cap = None if h_max is None else (np.pi / (4.0 * h_max)) ** 2
    return _weyl_fit(eigenvalues, lambda lam: lam,
                     g.total_length**2 / (c * np.pi), window, cap, counts)


def weyl_fit_one_particle(eigenvalues: np.ndarray, g: MetricGraph,
                          window: tuple = None, h_max: float = None,
                          counts=None) -> WeylReport:
    """Fit N(k) ~ slope * k with k = sqrt(lam) against L / pi."""
    cap = None if h_max is None else np.pi / (4.0 * h_max)
    return _weyl_fit(eigenvalues, wave_number, g.total_length / np.pi, window,
                     cap, counts)


def wave_number(lam: np.ndarray) -> np.ndarray:
    """k = sqrt(lam), the one-particle Weyl variable (0 below lam = 0)."""
    return np.sqrt(np.clip(lam, 0.0, None))


def heat_trace(eigenvalues: np.ndarray, t: float) -> dict:
    """Truncated heat trace sum(exp(-lam t)) plus a crude tail estimate
    from the last eigenvalue and the Weyl density it implies."""
    if t <= 0:
        raise AnalysisError("heat trace needs t > 0")
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    value = float(np.exp(-lam * t).sum())
    lam_max = lam[-1]
    # local mean spacing near the truncation point
    tail_n = min(len(lam) - 1, 20)
    spacing = (lam[-1] - lam[-1 - tail_n]) / tail_n if tail_n > 0 else np.inf
    tail = float(np.exp(-lam_max * t) / (spacing * t)) if np.isfinite(spacing) else 0.0
    return {"value": value, "tail_estimate": tail, "t": float(t),
            "n_eigenvalues": len(lam)}


@dataclass(frozen=True)
class BracketingReport:
    ok: bool
    n_checked: int
    max_lower_violation: float
    max_upper_violation: float
    counting_ok: bool


def bracketing_check(robin_eigs: np.ndarray, target_eigs: np.ndarray,
                     dirichlet_eigs: np.ndarray, n: int) -> BracketingReport:
    """Verify mu_n(Robin) <= mu_n <= mu_n(Dirichlet) for the first n levels
    up to BRACKET_SLACK, plus the implied reversal of the counting functions
    with the Robin levels moved down and the Dirichlet ones up by it."""
    r = np.sort(np.asarray(robin_eigs))[:n]
    m = np.sort(np.asarray(target_eigs))[:n]
    d = np.sort(np.asarray(dirichlet_eigs))[:n]
    if min(len(r), len(m), len(d)) < n:
        raise AnalysisError(f"need {n} eigenvalues in each spectrum")
    scale = np.maximum(1.0, np.abs(m))
    low = np.max((r - m) / scale)
    up = np.max((m - d) / scale)
    ok = low <= BRACKET_SLACK and up <= BRACKET_SLACK

    grid = np.concatenate([r, m, d])
    slack = BRACKET_SLACK * scale
    nd, nm, nr = (counting_function(s, grid) for s in (d + slack, m, r - slack))
    return BracketingReport(ok=bool(ok), n_checked=n,
                            max_lower_violation=float(max(low, 0.0)),
                            max_upper_violation=float(max(up, 0.0)),
                            counting_ok=bool(np.all((nd <= nm) & (nm <= nr))))


def lifted_spectrum(g: MetricGraph, vc: VertexConditions, mesh, n: int,
                    sector: str = "full") -> np.ndarray:
    """Lowest n eigenvalues in ``sector`` of the two-particle lift of the
    one-particle conditions ``vc`` on ``mesh``: sums of the whole
    one-particle spectrum, all of it solved at once."""
    one = form_assembly.assemble_one_particle(g, vc, mesh)
    return lift_spectrum(solve(one, one.nreduced, vectors=False).eigenvalues,
                         n, sector, complete=True)


def comparison_spectra(g: MetricGraph, l_max: float, mesh, n: int,
                       sector: str = "full"):
    """Lowest n eigenvalues in ``sector`` of the lower (no constraints,
    L = l_max I) and upper (Dirichlet) comparison operators on ``mesh``:
    the ``lifted_spectrum`` of one-particle (P, L)."""
    one = np.eye(2 * g.E)
    return tuple(lifted_spectrum(g, VertexConditions.from_pl(P, L), mesh, n,
                                 sector)
                 for P, L in ((0.0 * one, l_max * one), (one, 0.0 * one)))


def bracketing_run(mesh, l_max: float, sector: str, n_max: int,
                   eigenvalues: np.ndarray) -> BracketingReport:
    """Check the sandwich of a two-particle run's lowest n_max
    ``eigenvalues`` (solved by the caller) between the ``comparison_spectra``
    on its mesh and in its sector, with the L_max that assembly recorded."""
    robin, dirichlet = comparison_spectra(mesh.graph, l_max, mesh, n_max, sector)
    return bracketing_check(robin, eigenvalues, dirichlet, n_max)
