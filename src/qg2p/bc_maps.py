"""Two-particle boundary maps P(y), L(y) on C^{4E^2}.

Maps are stored in the normalized convention: the trace parameter y runs
over [0, 1] and the sqrt(l) rescaling of the boundary vectors is applied
later, inside form assembly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .graph_core import BoundaryIndexMap, MetricGraph, build_graph
from .vertex_conditions import VertexConditions, _hermitize, ab_to_pl

DEFAULT_TOL = 1e-10


class MapError(ValueError):
    """Boundary map violates a structural requirement."""


@dataclass
class BoundaryMap:
    """A y-dependent pair (P(y), L(y)) of square matrices on C^{4E^2}.

    ``eval_fn`` returns the pair at a normalized position y in [0, 1].
    ``kind`` is a descriptor tag (constant | lifted | piecewise |
    delta_example | callable); ``noninteracting_tag`` marks maps built as
    lifts of one-particle conditions.
    """

    dim: int
    eval_fn: Callable[[float], tuple]
    kind: str = "callable"
    noninteracting_tag: bool = False
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, y: float):
        key = float(y)
        hit = self._cache.get(key)
        if hit is None:
            P, L = self.eval_fn(key)
            hit = (np.asarray(P, dtype=complex), np.asarray(L, dtype=complex))
            self._cache[key] = hit
        return hit

    def L_max(self, ys: Sequence[float] = None) -> float:
        ys = _default_samples(ys)
        return max(float(np.linalg.norm(self(y)[1], 2)) for y in ys)

    def coupling_pattern(self, ys: Sequence[float] = None, tol: float = DEFAULT_TOL):
        """Boolean matrix: True where P or L has a nonzero entry at any sample."""
        ys = _default_samples(ys)
        pat = np.zeros((self.dim, self.dim), dtype=bool)
        for y in ys:
            P, L = self(y)
            pat |= np.abs(P) > tol
            pat |= np.abs(L) > tol
        return pat


def _default_samples(ys):
    if ys is None:
        return np.linspace(0.0, 1.0, 101)
    return np.asarray(ys, dtype=float)


def constant_map(P, L, kind: str = "constant", **meta) -> BoundaryMap:
    P = _hermitize(np.asarray(P, dtype=complex))
    L = _hermitize(np.asarray(L, dtype=complex))
    return BoundaryMap(dim=P.shape[0], eval_fn=lambda y: (P, L), kind=kind,
                       meta=meta)


def piecewise_map(breakpoints, pieces, dim: int = None) -> BoundaryMap:
    """Right-continuous step map: piece i applies on [b_i, b_{i+1})."""
    bps = np.asarray(breakpoints, dtype=float)
    mats = [(np.asarray(P, dtype=complex), np.asarray(L, dtype=complex))
            for P, L in pieces]
    if len(bps) != len(mats) + 1:
        raise MapError("need len(breakpoints) == len(pieces) + 1")

    def ev(y):
        i = int(np.clip(np.searchsorted(bps, y, side="right") - 1, 0, len(mats) - 1))
        return mats[i]

    return BoundaryMap(dim=mats[0][0].shape[0], eval_fn=ev, kind="piecewise",
                       meta={"breakpoints": bps.tolist()})


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class MapValidationReport:
    ok: bool
    L_max: float
    block_structured: bool
    corner_regular: bool
    rank1_consistent: bool
    max_projector_defect: float
    max_sa_defect: float
    max_qlq_defect: float
    errors: tuple
    warnings: tuple


def _half_blocks(M: np.ndarray):
    h = M.shape[0] // 2
    return M[:h, :h], M[:h, h:], M[h:, :h], M[h:, h:]


def validate_map(m: BoundaryMap, tol: float = 1e-9, ys: Sequence[float] = None,
                 margins=(0.0, 0.0)) -> MapValidationReport:
    """Per-sample projector / self-adjointness / QLQ checks plus the
    block-structure and corner-regularity flags.

    A non-projector sample is a hard error; a corner-regularity failure
    only downgrades the flag (the operator is still defined via the form).
    """
    ys = _default_samples(ys)
    errors, warnings = [], []
    pd = sa = qlq = 0.0
    block = True
    corner = True
    rank1 = True
    for y in ys:
        P, L = m(y)
        if P.shape != (m.dim, m.dim) or L.shape != (m.dim, m.dim):
            raise MapError(f"sample at y={y} has wrong shape")
        d_proj = max(np.linalg.norm(P @ P - P, 2), np.linalg.norm(P - P.conj().T, 2))
        d_sa = np.linalg.norm(L - L.conj().T, 2)
        Q = np.eye(m.dim) - P
        d_qlq = np.linalg.norm(L - Q @ L @ Q, 2)
        pd, sa, qlq = max(pd, d_proj), max(sa, d_sa), max(qlq, d_qlq)
        if d_proj > tol:
            errors.append(f"P(y={y:.6g}) is not an orthogonal projector "
                          f"(defect {d_proj:.2e})")
        if d_sa > tol:
            errors.append(f"L(y={y:.6g}) is not Hermitian (defect {d_sa:.2e})")
        if d_qlq > tol:
            errors.append(f"L(y={y:.6g}) violates L = Q L Q (defect {d_qlq:.2e})")

        for M in (P, L):
            tl, tr, bl, br = _half_blocks(M)
            if (np.abs(tr).max(initial=0.0) > tol or np.abs(bl).max(initial=0.0) > tol
                    or np.abs(tl - br).max(initial=0.0) > tol):
                block = False

        near_corner = y <= margins[0] + 1e-12 or y >= 1.0 - margins[1] - 1e-12
        if near_corner:
            tl = _half_blocks(P)[0]
            off = tl - np.diag(np.diag(tl))
            diag = np.diag(tl)
            diag_01 = np.all(np.minimum(np.abs(diag), np.abs(diag - 1.0)) <= tol)
            if (np.linalg.norm(L, 2) > tol or np.abs(off).max(initial=0.0) > tol
                    or not diag_01):
                corner = False

        # rank-1 half-block parametrization consistency (interval graphs).
        tl = _half_blocks(P)[0]
        if tl.shape == (2, 2):
            beta, gamma = tl[0, 0].real, tl[1, 0]
            if abs(abs(gamma) ** 2 - (beta - beta**2)) > 1e3 * tol:
                rank1 = False

    if not corner:
        warnings.append("corner-regularity hypotheses not met "
                        "(L != 0 or non-diagonal half-block near y = 0, 1)")
    return MapValidationReport(
        ok=not errors, L_max=m.L_max(ys), block_structured=block,
        corner_regular=corner, rank1_consistent=rank1,
        max_projector_defect=pd, max_sa_defect=sa, max_qlq_defect=qlq,
        errors=tuple(errors), warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# lifts and structure predicates


def lift_one_particle(vc: VertexConditions, g: MetricGraph) -> BoundaryMap:
    """y-independent map replicating the one-particle (P, L) across the
    per-edge decomposition of the boundary-value space."""
    E = g.E
    n = 4 * E * E
    P = np.zeros((n, n), dtype=complex)
    L = np.zeros((n, n), dtype=complex)
    for half in (0, 1):
        off_h = half * 2 * E * E
        for beta in range(E):
            # block over (s, alpha) for fixed running edge beta
            rows = [off_h + s * E * E + alpha * E + beta
                    for s in (0, 1) for alpha in range(E)]
            src = [s * E + alpha for s in (0, 1) for alpha in range(E)]
            P[np.ix_(rows, rows)] = vc.P[np.ix_(src, src)]
            L[np.ix_(rows, rows)] = vc.L[np.ix_(src, src)]
    return BoundaryMap(dim=n, eval_fn=lambda y: (P, L), kind="lifted",
                       noninteracting_tag=True)


def _beta_block(idx: BoundaryIndexMap, half: int, beta: int):
    E = idx.E
    off = half * 2 * E * E
    return [off + s * E * E + alpha * E + beta for s in (0, 1) for alpha in range(E)]


def is_noninteracting(m: BoundaryMap, idx: BoundaryIndexMap, tol: float = 1e-9,
                      ys: Sequence[float] = None) -> bool:
    """True iff samples are y-constant and block-diagonal with identical
    blocks w.r.t. the fixed-second-edge decomposition of boundary values."""
    ys = _default_samples(ys)
    P0, L0 = m(ys[0])
    for y in ys[1:]:
        P, L = m(y)
        if np.abs(P - P0).max() > tol or np.abs(L - L0).max() > tol:
            return False

    E = idx.E
    for M in (P0, L0):
        ref = {}
        mask = np.zeros_like(M, dtype=bool)
        for half in (0, 1):
            for beta in range(E):
                rows = _beta_block(idx, half, beta)
                blk = M[np.ix_(rows, rows)]
                mask[np.ix_(rows, rows)] = True
                if "blk" not in ref:
                    ref["blk"] = blk
                elif np.abs(blk - ref["blk"]).max() > tol:
                    return False
        if np.abs(M[~mask]).max(initial=0.0) > tol:
            return False
    return True


def is_local_two_particle(m: BoundaryMap, idx: BoundaryIndexMap,
                          tol: float = 1e-9, ys: Sequence[float] = None) -> bool:
    """True iff P(y), L(y) vanish outside the vertex-local blocks: entries
    may couple components only when their boundary edge-ends meet in the
    same vertex and each component's other edge is connected to its own."""
    g = idx.graph
    n = idx.dim_full

    def in_some_block(p):
        c = idx.component(p)
        return g.edges_connected(c.pair[0], c.pair[1])

    vtx = [idx.boundary_vertex(p) for p in range(n)]
    ok_pair = np.zeros((n, n), dtype=bool)
    for p in range(n):
        for q in range(n):
            ok_pair[p, q] = (vtx[p] == vtx[q]
                             and in_some_block(p) and in_some_block(q))

    for y in _default_samples(ys):
        P, L = m(y)
        for M in (P, L):
            if np.abs(M[~ok_pair]).max(initial=0.0) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# the folded delta-line example


def delta_example_map(v: Callable[[float, float], float], truncation: float):
    """Two identical particles on two joined half-lines (truncated to a
    compact 2-star with Dirichlet far ends), coupled through a singular
    vertex potential v sampled along the boundary.

    Returns the truncated graph and the boundary map whose conditions
    enforce continuity across the center vertex in the first variable and
    a derivative jump weighted by v(0, +/- y).
    """
    if truncation <= 0:
        raise MapError("truncation must be positive")
    g = build_graph({"vertices": ["center", "leaf1", "leaf2"],
                     "edges": [["center", "leaf1", truncation],
                               ["center", "leaf2", truncation]]})
    T = truncation
    n = 16  # 4 E^2 with E = 2

    def ev(yhat: float):
        A, B = delta_center_ab(v, T, yhat)
        P0, L0 = ab_to_pl(A, B)
        half_dim = 8
        Ph = np.zeros((half_dim, half_dim), dtype=complex)
        Lh = np.zeros((half_dim, half_dim), dtype=complex)
        Ph[:4, :4] = P0
        Lh[:4, :4] = L0
        Ph[4:, 4:] = np.eye(4)  # Dirichlet at the truncated far ends
        P = np.zeros((n, n), dtype=complex)
        L = np.zeros((n, n), dtype=complex)
        P[:half_dim, :half_dim] = Ph
        P[half_dim:, half_dim:] = Ph
        L[:half_dim, :half_dim] = Lh
        L[half_dim:, half_dim:] = Lh
        return P, L

    m = BoundaryMap(dim=n, eval_fn=ev, kind="delta_example",
                    meta={"truncation": T})
    return g, m


def delta_center_ab(v: Callable[[float, float], float], truncation: float,
                    yhat: float):
    """The 4x4 (A(y), B(y)) of the center-vertex conditions at a normalized
    position, in component order [11, 12, 21, 22]: continuity across the
    vertex in the first variable plus a v-weighted derivative jump."""
    v_plus = v(0.0, truncation * yhat)
    v_minus = v(0.0, -truncation * yhat)
    A = np.array([
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, v_plus, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, v_minus],
    ], dtype=complex)
    B = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, -1.0],
    ], dtype=complex)
    return A, B


def fold_to_plane(psi11, psi12, psi21, psi22) -> np.ndarray:
    """Arrange the four square-grid components into one function on the
    doubled grid: quadrant (+,+) holds psi11, (-,+) psi21, (+,-) psi12,
    (-,-) psi22; shared axis lines average the adjacent quadrants."""
    grids = [np.asarray(a) for a in (psi11, psi12, psi21, psi22)]
    shape = grids[0].shape
    if any(g.shape != shape for g in grids) or shape[0] != shape[1]:
        raise MapError("all four components must share one square grid shape")
    n = shape[0]
    size = 2 * n - 1
    acc = np.zeros((size, size), dtype=grids[0].dtype)
    cnt = np.zeros((size, size))
    c = n - 1  # index of x = 0 / y = 0
    i = np.arange(n)
    for comp, sx, sy in ((grids[0], +1, +1), (grids[1], +1, -1),
                         (grids[2], -1, +1), (grids[3], -1, -1)):
        at = np.ix_(c + sx * i, c + sy * i)
        acc[at] += comp
        cnt[at] += 1
    return acc / cnt


def fold_axis_jumps(psi11, psi12, psi21, psi22):
    """Max mismatch of the folded function across the x = 0 and y = 0 axes."""
    p11, p12, p21, p22 = (np.asarray(a) for a in (psi11, psi12, psi21, psi22))
    jump_x = max(np.abs(p11[0, :] - p21[0, :]).max(),
                 np.abs(p12[0, :] - p22[0, :]).max())
    jump_y = max(np.abs(p11[:, 0] - p12[:, 0]).max(),
                 np.abs(p21[:, 0] - p22[:, 0]).max())
    return float(jump_x), float(jump_y)
