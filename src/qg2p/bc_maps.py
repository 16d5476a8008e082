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
from .vertex_conditions import ConditionError, VertexConditions, _hermitize

TOL = 1e-9   # entry and defect tolerance of the map checks and predicates

# `qg2p validate`'s peak RSS per sampled entry (len(ys) dim^2): 81..99 B on
# E = 1, 2 and 3 at 500..16000 nodes per edge
SAMPLE_BYTES_PER_ENTRY = 128


class MapError(ValueError):
    """Boundary map violates a structural requirement."""


@dataclass
class BoundaryMap:
    """A y-dependent pair (P(y), L(y)) of square matrices on C^{4E^2}.

    ``eval_fn`` returns the pair at a normalized position y in [0, 1];
    a lift of one-particle conditions keeps them as ``meta["conditions"]``.
    """

    dim: int
    eval_fn: Callable[[float], tuple]
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

    def samples(self, ys: Sequence[float]):
        """(P, L) at each of ``ys``, each stacked as a (len(ys), dim, dim)
        array; a sample of another shape or with a NaN or infinite entry is
        a MapError."""
        pairs = [self(y) for y in ys]
        for y, (P, L) in zip(ys, pairs):
            if P.shape != (self.dim, self.dim) or L.shape != P.shape:
                raise MapError(f"sample at y={y} has wrong shape")
            if not (np.isfinite(P).all() and np.isfinite(L).all()):
                raise MapError(f"sample at y={y} has a NaN or infinite entry")
        return tuple(np.array(X) for X in zip(*pairs))


def constant_map(P, L) -> BoundaryMap:
    P = _hermitize(np.asarray(P, dtype=complex))
    L = _hermitize(np.asarray(L, dtype=complex))
    return BoundaryMap(dim=P.shape[0], eval_fn=lambda y: (P, L))


def piecewise_map(breakpoints, pieces) -> BoundaryMap:
    """Right-continuous step map: piece i applies on [b_i, b_{i+1})."""
    bps = np.asarray(breakpoints, dtype=float)
    mats = [(np.asarray(P, dtype=complex), np.asarray(L, dtype=complex))
            for P, L in pieces]
    if not mats or len(bps) != len(mats) + 1:
        raise MapError("need a piece and len(breakpoints) == len(pieces) + 1")
    if not np.all(np.diff(bps) > 0.0):
        raise MapError("breakpoints must be strictly increasing")

    def ev(y):
        i = int(np.clip(np.searchsorted(bps, y, side="right") - 1, 0, len(mats) - 1))
        return mats[i]

    return BoundaryMap(dim=mats[0][0].shape[0], eval_fn=ev,
                       meta={"breakpoints": bps.tolist()})


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class MapValidationReport:
    ok: bool
    L_max: float
    block_structured: bool
    corner_regular: bool
    max_projector_defect: float
    max_self_adjointness_defect: float
    max_qlq_defect: float
    errors: tuple
    warnings: tuple


def block_structured(P: np.ndarray, L: np.ndarray) -> bool:
    """True iff the sample stacks P and L commute with the particle
    exchange, which swaps the two halves of the boundary values, at every
    sample: identical diagonal half-blocks and identical off-diagonal
    half-blocks.  Then both exchange sectors are invariant under the form.
    Compares entries only."""
    h = P.shape[-1] // 2
    return not any(np.abs(D).max(initial=0.0) > TOL for M in (P, L)
                   for D in (M[:, :h, h:] - M[:, h:, :h],
                             M[:, :h, :h] - M[:, h:, h:]))


def validate_map(m: BoundaryMap, ys, stacks=None) -> MapValidationReport:
    """Per-sample projector / self-adjointness / QLQ checks of ``stacks``
    (else ``m.samples(ys)``), the exchange-invariance flag ``block_structured``,
    corner regularity at the samples y = 0, 1 and the ``sampled_l_max``.
    Stacks of one sample, of a map that ignores y, stand for every y.

    A non-projector sample is a hard error; a corner-regularity failure
    only downgrades the flag (the operator is still defined via the form).
    """
    ys = np.asarray(ys, dtype=float)
    P, L = stacks or m.samples(ys)
    Q = np.eye(m.dim) - P
    at = np.arange(len(ys)) if len(P) == len(ys) else np.zeros(len(ys), int)

    def norm(X):   # per sample; inf, without LAPACK, where X overflowed
        finite = np.isfinite(X).all(axis=(1, 2))
        X = np.where(finite[:, None, None], X, 0.0)
        return np.where(finite, np.linalg.norm(X, 2, axis=(1, 2)), np.inf)
    defects = (
        (np.maximum(norm(P @ P - P), norm(P - P.conj().swapaxes(1, 2))),
         "P(y={:.6g}) is not an orthogonal projector (defect {:.2e})"),
        (norm(L - L.conj().swapaxes(1, 2)),
         "L(y={:.6g}) is not Hermitian (defect {:.2e})"),
        (norm(L - Q @ L @ Q), "L(y={:.6g}) violates L = Q L Q (defect {:.2e})"),
    )
    # messages in the per-sample order: every defect of y_0, then of y_1, ...
    errors = [msg.format(y, d[i]) for i, y in zip(at, ys)
              for d, msg in defects if d[i] > TOL]

    near = at[(ys <= 1e-12) | (ys >= 1.0 - 1e-12)]
    h = m.dim // 2
    tl = P[near, :h, :h]
    diag = np.diagonal(tl, axis1=1, axis2=2)
    corner = not ((norm(L[near]) > TOL).any()
                  or (np.abs(np.where(np.eye(h, dtype=bool), 0.0, tl)) > TOL).any()
                  or (np.minimum(np.abs(diag), np.abs(diag - 1.0)) > TOL).any())
    warnings = () if corner else (
        "corner-regularity hypotheses not met "
        "(L != 0 or non-diagonal half-block near y = 0, 1)",)
    pd, sa, qlq = (float(d.max(initial=0.0)) for d, _ in defects)
    return MapValidationReport(
        ok=not errors, L_max=sampled_l_max(m, L),
        block_structured=block_structured(P, L), corner_regular=corner,
        max_projector_defect=pd, max_self_adjointness_defect=sa,
        max_qlq_defect=qlq,
        errors=tuple(errors), warnings=warnings,
    )


def sampled_l_max(m: BoundaryMap, L: np.ndarray) -> float:
    """max ||L(y)|| over the sampled stack ``L`` and the breakpoints of a
    piecewise map, where its pieces start: the L_max of C_infty."""
    bps = m.meta.get("breakpoints") or []
    stacks = [L, m.samples(bps)[1]] if bps else [L]
    return max(float(np.linalg.norm(X, 2, axis=(1, 2)).max()) for X in stacks)


# ---------------------------------------------------------------------------
# lifts and structure predicates


def _beta_blocks(idx: BoundaryIndexMap):
    """Index pair that picks the fixed-running-edge blocks of a 4E^2 matrix
    as a (2E, 2E, 2E) stack, one per (half, running edge); a block's rows
    and columns are its positions in increasing order."""
    pos = np.argsort(idx.half * idx.E + idx.running_edge, kind="stable")
    pos = pos.reshape(2 * idx.E, 2 * idx.E)
    return pos[:, :, None], pos[:, None, :]


def lift_one_particle(vc: VertexConditions, g: MetricGraph) -> BoundaryMap:
    """y-independent map replicating the one-particle (P, L) across the
    per-edge decomposition of the boundary-value space."""
    n = 4 * g.E * g.E
    at = _beta_blocks(BoundaryIndexMap(g))
    P = np.zeros((n, n), dtype=complex)
    L = np.zeros((n, n), dtype=complex)
    P[at], L[at] = vc.P, vc.L
    return BoundaryMap(dim=n, eval_fn=lambda y: (P, L), meta={"conditions": vc})


def lift_defect(P, L, idx: BoundaryIndexMap) -> tuple:
    """(defect, (P1, L1)): the first samples' first blocks of ``_beta_blocks``,
    and how far the sample stacks P and L are from their ``lift_one_particle``,
    the largest entry of a change over y, of a block less the first block,
    or outside the blocks; the defect is 0.0 for a bitwise lift."""
    at = _beta_blocks(idx)
    outside = np.ones(P.shape[1:], dtype=bool)
    outside[at] = False
    defect = max(float(np.abs(D).max(initial=0.0)) for M in (P, L)
                 for D in (M - M[0], M[0][at] - M[0][at][0], M[0][outside]))
    return defect, (P[0][at][0], L[0][at][0])


def is_noninteracting(P, L, idx: BoundaryIndexMap) -> bool:
    """True iff the sample stacks P and L are a lift to within TOL."""
    return lift_defect(P, L, idx)[0] <= TOL


def is_local_two_particle(P, L, idx: BoundaryIndexMap) -> bool:
    """True iff the sample stacks P and L vanish outside the vertex-local
    blocks: entries may couple components only when their boundary
    edge-ends meet in the same vertex and each component's other edge is
    connected to its own."""
    vtx = idx.vertex[idx.end_pos]
    inside = np.array([idx.graph.edges_connected(a, b) for a, b
                       in zip(idx.end_pos % idx.E, idx.running_edge)])
    ok_pair = (vtx[:, None] == vtx[None, :]) & inside[:, None] & inside[None, :]
    return not any(np.abs(M[:, ~ok_pair]).max(initial=0.0) > TOL
                   for M in (P, L))


# ---------------------------------------------------------------------------
# the folded delta-line example


def delta_example_map(v: Callable[[float, float], float], truncation: float):
    """Two identical particles on two joined half-lines (truncated to a
    compact 2-star with Dirichlet far ends), coupled through a singular
    vertex potential v sampled along the boundary: the truncated graph and
    its boundary map, in closed form.  Each half of the map (offsets 0, 8)
    holds components [11, 12, 21, 22] at 0-3; pairs (0, 2) and (1, 3) are
    degree-2 vertices of strength v(0, +-T y), so as in delta_family at
    d = 2, P = 1/2 [[1, -1], [-1, 1]] and L = -v/4 on each pair, and 4-7
    keep P = 1 (far-end Dirichlet)."""
    if truncation <= 0:
        raise MapError("truncation must be positive")
    g = build_graph({"vertices": ["center", "leaf1", "leaf2"],
                     "edges": [["center", "leaf1", truncation],
                               ["center", "leaf2", truncation]]})
    n = 16  # 4 E^2 with E = 2
    ends = np.array([[0, 2], [1, 3]])    # rows, cols: (half, pair, i, j)
    rows = np.array([0, 8])[:, None, None, None] + ends[:, :, None]
    cols = np.array([0, 8])[:, None, None, None] + ends[:, None, :]
    P = np.eye(n, dtype=complex)
    P[rows, cols] = np.where(rows == cols, 0.5, -0.5)

    def ev(yhat: float):
        s = np.array([v(0.0, truncation * yhat), v(0.0, -truncation * yhat)],
                     dtype=complex)
        if not np.isfinite(s).all() or s.imag.any():
            raise ConditionError(f"potential at y={yhat:.6g} is not finite "
                                 "and real")
        L = np.zeros((n, n), dtype=complex)
        L[rows, cols] = -s[:, None, None] / 4.0
        return P, L

    return g, BoundaryMap(dim=n, eval_fn=ev)


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
