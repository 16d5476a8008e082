"""One-particle boundary-condition algebra on C^{2E}.

Self-adjoint Laplacian domains are held canonically as an orthogonal
projector P (P F_bv = 0) together with a self-adjoint map L supported on
ker P (Q F'_bv + L Q F_bv = 0, Q = 1 - P).  A matrix pair (A, B) with
A F_bv + B F'_bv = 0 is an input format: ``validate_ab``, ``ab_to_pl``,
``VertexConditions.from_ab`` and ``equivalence_check`` read it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import BoundaryIndexMap, MetricGraph

TOL = 1e-10   # rank, self-adjointness and locality tolerance
EQUIV_TOL = 1e-8   # (P, L) distance below which two pairs are equivalent


class ConditionError(ValueError):
    """Matrix pair does not define a self-adjoint vertex condition."""


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class ABReport:
    rank: int
    rank_ok: bool
    sa_defect: float
    sa_ok: bool

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.sa_ok


def validate_ab(A: np.ndarray, B: np.ndarray) -> ABReport:
    """Check rank([A B]) = 2E and self-adjointness of A B*."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConditionError(f"A, B must be equal square matrices, got {A.shape}, {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ConditionError("A, B have a NaN or infinite entry")
    n = A.shape[0]
    sv = np.linalg.svd(np.hstack([A, B]), compute_uv=False)
    cutoff = TOL * max(sv[0], 1.0)
    rank = int(np.count_nonzero(sv > cutoff))
    ab = A @ B.conj().T
    defect = float(np.linalg.norm(ab - ab.conj().T, 2))
    scale = max(np.linalg.norm(ab, 2), 1.0)
    return ABReport(rank=rank, rank_ok=rank == n, sa_defect=defect,
                    sa_ok=defect <= TOL * scale)


def ab_to_pl(A: np.ndarray, B: np.ndarray):
    """Canonical (P, L) of a valid pair: P projects onto ker B and
    L = (B restricted to ran B*)^{-1} A Q, extended by zero on ran P."""
    report = validate_ab(A, B)
    n = len(A)
    if not report.rank_ok:
        raise ConditionError(f"invalid (A, B): [A B] has rank {report.rank}, "
                             f"not 2E = {n}")
    if not report.sa_ok:
        raise ConditionError("invalid (A, B): A B* is not Hermitian "
                             f"(defect {report.sa_defect:.2e})")
    A, B = (np.asarray(X, dtype=complex) for X in (A, B))
    _, sv, vh = np.linalg.svd(B)
    cutoff = TOL * max(sv[0] if sv.size else 0.0, 1.0)
    null = vh.conj().T[:, sv <= cutoff] if sv.size else np.eye(n)
    P = _hermitize(null @ null.conj().T)
    Q = np.eye(n) - P
    # Minimum-norm solution of B L = A Q lies in ran B* = ran Q.
    L = np.linalg.pinv(B, rcond=TOL) @ A @ Q
    resid = np.linalg.norm(B @ L - A @ Q, 2)
    if resid > 1e3 * TOL * max(1.0, np.linalg.norm(A, 2)):
        raise ConditionError(f"B L = A Q unsolvable (residual {resid:.2e})")
    return P, _hermitize(Q @ L @ Q)


@dataclass(frozen=True)
class VertexConditions:
    """Validated one-particle condition in its canonical form (P, L)."""

    P: np.ndarray
    L: np.ndarray

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    @classmethod
    def from_ab(cls, A, B) -> "VertexConditions":
        return cls(*ab_to_pl(A, B))

    @classmethod
    def from_pl(cls, P, L) -> "VertexConditions":
        P = _hermitize(np.asarray(P, dtype=complex))
        L = _hermitize(np.asarray(L, dtype=complex))
        Q = np.eye(P.shape[0]) - P
        return cls(P, _hermitize(Q @ L @ Q))


def equivalence_check(A, B, A2, B2) -> bool:
    """True iff both pairs induce the same domain, i.e. the same (P, L), to
    within EQUIV_TOL."""
    P1, L1 = ab_to_pl(A, B)
    P2, L2 = ab_to_pl(A2, B2)
    scale = max(1.0, np.linalg.norm(L1, 2), np.linalg.norm(L2, 2))
    return (np.linalg.norm(P1 - P2, 2) <= EQUIV_TOL
            and np.linalg.norm(L1 - L2, 2) <= EQUIV_TOL * scale)


def is_local(P: np.ndarray, L: np.ndarray, idx: BoundaryIndexMap) -> bool:
    """True iff P and L are block-diagonal w.r.t. the vertex blocks."""
    apart = idx.vertex[:, None] != idx.vertex[None, :]
    return not ((np.abs(P[apart]) > TOL).any() or (np.abs(L[apart]) > TOL).any())


def standard_family(kind: str, g: MetricGraph, alpha: float = None,
                    mask=None) -> VertexConditions:
    """The four standard families: dirichlet, neumann, robin(alpha),
    mixed(mask) with mask entries 'dirichlet'/'neumann' per edge end."""
    n = 2 * g.E
    eye = np.eye(n)
    if kind == "dirichlet":
        return VertexConditions.from_pl(eye, np.zeros((n, n)))
    if kind == "neumann":
        return VertexConditions.from_pl(np.zeros((n, n)), np.zeros((n, n)))
    if kind == "robin":
        if alpha is None or alpha <= 0:
            raise ConditionError("robin requires alpha > 0")
        return VertexConditions.from_pl(np.zeros((n, n)), alpha * eye)
    if kind == "mixed":
        if mask is None or len(mask) != n:
            raise ConditionError(f"mixed requires a mask of length {n}")
        diag = []
        for entry in mask:
            if entry not in ("dirichlet", "neumann"):
                raise ConditionError(f"bad mask entry {entry!r}")
            diag.append(1.0 if entry == "dirichlet" else 0.0)
        return VertexConditions.from_pl(np.diag(diag), np.zeros((n, n)))
    raise ConditionError(f"unknown family {kind!r}")


def delta_family(g: MetricGraph, strength: float) -> VertexConditions:
    """Delta-type coupling: continuity at each vertex plus a derivative-sum
    condition with the given strength (strength 0 is the Kirchhoff case)."""
    vertex = BoundaryIndexMap(g).vertex
    block = vertex[:, None] == vertex[None, :]
    d = block.sum(axis=1)[:, None]       # the degree of each end's vertex
    # ker P = constants on each vertex block; L acts as -strength/d on them.
    P = np.eye(2 * g.E) - np.where(block, 1.0 / d, 0.0)
    L = np.where(block, -(strength / d**2), 0.0)
    return VertexConditions.from_pl(P, L)
