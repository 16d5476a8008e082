"""Generalized eigenvalue solves for the reduced discrete pencils.

Small problems are handled by a dense symmetric solver; larger ones by
shift-invert Lanczos with a shift below the explicit semi-boundedness
constant, which makes the iteration target the lowest eigenvalues.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .form_assembly import DiscreteForm

DENSE_THRESHOLD_ENV = "QG2P_DENSE_THRESHOLD"
DEFAULT_DENSE_THRESHOLD = 3000
TIE_TOL = 1e-8


class SolveError(RuntimeError):
    """Eigenvalue computation failed or was inconsistently requested."""


def dense_threshold() -> int:
    raw = os.environ.get(DENSE_THRESHOLD_ENV)
    if raw is None:
        return DEFAULT_DENSE_THRESHOLD
    try:
        return int(raw)
    except ValueError:
        raise SolveError(f"{DENSE_THRESHOLD_ENV} must be an integer, got {raw!r}")


@dataclass
class SpectrumResult:
    """Sorted eigenvalues with eigenvectors prolonged to full coordinates."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray          # columns, full (unconstrained) dofs
    sector: str = "full"
    method: str = "dense"
    residuals: np.ndarray = None
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def multiplicities(self, tol: float = TIE_TOL):
        """Cluster eigenvalues closer than a relative tie tolerance."""
        lam = self.eigenvalues
        groups = []
        i = 0
        while i < len(lam):
            j = i + 1
            while j < len(lam) and abs(lam[j] - lam[j - 1]) <= tol * max(1.0, abs(lam[j])):
                j += 1
            groups.append((float(np.mean(lam[i:j])), j - i))
            i = j
        return groups


def solve(form: DiscreteForm, k: int, sector: str = "full",
          force_dense: bool = None) -> SpectrumResult:
    """Lowest k eigenpairs of the reduced pencil N^H (K - B) N u = lam N^H M N u.

    Eigenvectors are returned in full coordinates (N u) and the relative
    residuals ||(K - B) x - lam M x|| / ||M x|| are attached.
    """
    A, Mr = form.reduced()
    n = A.shape[0]
    if k < 1:
        raise SolveError("need k >= 1 eigenvalues")
    if k > n:
        raise SolveError(f"requested {k} eigenvalues from a pencil of size {n}")

    use_dense = force_dense if force_dense is not None else n <= dense_threshold()
    if use_dense or k > n - 2:
        Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
        Md = Mr.toarray() if sp.issparse(Mr) else np.asarray(Mr)
        lam, U = sla.eigh(Ad, Md)
        lam, U = lam[:k], U[:, :k]
        method = "dense"
    else:
        sigma = -1.05 * form.C_infty - 1.0
        rng = np.random.default_rng(8231)
        v0 = rng.standard_normal(n)
        try:
            lam, U = spla.eigsh(A.tocsc(), k=k, M=Mr.tocsc(), sigma=sigma,
                                which="LM", v0=v0, maxiter=5000)
        except spla.ArpackError as exc:
            raise SolveError(f"shift-invert Lanczos failed: {exc}") from None
        order = np.argsort(lam)
        lam, U = lam[order], U[:, order]
        method = "shift-invert"

    X = form.N @ U
    res = np.empty(len(lam))
    for i in range(len(lam)):
        mu = Mr @ U[:, i]
        r = A @ U[:, i] - lam[i] * mu
        res[i] = np.linalg.norm(r) / max(np.linalg.norm(mu), 1e-300)

    return SpectrumResult(eigenvalues=np.asarray(lam, dtype=float),
                          eigenvectors=X, sector=sector, method=method,
                          residuals=res,
                          meta={"C_infty": form.C_infty, "pencil_size": n})


def counting_function(eigenvalues: np.ndarray, lam: float) -> int:
    """N(lam) = #{n : lam_n <= lam} for a sorted spectrum."""
    return int(np.searchsorted(np.sort(np.asarray(eigenvalues)), lam, side="right"))
