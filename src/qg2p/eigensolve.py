"""Generalized eigenvalue solves for the reduced discrete pencils.

A pencil of size n is solved dense only when k > n - 2 or n^2 <= c k (dense
costs about n^3, the slices k n) and its memory fits; else by shift-invert
Lanczos in slices, one factor per shift, each certified by a Sylvester
inertia count, so the k eigenvalues are provably the lowest k.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .form_assembly import DiscreteForm

# c of n^2 <= c k: best of 3, 1 BLAS thread, lifted Dirichlet and piecewise
# Robin pencils, n = 441..3249, k = 5..300; dense wins below n^2 / k of about
# 5000..8000 (n = 1681, k = 60: dense 1.14 s, sliced 0.16 s; n = 625, k = 300:
# 0.088 s against 0.32 s).  Every pencil with n <= 77 is dense.
DENSE_COST = 6000
TIE_TOL = 1e-8
SLICE = 80          # eigenvalues asked per shift: Lanczos keeps 2 SLICE + 1 vectors
SLICE_TRIES = 6     # re-centred attempts per slice before giving up
START_STEPS = 60    # doublings of the first shift's distance from 0


class SolveError(RuntimeError):
    """Eigenvalue computation failed or was inconsistently requested."""


def dense_preferred(n: int, k: int) -> bool:
    """Whether dense eigh (about n^3) is cheaper than k of n by slices."""
    return n * n <= DENSE_COST * k


def available_memory() -> float:
    """Bytes of physical memory free now (unbounded where unknown)."""
    try:
        return float(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (ValueError, OSError, AttributeError):
        return float("inf")


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
            while j < len(lam) and _tied(lam[j - 1], lam[j], tol):
                j += 1
            groups.append((float(np.mean(lam[i:j])), j - i))
            i = j
        return groups


def _tied(a: float, b: float, tol: float = TIE_TOL) -> bool:
    return abs(b - a) <= tol * max(1.0, abs(b))


def solve(form: DiscreteForm, k: int, sector: str = "full",
          force_dense: bool = None) -> SpectrumResult:
    """Lowest k eigenpairs of the reduced pencil N^H (K - B) N u = lam N^H M N u.

    Eigenvectors are returned in full coordinates (N u) and the relative
    residuals ||(K - B) x - lam M x|| / ||M x|| are attached.  ``meta``
    records the shifts and slices, the largest LU fill, whether inertia
    counts certified the spectrum (None on the dense path, which computes
    all of it) and the M-orthonormality defect of the eigenvectors.
    """
    A, Mr = form.reduced()
    n = A.shape[0]
    if k < 1:
        raise SolveError("need k >= 1 eigenvalues")
    if k > n:
        raise SolveError(f"requested {k} eigenvalues from a pencil of size {n}")

    meta = {"C_infty": form.C_infty, "pencil_size": n, "warnings": []}
    dense = (force_dense if force_dense is not None
             else dense_preferred(n, k)) or k > n - 2
    # eigh(A, M): dense A and M, eigh's copies of both, vectors and workspace
    need = 6.0 * n * n * np.result_type(A.dtype, Mr.dtype).itemsize
    avail = available_memory()
    if dense and need > avail:
        if force_dense or k > n - 2:
            raise SolveError(f"dense eigensolve of a {n}-dof pencil needs about "
                             f"{need / 1e6:.0f} MB, {avail / 1e6:.0f} MB free")
        dense = False
        meta["warnings"].append(f"{n}-dof pencil solved iteratively: dense "
                                f"needs about {need / 1e6:.0f} MB")
    if dense:
        Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
        Md = Mr.toarray() if sp.issparse(Mr) else np.asarray(Mr)
        lam, U = sla.eigh(Ad, Md)
        lam, U = lam[:k], U[:, :k]
        meta.update(shifts=[], slices=0, lu_fill_nnz=0, inertia_certified=None)
        method = "dense"
    else:
        lam, U = _sliced_lanczos(A, Mr, k, -1.05 * form.C_infty - 1.0, meta)
        method = "shift-invert"

    res, meta["max_m_orth_defect"] = _residuals(A, Mr, lam, U)
    return SpectrumResult(eigenvalues=np.asarray(lam, dtype=float),
                          eigenvectors=form.N @ U, sector=sector, method=method,
                          residuals=res, meta=meta)


def _residuals(A, M, lam, U):
    """Relative residuals ||A u - lam M u|| / ||M u|| and the defect
    ||U^H M U - I||_max, SLICE columns at a time to bound the memory."""
    res, defect = np.empty(len(lam)), 0.0
    for j in range(0, len(lam), SLICE):
        b = slice(j, j + SLICE)
        MU = M @ U[:, b]
        G = MU.conj().T @ U                 # these rows of U^H M U
        G[:, b] -= np.eye(len(G))
        defect = max(defect, float(np.abs(G).max()))
        mnorm = np.maximum(np.linalg.norm(MU, axis=0), 1e-300)
        MU *= lam[b]
        res[b] = np.linalg.norm(A @ U[:, b] - MU, axis=0) / mnorm
    return res, defect


# ---------------------------------------------------------------------------
# sliced shift-invert Lanczos


def _factor(A, M, sigma: float, symmetric: bool = False):
    """splu of A - sigma M with a symmetric fill-reducing ordering; with
    ``symmetric`` also unpivoted, so U = D L^H carries the inertia."""
    kw = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}} \
        if symmetric else {}
    return spla.splu((A - sigma * M).tocsc(), permc_spec="MMD_AT_PLUS_A", **kw)


def _negative_pivots(lu):
    """Number of negative pivots of an unpivoted symmetric factor, which by
    Sylvester's law is the number of eigenvalues below its shift; None when
    SuperLU left the diagonal.  Reading the pivots makes scipy keep CSC
    copies of L and U with the factor."""
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _inertia(A, M, tau: float):
    """(nu, lu): nu = number of eigenvalues below tau, or None when it
    cannot be read (lu None after a zero pivot, else usable as a solver)."""
    try:
        lu = _factor(A, M, tau, symmetric=True)
    except RuntimeError:        # exactly singular: tau is an eigenvalue
        return None, None
    return _negative_pivots(lu), lu


def _lowered_start(A, M, sigma: float):
    """(sigma, nu, lu) for the first of sigma, 2 sigma, 4 sigma, ... with
    no eigenvalue below it (or no count but a usable factor)."""
    for _ in range(START_STEPS):
        nu, lu = _inertia(A, M, sigma)
        if not nu and lu is not None:
            return sigma, nu, lu
        sigma *= 2.0
    raise SolveError(f"no shift below the spectrum found down to {sigma:.3e}")


def _sliced_lanczos(A, M, k: int, sigma: float, meta: dict):
    """Lowest k eigenpairs by shift-invert Lanczos in certified slices.

    The cut tau separates accepted eigenvalues (below) from the rest; it
    starts at the first shift sigma, where nu(sigma) must be 0.  That
    shift's unpivoted factor is the first slice's OPinv, and its pivots are
    read after that run, when Lanczos has freed its basis; a nonzero count
    lowers the start and repeats the slice.  A slice asks for the m
    eigenvalues nearest s = tau + offset.  They fill the window
    |lam - s| <= r, so when s - r <= tau every eigenvalue between tau and
    the slice's top is found; the top cluster may continue past the window
    and is left for the next slice.  Each accepted slice is checked by
    nu(new cut) = number accepted; a failed check re-centres the shift
    lower, a slice without progress asks for more, and after SLICE_TRIES
    attempts the solve fails.  Every slice adds an eigenvalue, so at most k
    slices run.
    """
    n = A.shape[0]
    A, M = A.tocsc(), M.tocsc()
    dtype = np.result_type(A.dtype, M.dtype)
    v0 = np.random.default_rng(8231).standard_normal(n)

    lam_out = np.empty(k)
    U_out = np.empty((n, k), dtype=dtype)
    lu, nu0, start_read, fill = None, None, False, 0
    shifts, tau, count, spacing = [], sigma, 0, None
    while count < k:
        m = min(SLICE, max(8, (k - count) * 9 // 8 + 2), n - 2)
        offset = 0.0 if spacing is None else 0.45 * m * spacing
        for _ in range(SLICE_TRIES):
            s = tau + offset
            if lu is None:
                try:
                    lu = _factor(A, M, s, symmetric=not start_read)
                except RuntimeError as exc:
                    raise SolveError(f"factor of A - {s:.6e} M: {exc}") from None
            fill = max(fill, lu.nnz)
            op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=dtype)
            try:
                lam, U = spla.eigsh(A, m, M=M, sigma=s, which="LM", OPinv=op,
                                    v0=v0, maxiter=5000)
            except spla.ArpackError as exc:
                raise SolveError(f"shift-invert Lanczos failed: {exc}") from None
            if not start_read:
                nu0, start_read = _negative_pivots(lu), True
                counted = nu0 is not None
            lu = op = None                # one factor alive at a time
            if nu0:                       # eigenvalues below the start
                sigma, nu0, lu = _lowered_start(A, M, 2.0 * sigma)
                tau, counted = sigma, nu0 is not None
                continue
            order = np.argsort(lam)
            lam, U = lam[order], U[:, order]
            r = np.abs(lam - s).max()
            h = len(lam) // 2             # mean spacing over the top half
            spacing = max((lam[-1] - lam[h]) / max(len(lam) - 1 - h, 1),
                          TIE_TOL * max(1.0, abs(lam[-1])))
            new = np.flatnonzero(lam > tau)
            top = len(new) - 1            # start of the top cluster among new
            while top > 0 and _tied(lam[new[top - 1]], lam[new[top]]):
                top -= 1
            if s - r > tau:               # the window misses (tau, s - r)
                offset /= 2
                continue
            if top <= 0:                  # nothing below the top cluster
                m, offset = min(2 * m, n - 2), 2 * offset
                continue
            cut = 0.5 * (lam[new[top - 1]] + lam[new[top]])
            nu = _inertia(A, M, cut)[0]
            if nu is not None and nu != count + top:
                offset = offset / 2 if offset > 0 else offset - r / 2
                continue
            counted = counted and nu is not None
            take = new[:min(top, k - count)]
            lam_out[count:count + len(take)] = lam[take]
            U_out[:, count:count + len(take)] = U[:, take]
            count += top
            tau = cut
            shifts.append(float(s))
            break
        else:
            raise SolveError(f"shift-invert Lanczos slice above {tau:.6e} "
                             f"failed its checks {SLICE_TRIES} times")
    meta.update(shifts=shifts, slices=len(shifts), lu_fill_nnz=int(fill),
                inertia_certified=bool(counted))
    return lam_out, U_out


def counting_function(eigenvalues: np.ndarray, lam):
    """N(lam) = #{n : lam_n <= lam}: an int for a scalar lam, an integer
    array for an array of them."""
    n = np.searchsorted(np.sort(np.asarray(eigenvalues)), lam, side="right")
    return int(n) if np.ndim(n) == 0 else n
