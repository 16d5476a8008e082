"""Generalized eigenvalue solves for the reduced discrete pencils.

A full-space two-particle form whose map is exchange invariant is solved as
its boson and fermion ``symmetry.sector_pencils`` (the symmetry-adapted block
diagonalisation for the exchange group Z_2), any other form as one pencil.
The pencils are solved dense, one at a time, only when forced or when
Lanczos cannot give k eigenvalues of each, k > min(n_s) - 2; else by
shift-invert Lanczos in slices from -1 up, one loop over the pencils, each
slice certified by the Sylvester inertia count at its cut.  The lowest k
of the union of their spectra, the full one, are the result.
A pencil with a ``lift`` (the two-particle lift of one-particle conditions,
``symmetry.sector_pencils``) is solved and counted with no sparse factor,
from the one-particle reduced eigenpairs, once one probe solve confirms it.
The kernel is thick-restart Lanczos (Wu & Simon 2000) with DGKS full
reorthogonalisation (Daniel, Gragg, Kaufman & Stewart 1976) on at most
3 w + 1 vectors for slices of at most w eigenvalues: w = SLICE = 80 where
each shift costs a sparse factor, SLICE / 2 = 40 where it costs none.
"""
from __future__ import annotations

import functools
import os
import resource
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import symmetry
from .form_assembly import DiscreteForm

TIE_TOL = 1e-8
SLICE = 80          # eigenvalues asked per factored shift, half per unfactored
BLOCK = 16          # columns per residual and defect block
COMPACT_ROWS = 64   # basis rows per block of a thick restart's compaction
SLICE_TRIES = 6     # re-centred attempts per slice before giving up
LANCZOS_BASIS = 3 * SLICE + 1  # the largest basis of any slice
LANCZOS_RESTARTS = 50   # thick restarts per slice before giving up
EPS = np.finfo(float).eps / 2   # LAPACK's dlamch("E"), ARPACK's tol = 0
START_STEPS = 60    # fallback shifts tried: -1, -16, -256, ... (see _start)
PROBE_TOL = 1e-8    # relative error of a lifted pencil's probe solve


class SolveError(RuntimeError):
    """Eigenvalue computation failed or was inconsistently requested."""


# (limit, usage) files of the root memory cgroup, v2 then v1; the process's
# own cgroup (from PROC_CGROUP) holds the same files in a subdirectory
CGROUP_MEMORY = (("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current"),
                 ("/sys/fs/cgroup/memory/memory.limit_in_bytes",
                  "/sys/fs/cgroup/memory/memory.usage_in_bytes"))
PROC_CGROUP = "/proc/self/cgroup"
PROC_STATM = "/proc/self/statm"     # field 0: the virtual size in pages


def _read_bytes(path: str):
    """A file's first number; None when unreadable or "max"."""
    try:
        with open(path) as fh:
            return int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _own_cgroup(v2: bool) -> str:
    """The process's cgroup path, relative to the mount: the ``0::<path>``
    line of PROC_CGROUP for v2, the line naming the memory controller for
    v1; "" (the root) when there is no such line."""
    try:
        with open(PROC_CGROUP) as fh:
            for line in fh:
                _, controllers, path = line.rstrip("\n").split(":", 2)
                if (controllers == "" if v2 else "memory" in controllers.split(",")):
                    return path.strip("/")
    except (OSError, ValueError):
        pass
    return ""


def available_memory() -> float:
    """Bytes of memory free now: physical memory, the room left under a
    soft address-space limit (``ulimit -v``) and under a readable cgroup
    limit, the process's own cgroup's or else the root's."""
    try:
        free = float(os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (ValueError, OSError, AttributeError):
        free = float("inf")
    limit, pages = resource.getrlimit(resource.RLIMIT_AS)[0], _read_bytes(PROC_STATM)
    if limit != resource.RLIM_INFINITY and pages is not None:
        free = min(free, float(limit - pages * resource.getpagesize()))
    for root_files in CGROUP_MEMORY:
        own = _own_cgroup(root_files[0].endswith("memory.max"))
        own_files = [os.path.join(os.path.dirname(f), own, os.path.basename(f))
                     for f in root_files]
        for limit_file, usage_file in (own_files, root_files):
            limit = _read_bytes(limit_file)
            if limit is not None:
                free = min(free, float(limit - (_read_bytes(usage_file) or 0)))
                break
    return free


@dataclass
class SpectrumResult:
    """Sorted eigenvalues, with the eigenvectors kept reduced as ``blocks``,
    one ``(N, U, cols)`` per pencil with N @ U the columns ``cols``, or
    none after a values-only solve; ``beyond`` more accepted eigenvalues
    continue the last one's chain of ties."""

    eigenvalues: np.ndarray
    method: str = "dense"
    residuals: np.ndarray = None
    meta: dict = field(default_factory=dict)
    blocks: tuple = field(default=(), repr=False)
    beyond: int = 0

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    @property
    def counts(self) -> np.ndarray:
        """N at each eigenvalue, every chain of ties counted whole, the last
        with its ``beyond`` members (``chain_counts``)."""
        return chain_counts(self.eigenvalues, self.beyond)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvectors in full dofs, prolonged on the first read."""
        if not self.blocks:
            raise SolveError("solved without eigenvectors")
        X = np.empty((self.blocks[0][0].shape[0], self.k), dtype=np.result_type(
            *[a.dtype for N, U, _ in self.blocks for a in (N, U)]))
        for N, U, cols in self.blocks:
            for j in range(0, len(cols), SLICE):    # SLICE columns at a time
                X[:, cols[j:j + SLICE]] = N @ U[:, j:j + SLICE]
        return X


def _chain_cuts(lam: np.ndarray) -> np.ndarray:
    """Start of every chain of consecutive tied eigenvalues but the first:
    b follows a in a chain when b - a is within the relative tie tolerance."""
    a, b = lam[:-1], lam[1:]
    return np.flatnonzero(~(np.abs(b - a) <= TIE_TOL * np.maximum(1.0, np.abs(b)))) + 1


def solve(pencils, k: int, force_dense: bool = False,
          vectors: bool = True) -> SpectrumResult:
    """Lowest k eigenpairs of the union of the reduced pencils
    N^H (K - B) N u = lam N^H M N u of ``symmetry.sector_pencils``; a
    ``DiscreteForm`` goes through ``sector_pencils`` in its own sector first.

    Eigenvectors are prolonged to full coordinates (N u) on first read.
    The relative residuals ||A_r u - lam M_r u|| / ||M_r u|| on this
    reduced pencil A_r u = lam M_r u are attached; a non-finite one is a
    SolveError.  Each slice takes its candidates' residuals once its
    Lanczos basis is freed, the dense path those of each pencil's lowest
    k, and the merge only places them.  ``meta`` records the shifts and
    slices, the largest LU fill, whether inertia counts certified the
    spectrum (None on the dense path, which computes all of it) and the
    M-orthonormality defect of the eigenvectors.  ``vectors=False``
    (LAPACK's jobz = "N") keeps no eigenvectors, and the defect is None,
    never measured.

    ``meta["sectors"]`` has one record per pencil when there are several,
    else None.  The pencils are sliced unless ``force_dense`` or
    k > n_s - 2 for one of them; dense ``eigh`` of a form with
    ``force_dense=True`` takes its unsplit full pencil.
    """
    if k < 1:
        raise SolveError("need k >= 1 eigenvalues")
    if isinstance(pencils, DiscreteForm):
        pencils = symmetry.sector_pencils(pencils, split=not force_dense)
    sizes = [p.A.shape[0] for p in pencils]
    n = sum(sizes)
    if k > n:
        raise SolveError(f"requested {k} eigenvalues from a pencil of size {n}")

    meta = {"C_infty": pencils[0].C_infty, "pencil_size": n, "sectors": None,
            "warnings": []}
    dense = force_dense or k > min(sizes) - 2   # Lanczos gives n_s - 2 at most
    if dense:
        # eigh(A, M) per pencil: A, M, eigh's copies of both, vectors, workspace
        check_memory(f"dense eigensolve of a {max(sizes)}-dof pencil",
                     6.0 * max(sizes) ** 2 * max(X.dtype.itemsize for p in pencils
                                                 for X in (p.A, p.M)))
        solved = []     # (accepted values, lowest k's vectors, residuals, shifts)
        for A, M in ((p.A, p.M) for p in pencils):
            lam, U = sla.eigh(A.toarray(), M.toarray())
            U = U[:, :k].copy()
            solved.append((lam, U, _residuals(A, M, lam[:k], U), []))
        meta.update(shifts=[], slices=0, lu_fill_nnz=0, inertia_certified=None)
    else:
        solved = [(p.lam, p.U, p.res, p.shifts)
                  for p in _sliced_lanczos(pencils, k, -1.05 * meta["C_infty"] - 1.0,
                                           meta, vectors)]
    # the lowest k of the union take a prefix of each pencil's eigenvalues;
    # the rest accepted may continue the k-th's chain
    lam = np.concatenate([s[0] for s in solved])
    order = np.argsort(lam, kind="stable")[:k]
    beyond = int(chain_counts(lam)[k - 1]) - k
    owner = np.repeat(np.arange(len(pencils)), [len(s[0]) for s in solved])[order]
    res, defect, blocks = np.empty(k), 0.0, []
    for i, (p, (_, U, r, _)) in enumerate(zip(pencils, solved)):
        cols = np.flatnonzero(owner == i)
        res[cols] = r[:len(cols)]
        if vectors:
            U = U[:, :len(cols)]
            defect = max(defect, _m_defect(p.M, U))
            blocks.append((p.N, U, cols))
    if not np.isfinite(res).all():
        raise SolveError(f"non-finite residuals "
                         f"({np.count_nonzero(~np.isfinite(res))} of {k})")
    if len(pencils) > 1:
        meta["sectors"] = [
            {"sector": p.sector, "pencil_size": size, "shifts": shifts,
             "slices": len(shifts), "accepted": len(values)}
            for p, size, (values, *_, shifts) in zip(pencils, sizes, solved)]
    meta["max_m_orth_defect"] = defect if vectors else None
    return SpectrumResult(eigenvalues=lam[order], residuals=res, meta=meta,
                          method="dense" if dense else "shift-invert",
                          blocks=tuple(blocks), beyond=beyond)


def check_memory(what: str, need: float) -> None:
    """SolveError when ``what`` needs ``need`` bytes, more than
    ``available_memory``."""
    avail = available_memory()
    if need > avail:
        raise SolveError(f"{what} needs about {need / 1e6:.0f} MB, "
                         f"{avail / 1e6:.0f} MB free")


def _residuals(A, M, lam, U):
    """Relative residuals ||A u - lam M u|| / ||M u|| of U's columns, BLOCK
    at a time.  NumPy sums each column of a column-major block pairwise, so
    a column's residual does not depend on the width of the block it is
    taken in."""
    res = np.empty(len(lam))
    for j in range(0, len(lam), BLOCK):
        b = slice(j, j + BLOCK)
        MU = np.asfortranarray(M @ U[:, b])
        mnorm = np.maximum(np.linalg.norm(MU, axis=0), 1e-300)
        MU *= lam[b]
        R = np.asfortranarray(A @ U[:, b])
        R -= MU
        res[b] = np.linalg.norm(R, axis=0) / mnorm
    return res


def _m_defect(M, U):
    """||U^H M U - I||_max, BLOCK rows of U^H M U at a time."""
    defect = 0.0
    for j in range(0, U.shape[1], BLOCK):
        G = (M @ U[:, j:j + BLOCK]).conj().T @ U
        G[:, j:j + BLOCK] -= np.eye(len(G))
        defect = max(defect, float(np.abs(G).max()))
    return defect


# ---------------------------------------------------------------------------
# sliced shift-invert Lanczos


def _factor(A, M, sigma: float, count: bool = False):
    """splu of A - sigma M in symmetric mode: unpivoted with ``count``, so
    U = D L^H carries the inertia, else with diagonal pivots of at least 0.1
    (unpivoted loses residual digits; partial pivoting costs 1.5x the fill)."""
    return spla.splu((A - sigma * M).tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0 if count else 0.1,
                     options={"SymmetricMode": True})


def _negative_pivots(lu):
    """Number of negative pivots of an unpivoted symmetric factor, which by
    Sylvester's law is the number of eigenvalues below its shift; None when
    SuperLU left the diagonal.  Reading the pivots makes scipy keep CSC
    copies of L and U with the factor."""
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _inertia(A, M, tau: float):
    """Number of eigenvalues below tau, or None when it cannot be read: tau
    is an eigenvalue (a zero pivot) or SuperLU left the diagonal."""
    try:
        return _negative_pivots(_factor(A, M, tau, count=True))
    except RuntimeError:        # exactly singular: tau is an eigenvalue
        return None


def _start(count, floor: float) -> float:
    """The first of -1, -16, -256, ... whose ``count`` (of eigenvalues below
    it, or None) reads 0; an unreadable count moves on.  The first
    candidate below ``floor`` is floor itself, and the rest go on from it."""
    sigma = -1.0
    for _ in range(START_STEPS):
        if count(sigma) == 0:
            return sigma
        sigma = floor if sigma > floor > 16.0 * sigma else 16.0 * sigma
    raise SolveError(f"no shift below the spectrum found above {sigma:.3e}")


class _Diagonalised:
    """A - sigma M of a pencil with a ``lift`` (A1, M1, N1), from mu, V of
    A1 V = M1 V diag(mu), V^H M1 V = I, one dense ``eigh`` built once the
    form is freed, and G = N1 V: y -> N^H vec(G [(G^H X conj(G)) /
    (mu_p + mu_q - sigma)] G^T), X the ndof1 x ndof1 grid of N y, solves it
    (fast diagonalisation, Lynch, Rice & Thomas 1964), and the sums
    mu_p + mu_q over p <= q (boson), p < q (fermion), all (full) count it."""

    def __init__(self, pencil):
        A1, M1, N1 = pencil.lift
        self.mu, V = sla.eigh(A1.toarray(), M1.toarray())
        self.G = N1 @ V
        self.Gc, self.N, self.NH = self.G.conj(), pencil.N, pencil.N.T.conj(copy=False)
        self.real = not (np.iscomplexobj(pencil.A.data) or np.iscomplexobj(pencil.M.data))
        pairs = (slice(None),) * 2 if pencil.sector == "full" else np.triu_indices(
            len(self.mu), int(pencil.sector == "fermion"))
        self.levels = np.sort(np.add.outer(self.mu, self.mu)[pairs], axis=None)
        # G, its conjugate and an apply's two products of G's size, the
        # sums, one shift's denominators and the apply's two ndof1^2 grids
        self.nbytes = (4 * self.G.nbytes + self.levels.nbytes + 8 * len(self.mu) ** 2
                       + 2 * len(self.G) ** 2 * self.G.itemsize)

    def factor(self, sigma: float):
        """Lanczos's view of a factor of A - sigma M: a solve, no fill."""
        d = np.add.outer(self.mu, self.mu - sigma)
        return SimpleNamespace(solve=functools.partial(self._solve, d), nnz=0)

    def _solve(self, d, b):
        n = len(self.G)
        Z = (self.Gc.T @ (self.N @ b).reshape(n, n) @ self.Gc) / d
        x = self.NH @ (self.G @ Z @ self.G.T).ravel()
        return x.real if self.real else x

    def count(self, tau: float):
        """Number of eigenvalues below tau; None when tau is one."""
        n = int(np.searchsorted(self.levels, tau))
        return None if n < len(self.levels) and self.levels[n] == tau else n


def _diagonalised(pencil):
    """The pencil's ``_Diagonalised`` when it has a ``lift`` and the probe
    solve of b = (A - s M) v, s below every sum, gives v back to PROBE_TOL;
    else None, and SuperLU factors the pencil."""
    if pencil.lift is None:
        return None
    shift, A, M = _Diagonalised(pencil), pencil.A, pencil.M
    s = 2.0 * shift.mu[0] - max(1.0, 2.0 * abs(shift.mu[0]))
    v = np.random.default_rng(8231).standard_normal(A.shape[0])
    x = shift.factor(s).solve(A @ v - s * (M @ v))
    return shift if np.linalg.norm(x - v) <= PROBE_TOL * np.linalg.norm(v) else None


def _lanczos(lu, M, m: int, sigma: float, v0, cap: int):
    """(lam, Q, Y): the m eigenvalues nearest sigma of the pencil whose
    factor ``lu`` is of A - sigma M, with M-orthonormal Ritz vectors Q @ Y,
    by thick-restart Lanczos on OP = (A - sigma M)^-1 M from OP v0 on a
    basis of at most ``cap`` vectors.

    OP is M-self-adjoint, so the projected T is real: tridiagonal, and
    after a restart the kept Ritz values with an arrow to the residual.
    Each step takes the three-term part off OP q_j, then runs classical
    Gram-Schmidt against the basis in the M-inner product, twice when the
    first pass keeps less than 0.717 of the norm (DGKS).  Every
    max(5, m // 8) steps the m largest |theta| (lam = sigma + 1 / theta)
    face ARPACK's test at tol = 0, |beta y_last| <= EPS max(EPS^(2/3), |theta|)."""
    n = M.shape[0]
    cap = min(cap, n)
    w = lu.solve(M @ v0)
    Q = np.zeros((n, cap + 1), dtype=w.dtype, order="F")
    T = np.zeros((cap, cap))
    Mw, j, restarts, tridiagonal = M @ w, 0, 0, True
    while True:
        unit = np.sqrt(np.vdot(w, Mw).real)
        if not 0.0 < unit < np.inf:     # under- or overflowed: so would T
            raise SolveError(f"shift-invert Lanczos near {sigma:.6e}: "
                             f"a vector's M-norm is {unit:.1e}")
        Q[:, j], Mq, b = w / unit, Mw / unit, T[j - 1, j]   # j = 0: b, Q[:, -1] zero
        w = lu.solve(Mq) - b * Q[:, j - 1]
        alpha = np.vdot(Mq, w).real
        w -= alpha * Q[:, j]
        B, Mw = Q[:, :j + 1], M @ w
        norm = np.sqrt(np.vdot(w, Mw).real)
        whole = np.sqrt(norm ** 2 + alpha ** 2 + b ** 2)     # of OP q_j
        for _ in range(2):
            g = (Mw.conj() @ B).conj()
            w -= B @ g
            alpha, Mw = alpha + g[j].real, M @ w
            beta = np.sqrt(np.vdot(w, Mw).real)
            if beta >= 0.717 * norm:
                break
        T[j, j], j = alpha, j + 1
        broke = beta <= 1e-13 * whole
        if broke and j < n:           # invariant: go on from a random vector
            w = np.random.default_rng(j).standard_normal(n).astype(w.dtype)
            for _ in range(2):
                w -= Q[:, :j] @ ((M @ w).conj() @ Q[:, :j]).conj()
            Mw, beta = M @ w, 0.0
        if j < cap:
            T[j - 1, j] = T[j, j - 1] = beta
        if j < min(m, cap) or (j - m) % max(5, m // 8) and j < cap:
            continue
        theta, Y = (sla.eigh_tridiagonal(T.diagonal()[:j], T.diagonal(1)[:j - 1])
                    if tridiagonal else np.linalg.eigh(T[:j, :j]))
        order = np.argsort(-np.abs(theta), kind="stable")
        top = order[:m]
        if j == n or not broke and np.all(np.abs(beta * Y[-1, top]) <= EPS
                                          * np.maximum(EPS ** (2 / 3), np.abs(theta[top]))):
            return sigma + 1.0 / theta[top], Q[:, :j], Y[:, top]
        if j < cap:
            continue
        restarts += 1
        if restarts > LANCZOS_RESTARTS:
            raise SolveError(f"shift-invert Lanczos: {m} eigenvalues near {sigma:.6e} "
                             f"not converged after {LANCZOS_RESTARTS} restarts")
        keep = order[:min(cap - 1, m + (cap - m) // 2)]
        j, tridiagonal, Y = len(keep), False, Y[:, keep]
        for i in range(0, n, COMPACT_ROWS):     # the kept Ritz vectors, in place
            Q[i:i + COMPACT_ROWS, :j] = Q[i:i + COMPACT_ROWS, :cap] @ Y
        T[:] = 0.0
        T[range(j), range(j)] = theta[keep]
        T[:j, j] = T[j, :j] = beta * Y[-1]


class _Slices:
    """One pencil's state in the slicing loop: the cut tau (-inf before the
    first slice) with the accepted eigenvalues ``lam`` below it, the floor
    of the start shifts, the spacing near the cut, the accepted shifts and
    the lowest k accepted eigenvalues' residuals ``res`` and, unless values
    only, their vectors ``U``.  Its shifts are factored and counted by
    ``shift`` (a ``_Diagonalised``), else by SuperLU, whose factors a slice
    of up to ``width`` = SLICE eigenvalues pays off; a ``shift`` has none,
    and its slices of half that width hold half the Lanczos basis, ``cap``."""

    def __init__(self, A, M, floor: float, k: int, vectors: bool = True, shift=None):
        self.A, self.M, self.floor = A, M, floor
        self.factor = shift.factor if shift else lambda s: _factor(A, M, s)
        self.count = shift.count if shift else lambda tau: _inertia(A, M, tau)
        self.grid_bytes = shift.nbytes if shift else 0
        self.width = SLICE // 2 if shift else SLICE
        self.cap = min(LANCZOS_BASIS, 3 * self.width + 1)
        self.n = A.shape[0]
        self.dtype = np.result_type(A.dtype, M.dtype)
        self.v0 = np.random.default_rng(8231).standard_normal(self.n)
        # paged as accepted, the lowest k only: residuals and, with vectors, vectors
        self.lam, self.res = np.empty(0), np.empty(k)
        self.U = np.empty((self.n, k), self.dtype, order="F") if vectors else None
        self.tau, self.spacing = -np.inf, None
        self.shifts, self.fill, self.counted = [], 0, True

    def advance(self, m: int, what: str, need: float) -> None:
        """Run one slice of m eigenvalues above the cut and move the cut past
        those it accepts, or raise SolveError (``what`` needs ``need`` bytes)."""
        A, M, n, k, count = self.A, self.M, self.n, len(self.res), len(self.lam)
        offset = 0.0 if self.spacing is None else 0.45 * m * self.spacing
        for _ in range(SLICE_TRIES):
            tau = self.tau
            s = (tau if tau > -np.inf else -1.0) + offset
            try:
                lu = self.factor(s)
            except RuntimeError as exc:
                if tau > -np.inf:
                    raise SolveError(f"factor of A - {s:.6e} M: {exc}") from None
                self.tau, offset = _start(self.count, self.floor), 0.0   # -1 is an eigenvalue
                continue
            # twice: the cut's count builds a factor of about this fill, copying L, U
            check_memory(what, need + 2 * lu.nnz * (self.dtype.itemsize + 4))
            self.fill = max(self.fill, lu.nnz)
            lam, Q, Y = _lanczos(lu, M, m, sigma=s, v0=self.v0, cap=self.cap)
            lu = None                     # one factor alive at a time
            order = np.argsort(lam)
            lam, Y = lam[order], Y[:, order]
            r = np.abs(lam - s).max()
            h = len(lam) // 2             # mean spacing over the top half
            self.spacing = max((lam[-1] - lam[h]) / max(len(lam) - 1 - h, 1),
                               TIE_TOL * max(1.0, abs(lam[-1])))
            new = np.flatnonzero(lam > tau)
            top = [0, *_chain_cuts(lam[new]).tolist()][-1]  # the top chain's start
            # the candidates go straight into the unaccepted columns (a
            # failed check overwrites them), values only into one block;
            # their residuals are taken once the basis is freed, and the
            # block before the count's factor is built
            take = new[:min(top, k - count)]
            X = (np.empty((n, len(take)), self.dtype, order="F") if self.U is None
                 else self.U[:, count:count + len(take)])
            np.matmul(Q, Y[:, take], out=X)
            Q = Y = None
            self.res[count:count + len(take)] = _residuals(A, M, lam[take], X)
            X = None
            if s - r > tau > -np.inf:     # the window misses (tau, s - r)
                offset /= 2
                continue
            if top <= 0:                  # nothing below the top cluster
                m, offset = min(2 * m, n - 2), 2 * offset
                continue
            cut = 0.5 * (lam[new[top - 1]] + lam[new[top]])
            nu = self.count(cut)
            if nu is not None and nu != count + top:
                if tau == -np.inf:        # the first slice: rerun from a counted start
                    self.tau, offset = _start(self.count, self.floor), 0.0
                else:
                    offset = offset / 2 if offset > 0 else offset - r / 2
                continue
            self.counted = self.counted and nu is not None
            self.lam, self.tau = np.append(self.lam, lam[new[:top]]), cut
            self.shifts.append(float(s))
            return
        raise SolveError(f"shift-invert Lanczos slice above {self.tau:.6e} "
                         f"failed its checks {SLICE_TRIES} times")


def _sliced_lanczos(pencils, k: int, floor: float, meta: dict, vectors: bool):
    """Lowest k eigenpairs of the union of the pencils' spectra by
    shift-invert Lanczos in certified slices; returns each pencil's
    ``_Slices`` with its accepted eigenpairs.

    Each pencil keeps a cut tau separating its accepted eigenvalues (below)
    from the rest, -inf before its first slice.  A slice asks for the m
    eigenvalues nearest s = tau + offset (-1 + offset before a cut).
    They fill the window |lam - s| <= r, so when s - r <= tau every
    eigenvalue between tau and the slice's top is found; the top cluster
    may continue past the window and is left for the next slice.  Each
    slice is checked by nu(new cut) = number accepted, which the forms'
    lower bound makes a certificate for the first slice too.  A failed
    check re-centres the shift lower, a slice without progress asks for
    more, and after SLICE_TRIES attempts the solve fails.  Every slice adds
    an eigenvalue to a pencil with fewer than k, so at most k slices run
    per pencil.  When the first slice's check fails, or A + M is exactly
    singular, ``_start`` counts at -1, -16, -256, ... (clipped once to
    ``floor``, the paper's C_infty bound) until one reads 0, and the slice
    reruns from there on its own factor: near the spectrum, not at the far
    bound, which saves steps and keeps residuals small.

    The loop always advances the pencil with the lowest cut and stops once
    k accepted eigenvalues lie below that cut, up to which every pencil's
    count is certified.  A slice asks for 9/8 of its pencil's need, plus 2:
    its expected share of the k, less those it has, but at least that share
    of the eigenvalues still missing; the share is the pencil's part of the
    eigenvalues below the lowest cut, or of the dofs before any are known.
    A need over the pencil's ``width`` is asked in equal slices, not in
    full ones and a small tail.  One pencil is the plain sliced solve.
    """
    if not np.isfinite(floor):
        raise SolveError(f"non-finite C_infty ({meta['C_infty']}): the start "
                         "shifts have no floor")
    states = [_Slices(p.A, p.M, floor, k, vectors, _diagonalised(p)) for p in pencils]
    total = sum(p.n for p in states)
    # the slices run one at a time: the largest pencil's Lanczos basis and,
    # values only, its candidate block; with vectors every pencil's k columns
    need = max(p.dtype.itemsize for p in states) * (
        max((p.cap + (0 if vectors else p.width)) * p.n for p in states)
        + (k * total if vectors else 0)) + sum(p.grid_bytes for p in states)
    what = f"sliced eigensolve of a {total}-dof pencil"
    check_memory(what, need)
    shifts = []
    while True:
        low = min(states, key=lambda p: p.tau)
        below = [np.count_nonzero(p.lam < low.tau) for p in states]
        if sum(below) >= k:
            break
        share = (below[states.index(low)] / sum(below) if sum(below)
                 else low.n / total)
        m = max(int(np.ceil(share * k)) - len(low.lam),
                int(np.ceil(share * (k - sum(below)))))
        want = max(8, m * 9 // 8 + 2)
        parts = -(-want // low.width) if m > low.width else 1
        low.advance(min(-(-want // parts), low.width, low.n - 2), what, need)
        shifts.append(low.shifts[-1])
    meta.update(shifts=shifts, slices=len(shifts),
                lu_fill_nnz=int(max(p.fill for p in states)),
                inertia_certified=all(p.counted for p in states))
    return states


def counting_function(eigenvalues: np.ndarray, lam):
    """N(lam) = #{n : lam_n <= lam}: an int for a scalar lam, an integer
    array for an array of them."""
    n = np.searchsorted(np.sort(np.asarray(eigenvalues)), lam, side="right")
    return int(n) if np.ndim(n) == 0 else n


def chain_counts(eigenvalues: np.ndarray, beyond: int = 0) -> np.ndarray:
    """N at each sorted eigenvalue with every chain of consecutive tied
    eigenvalues (``_chain_cuts``) counted whole: each member gets
    the index of the chain's last member plus one, plus ``beyond`` for the
    last chain, whose members past the given eigenvalues it counts."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    ends = np.append(_chain_cuts(lam), len(lam))
    sizes = np.diff(ends, prepend=0)
    ends[-1] += beyond
    return np.repeat(ends, sizes)
