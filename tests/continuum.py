"""Closed-form continuum spectra, to measure the discretisation error of a
solve rather than its agreement with another discrete solve.

The two-particle eigenvalues of a lifted map are the sums mu_i + mu_j of
the one-particle eigenvalues mu_1 < mu_2 < ...: every pair in the full
space, i <= j in the boson sector and i < j in the fermion one.  On one
Dirichlet interval of length l this is the Dirichlet square [0, l]^2,
mu_i = (pi i / l)^2; on a delta-star and on a Robin-Neumann interval the
mu_i are the roots of a secular equation.
"""
import numpy as np
from scipy.optimize import brentq

SECTORS = ("full", "boson", "fermion")


def pair_sums(mu: np.ndarray, k: int, sector: str = "full"):
    """The lowest k of mu_i + mu_j over the pairs of ``sector``.  The pairs
    (1, j) for j <= k + 1 alone give k values below any pair with an index
    past k + 1, so ``mu`` needs its lowest k + 1 values only."""
    mu = np.sort(mu)[:k + 1]
    i, j = np.meshgrid(np.arange(len(mu)), np.arange(len(mu)), indexing="ij")
    keep = {"full": i >= 0, "boson": i <= j, "fermion": i < j}[sector]
    return np.sort((mu[i] + mu[j])[keep])[:k]


def dirichlet_interval_lift(length: float, k: int, sector: str = "full"):
    """The lowest k eigenvalues of the Dirichlet interval lift in
    ``sector``."""
    return pair_sums((np.pi * np.arange(1, k + 2) / length) ** 2, k, sector)


def delta_star(lengths, alpha: float, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues k^2 of a star with edge ``lengths``,
    strength ``alpha`` at the centre and a Robin end psi'(l) = -alpha psi(l)
    at each leaf (``delta_family``), for alpha > 0.  On edge e the leaf
    condition leaves phi_e = k cos k(l_e - x) + alpha sin k(l_e - x); with
    c_e = k cos k l_e + alpha sin k l_e and s_e = k sin k l_e - alpha cos k l_e,
    continuity and sum_e psi_e'(0) = alpha psi(0) at the centre read, free of
    poles, k sum_e s_e prod_{f != e} c_f - alpha prod_e c_e = 0.  Its roots
    k > 0 are simple on generic lengths and bracketed on a fine k grid."""
    lengths = np.asarray(lengths, dtype=float)

    def secular(k):
        c = k * np.cos(k * lengths) + alpha * np.sin(k * lengths)
        s = k * np.sin(k * lengths) - alpha * np.cos(k * lengths)
        others = np.array([np.prod(np.delete(c, e)) for e in range(len(c))])
        return k * np.sum(s * others) - alpha * np.prod(c)

    ks = np.linspace(1e-6, np.pi * (count + 2) / lengths.min(), 200 * count)
    f = np.array([secular(k) for k in ks])
    cross = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    roots = [brentq(secular, ks[i], ks[i + 1], xtol=1e-15) for i in cross]
    return np.array(roots[:count]) ** 2


def robin_neumann(length: float, alpha: float, count: int) -> np.ndarray:
    """The lowest ``count`` eigenvalues of -psi'' on [0, l] with
    psi'(0) = -alpha psi(0) and psi'(l) = 0, for alpha > 0.  The bound
    state psi = cosh kappa(l - x) gives -kappa^2 with kappa tanh kappa l =
    alpha, between 0 and alpha + 1/l; psi = cos k(l - x) gives k^2 with
    k tan kl = -alpha, that is k sin kl + alpha cos kl = 0, one root k in
    each ((j - 1/2) pi / l, j pi / l)."""
    kappa = brentq(lambda q: q * np.tanh(q * length) - alpha,
                   1e-12, alpha + 1.0 / length, xtol=1e-15)

    def secular(k):
        return k * np.sin(k * length) + alpha * np.cos(k * length)

    ks = [brentq(secular, (j - 0.5) * np.pi / length, j * np.pi / length,
                 xtol=1e-15) for j in range(1, count)]
    return np.array([-kappa ** 2] + [k ** 2 for k in ks])
