"""Closed-form continuum spectra, to measure the discretisation error of a
solve rather than its agreement with another discrete solve.

Two particles on one Dirichlet interval of length l are the Dirichlet
square [0, l]^2: its eigenvalues are (pi/l)^2 (i^2 + j^2) with i, j >= 1,
every pair in the full space, i <= j in the boson sector and i < j in the
fermion one.
"""
import numpy as np

SECTORS = ("full", "boson", "fermion")


def dirichlet_interval_lift(length: float, k: int, sector: str = "full"):
    """The lowest k eigenvalues of the Dirichlet interval lift in
    ``sector``.  The pairs (1, j) for j <= k + 1 alone give k values below
    any pair with an index past k + 1, so those are never needed."""
    i, j = np.meshgrid(np.arange(1, k + 2), np.arange(1, k + 2), indexing="ij")
    keep = {"full": i > 0, "boson": i <= j, "fermion": i < j}[sector]
    return np.sort((np.pi / length) ** 2 * (i ** 2 + j ** 2)[keep])[:k]
