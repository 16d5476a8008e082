"""Particle-exchange symmetry on the discretized two-particle space.

The exchange maps dof p ndof1 + q to q ndof1 + p, the transpose of the
tensor-square grid; it is an involution, so symmetric and antisymmetric
sectors are spanned by explicit orbit combinations.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .form_assembly import (DiscreteForm, Mesh, nullspace_from_constraints,
                            stiffness_mass)


class SymmetryError(ValueError):
    """Sector decomposition is not available for this form."""


def exchange_permutation(mesh: Mesh) -> np.ndarray:
    """Permutation array p with (R psi)[k] = psi[p[k]] for the exchange R."""
    n = mesh.ndof1
    return np.arange(n * n).reshape(n, n).T.ravel()


def sector_basis(mesh: Mesh, sign: int) -> sp.csr_matrix:
    """Orthonormal basis of the (anti)symmetric subspace as sparse columns.

    Each two-element exchange orbit {p, q} contributes (e_p + sign e_q)/sqrt2;
    fixed points contribute e_p in the symmetric sector only.
    """
    if sign not in (+1, -1):
        raise SymmetryError("sign must be +1 (boson) or -1 (fermion)")
    perm = exchange_permutation(mesh)
    p = np.arange(len(perm))
    reps = p[(perm > p) | ((perm == p) & (sign == +1))]   # one per column
    col = np.arange(len(reps))
    partner = perm[reps]
    paired = partner != reps
    val = np.where(paired, 1.0 / np.sqrt(2.0), 1.0)
    rows = np.concatenate([reps, partner[paired]])
    cols = np.concatenate([col, col[paired]])
    vals = np.concatenate([val, sign * val[paired]])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(len(perm), len(reps))).tocsr()


def assemble_symmetric_form(form: DiscreteForm, sign: int) -> DiscreteForm:
    """Restrict an assembled two-particle form to one exchange sector.

    The sector is only invariant when the boundary map commutes with the
    exchange (identical diagonal and identical off-diagonal half-blocks) at
    the mesh's y-nodes, as assembly recorded in ``meta["block_structured"]``;
    a violation is a hard error.  The sector form's basis is S null(C S), the
    only nullspace computed for it.
    """
    if form.meta.get("kind") != "two_particle":
        raise SymmetryError("sector restriction needs a two-particle form")
    if not form.meta.get("block_structured"):
        raise SymmetryError(
            "boundary map is not exchange-symmetric (its diagonal or its "
            "off-diagonal half blocks differ); no sector spectra")
    S = sector_basis(form.meta["mesh"], sign)
    Nred = nullspace_from_constraints((form.C @ S).tocsr(), S.shape[1])
    meta = dict(form.meta)
    meta["sector"] = "boson" if sign == +1 else "fermion"
    return replace(form, basis=(S @ Nred).tocsr(), meta=meta)


# what the solver runs on: one sector's reduced pencil A u = lam M u
# (DiscreteForm.reduced), the basis N that prolongs u to full dofs, the
# sector's name, the form's C_infty and meta, ``on_interior``, no K, M, B or C
Pencil = namedtuple("Pencil", "A M N sector C_infty meta interior")


def _interior(mesh: Mesh) -> tuple:
    """(I, the one-particle dofs but ``Mesh.end_dofs``; the dofs of I x I)."""
    inner = np.delete(np.arange(mesh.ndof1), mesh.end_dofs)
    return inner, (inner[:, None] * mesh.ndof1 + inner).ravel()


def on_interior(form: DiscreteForm) -> bool:
    """Whether N lives on the interior tensor grid I x I of a two-particle
    ``form`` and spans its sector there, n_i^2 (full), n_i (n_i + 1) / 2
    (boson) or n_i (n_i - 1) / 2 (fermion) columns: every edge-end dof is
    constrained away.  B lives on edge-end rows, so the pencil is then
    (K1_i x M1_i + M1_i x K1_i, M1_i x M1_i) on the sector."""
    if form.meta.get("kind") != "two_particle":
        return False
    mesh, N = form.meta["mesh"], form.N.tocsr()
    ni = mesh.ndof1 - len(mesh.end_dofs)
    dim = {"full": ni * ni, "boson": ni * (ni + 1) // 2, "fermion": ni * (ni - 1) // 2}
    return (N.shape[1] == dim[form.meta.get("sector", "full")]
            and bool(np.diff(N.indptr)[_interior(mesh)[1]].sum() == N.nnz))


def interior_grid(pencil: Pencil) -> tuple:
    """(mu, V, rows) of a pencil ``on_interior``: N's rows on I x I, and
    K1_i V = M1_i V diag(mu), V^T M1_i V = I on I.  A uniform edge's K and M
    are tridiagonal Toeplitz, so they commute, and the eigenvectors W of K
    (one implicit-QL ``eigh_tridiagonal`` per edge, orthogonal to 1e-15)
    make W^T M W diagonal; a dense generalized ``eigh`` would page in 1.5 MB."""
    mesh = pencil.meta["mesh"]
    inner, rows = _interior(mesh)
    K1, M1 = (X[inner][:, inner] for X in stiffness_mass(mesh))
    d, e, ends = K1.diagonal(), K1.diagonal(1), np.cumsum(np.array(mesh.nodes) - 2)
    kappa, W = zip(*(sla.eigh_tridiagonal(d[a:b], e[a:b - 1], lapack_driver="stev")
                     for a, b in zip(ends - np.array(mesh.nodes) + 2, ends)))
    W = sla.block_diag(*W)
    m = (W * (M1 @ W)).sum(axis=0)
    return np.concatenate(kappa) / m, W / np.sqrt(m), pencil.N.tocsr()[rows]


def sector_pencils(form: DiscreteForm, sector: str = "full",
                   split: bool = True) -> list:
    """The pencils of ``form`` in ``sector``, the one path from an assembled
    form to the solver.  "full" splits a full-space two-particle form whose
    map assembly found exchange invariant (``meta["block_structured"]``)
    into its boson and fermion pencils, unless not ``split``; any other
    form is its own pencil, the trivial sector."""
    split = split and "sector" not in form.meta and form.meta.get("block_structured")
    signs = {"full": (+1, -1) if split else (), "boson": (+1,), "fermion": (-1,)}
    if sector not in signs:
        raise SymmetryError(f"unknown sector {sector!r}")
    forms = [assemble_symmetric_form(form, sign) for sign in signs[sector]] or [form]
    return [Pencil(*f.reduced(), f.N, f.meta.get("sector", "full"), f.C_infty,
                   f.meta, on_interior(f)) for f in forms]
