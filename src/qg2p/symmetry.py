"""Particle-exchange symmetry on the discretized two-particle space.

The exchange maps dof p ndof1 + q to q ndof1 + p, the transpose of the
tensor-square grid; it is an involution, so symmetric and antisymmetric
sectors are spanned by explicit orbit combinations.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from .form_assembly import (DiscreteForm, Mesh, assemble_one_particle,
                            nullspace_from_constraints)
from .vertex_conditions import VertexConditions


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
# sector's name, the form's C_infty and meta, ``lift``, no K, M, B or C
Pencil = namedtuple("Pencil", "A M N sector C_infty meta lift")


def lifted_pencil(form: DiscreteForm):
    """(A1_r, M1_r, N1): the reduced one-particle pencil and basis of the
    (P1, L1) whose lift assembly found the samples of a two-particle
    ``form`` to be (``meta["lift"]``), else None.  The form's pencil is
    then (A1 x M1 + M1 x A1, M1 x M1) on ker C1 x ker C1, restricted to its
    sector, up to the order in which assembly sums the entries of B."""
    pair = form.meta.get("lift")
    if pair is None:
        return None
    mesh = form.meta["mesh"]
    one = assemble_one_particle(mesh.graph, VertexConditions(*pair), mesh)
    return (*one.reduced(), one.N)


def sector_pencils(form: DiscreteForm, sector: str = "full",
                   split: bool = True) -> list:
    """The pencils of ``form`` in ``sector``, the one path from an assembled
    form to the solver.  "full" splits a full-space two-particle form whose
    map assembly found exchange invariant (``meta["block_structured"]``)
    into its boson and fermion pencils, unless not ``split``; any other
    form is its own pencil, the trivial sector.  The ``lifted_pencil`` of
    the form, built once, is the ``lift`` of each pencil whose n_s columns
    are n1^2 (full), n1 (n1 + 1) / 2 (boson) or n1 (n1 - 1) / 2 (fermion)
    of its n1 columns, every pair of one-particle basis vectors; else None."""
    split = split and "sector" not in form.meta and form.meta.get("block_structured")
    signs = {"full": (+1, -1) if split else (), "boson": (+1,), "fermion": (-1,)}
    if sector not in signs:
        raise SymmetryError(f"unknown sector {sector!r}")
    forms = [assemble_symmetric_form(form, sign) for sign in signs[sector]] or [form]
    pencils = [Pencil(*f.reduced(), f.N, f.meta.get("sector", "full"), f.C_infty,
                      f.meta, None) for f in forms]
    lift = lifted_pencil(form)
    n1 = lift[2].shape[1] if lift else 0
    dims = {"full": n1 * n1, "boson": n1 * (n1 + 1) // 2, "fermion": n1 * (n1 - 1) // 2}
    return [p._replace(lift=lift) if lift and p.N.shape[1] == dims[p.sector] else p
            for p in pencils]
