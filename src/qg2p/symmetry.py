"""Particle-exchange symmetry on the discretized two-particle space.

The exchange maps rectangle (a, b) node (i, j) to rectangle (b, a) node
(j, i); it is an involution of the tensor-product mesh, so symmetric and
antisymmetric sectors are spanned by explicit orbit combinations.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from .bc_maps import BoundaryMap, validate_map
from .form_assembly import DiscreteForm, Mesh, nullspace_from_constraints


class SymmetryError(ValueError):
    """Sector decomposition is not available for this form."""


def exchange_permutation(mesh: Mesh) -> np.ndarray:
    """Permutation array p with (R psi)[k] = psi[p[k]] for the exchange R."""
    E = mesh.graph.E
    perm = np.empty(mesh.ndof2, dtype=int)
    for a in range(E):
        for b in range(E):
            na, nb = mesh.rect_shape(a, b)
            off = mesh.rect_offset(a, b)
            off_t = mesh.rect_offset(b, a)
            i = np.repeat(np.arange(na), nb)
            j = np.tile(np.arange(nb), na)
            perm[off + i * nb + j] = off_t + j * na + i
    return perm


def project(vec: np.ndarray, sign: int, perm: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a vector onto the (anti)symmetric sector."""
    if sign not in (+1, -1):
        raise SymmetryError("sign must be +1 (boson) or -1 (fermion)")
    return 0.5 * (vec + sign * vec[perm])


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


def sector_dimensions(mesh: Mesh):
    perm = exchange_permutation(mesh)
    fixed = int(np.count_nonzero(perm == np.arange(len(perm))))
    pairs = (len(perm) - fixed) // 2
    return {"boson": pairs + fixed, "fermion": pairs}


def assemble_symmetric_form(form: DiscreteForm, sign: int) -> DiscreteForm:
    """Restrict an assembled two-particle form to one exchange sector.

    The sector is only invariant when the boundary map is block structured
    (identical diagonal half-blocks, zero off-diagonal half-blocks); that is
    verified and a violation is a hard error.  The sector form's basis is
    S null(C S), the only nullspace computed for it.
    """
    if form.meta.get("kind") != "two_particle":
        raise SymmetryError("sector restriction needs a two-particle form")
    mesh: Mesh = form.meta["mesh"]
    m: BoundaryMap = form.meta.get("map")
    if m is not None and not validate_map(m).block_structured:
        raise SymmetryError(
            "boundary map is not exchange-symmetric (half blocks differ "
            "or off-diagonal half blocks are nonzero); no sector spectra")

    S = sector_basis(mesh, sign)
    Nred = nullspace_from_constraints((form.C @ S).tocsr(), S.shape[1])
    meta = dict(form.meta)
    meta["sector"] = "boson" if sign == +1 else "fermion"
    return replace(form, basis=(S @ Nred).tocsr(), meta=meta)
