"""In-memory spans around the public functions of each `qg2p` module.

`Tracer.install()` replaces module attributes with timing wrappers and
`uninstall()` puts the originals back, so untraced requests run the
unmodified program.  A name is patched in every module that bound it:
`solve` is called as `cli.solve` and `spectral_analysis.solve`, and
`nullspace_from_constraints` as a global of `form_assembly` and of
`symmetry`.  The dense and iterative eigensolvers are reached through
`eigensolve.sla.eigh` / `eigensolve.spla.eigsh`, i.e. the scipy module
attributes.

Each span is (name, start, end, parent index).  Counts that need the
objects a call returned are taken from the first call of a kind in a
request, which is the user's own map, form and pencil in every workload.
"""
from __future__ import annotations

import functools
import resource
import time

import numpy as np
import scipy.sparse.linalg as spla

from qg2p import bc_maps, cli, eigensolve, form_assembly, spectral_analysis
from qg2p import symmetry

ROOT = "cli.main"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self._stack = []
        self.map_evals = 0
        self.first = {}          # kind -> (args, kwargs, result) of its first call
        self.rss = {}            # kind -> ru_maxrss growth during that call
        self._saved = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs, keep=None):
        rss0 = _maxrss_mb() if keep and keep not in self.rss else None
        i = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(i)
        if keep and keep not in self.first:
            self.first[keep] = (args, kwargs, out)
            if rss0 is not None:
                self.rss[keep] = _maxrss_mb() - rss0
        return out

    def request(self, fn, *args):
        """Run one request under the root span."""
        self.spans, self._stack = [], []
        self.map_evals = 0
        self.first, self.rss = {}, {}
        i = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(i)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, name, keep=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, args, kwargs, keep)

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _patch_map_call(self):
        orig = bc_maps.BoundaryMap.__call__
        tracer = self

        @functools.wraps(orig)
        def wrapper(m, y):
            cache = getattr(m, "_cache", None)
            if cache is None or float(y) not in cache:
                tracer.map_evals += 1
            return tracer.call("bc_maps.map", orig, (m, y), {})

        self._saved.append((bc_maps.BoundaryMap, "__call__", orig))
        bc_maps.BoundaryMap.__call__ = wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        p = self._patch
        p(cli, "load_config", "cli.config")
        for cmd in ("cmd_spectrum", "cmd_analyze", "cmd_example_delta"):
            p(cli, cmd, "cli.cmd")
        self._patch_map_call()
        p(bc_maps, "fold_to_plane", "bc_maps.fold")
        p(bc_maps, "fold_axis_jumps", "bc_maps.fold")
        p(form_assembly, "assemble_two_particle", "form_assembly.assemble",
          keep="assemble2")
        p(form_assembly, "assemble_one_particle", "form_assembly.assemble")
        p(form_assembly, "nullspace_from_constraints",
          "form_assembly.nullspace", keep="nullspace")
        p(form_assembly.DiscreteForm, "reduced", "form_assembly.reduced",
          keep="reduced")
        p(form_assembly, "semibound_constant", "form_assembly.semibound")
        p(symmetry, "assemble_symmetric_form", "symmetry.sector")
        p(symmetry, "sector_basis", "symmetry.sector_basis", keep="sector")
        p(symmetry, "nullspace_from_constraints", "symmetry.nullspace")
        p(cli, "solve", "eigensolve.solve", keep="solve")
        p(spectral_analysis, "solve", "eigensolve.solve", keep="solve")
        p(eigensolve.spla, "eigsh", "eigensolve.eigsh", keep="eigsh")
        p(eigensolve.sla, "eigh", "eigensolve.eigh")
        p(spectral_analysis, "bracketing_run", "spectral_analysis.bracketing")
        p(spectral_analysis, "lift_spectrum", "spectral_analysis.lift_spectrum")
        p(spectral_analysis, "weyl_fit_two_particle", "spectral_analysis.weyl")
        p(spectral_analysis, "weyl_fit_one_particle", "spectral_analysis.weyl")
        p(spectral_analysis, "heat_trace", "spectral_analysis.heat")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------

    def times(self):
        """(inclusive, self, calls) per span name.  Inclusive time counts
        only the outermost span of a name, so recursion is not summed twice;
        self time is a span minus the union of its children."""
        n = len(self.spans)
        children = [[] for _ in range(n)]
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        incl, own, calls = {}, {}, {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c in children[i]:
                cs, ce = max(self.spans[c][1], cursor), min(self.spans[c][2], end)
                if ce > cs:
                    covered += ce - cs
                    cursor = ce
            own[name] = own.get(name, 0.0) + (end - start) - covered
            calls[name] = calls.get(name, 0) + 1
            a = parent
            while a >= 0 and self.spans[a][0] != name:
                a = self.spans[a][3]
            if a < 0:
                incl[name] = incl.get(name, 0.0) + (end - start)
        return incl, own, calls

    def request_metrics(self) -> dict:
        """Per-layer numbers of the last request (times in s)."""
        incl, own, calls = self.times()
        t = lambda k: incl.get(k, 0.0)
        m = {
            "cli.config_s": t("cli.config"),
            "cli.cmd_self_s": own.get("cli.cmd", 0.0),
            "bc_maps.map_calls": calls.get("bc_maps.map", 0),
            "bc_maps.map_evals": self.map_evals,
            "bc_maps.map_eval_s": t("bc_maps.map"),
            "bc_maps.fold_s": t("bc_maps.fold"),
            "form_assembly.assemble_s": t("form_assembly.assemble"),
            "form_assembly.assemble_self_s": own.get("form_assembly.assemble", 0.0),
            "form_assembly.assemble_calls": calls.get("form_assembly.assemble", 0),
            "form_assembly.nullspace_s": t("form_assembly.nullspace"),
            "form_assembly.nullspace_calls": calls.get("form_assembly.nullspace", 0),
            "form_assembly.reduced_s": t("form_assembly.reduced"),
            "form_assembly.semibound_s": t("form_assembly.semibound"),
            "symmetry.sector_s": t("symmetry.sector"),
            "symmetry.sector_basis_s": t("symmetry.sector_basis"),
            "symmetry.nullspace_s": t("symmetry.nullspace"),
            "eigensolve.solve_s": t("eigensolve.solve"),
            "eigensolve.solve_self_s": own.get("eigensolve.solve", 0.0),
            "eigensolve.solve_calls": calls.get("eigensolve.solve", 0),
            "eigensolve.eigsh_s": t("eigensolve.eigsh"),
            "eigensolve.eigh_s": t("eigensolve.eigh"),
            "spectral_analysis.bracketing_s": t("spectral_analysis.bracketing"),
            "spectral_analysis.lift_spectrum_s": t("spectral_analysis.lift_spectrum"),
            "spectral_analysis.weyl_s": t("spectral_analysis.weyl"),
            "spectral_analysis.heat_s": t("spectral_analysis.heat"),
            "trace.self_sum_s": sum(own.values()),
        }
        m.update(self._sizes())
        return m

    def _sizes(self) -> dict:
        out = {}
        if "assemble2" in self.first:
            form = self.first["assemble2"][2]
            out.update({"form_assembly.ndof": form.ndof,
                        "form_assembly.nreduced": form.nreduced,
                        "form_assembly.nnz_N": form.N.nnz})
        if "nullspace" in self.first:
            C = self.first["nullspace"][0][0].tocsr()
            touched = len(np.unique(C.indices))
            out.update({"form_assembly.constraints": C.shape[0],
                        "form_assembly.touched_dofs": touched,
                        # computed, not measured: the dense C[:, touched]
                        # block the SVD works on
                        "form_assembly.svd_bytes":
                            C.shape[0] * touched * C.dtype.itemsize})
        if "reduced" in self.first:
            out["form_assembly.nnz_A_r"] = self.first["reduced"][2][0].nnz
        if "sector" in self.first:
            out["symmetry.sector_dim"] = self.first["sector"][2].shape[1]
        if "solve" in self.first:
            res = self.first["solve"][2]
            out.update({"eigensolve.pencil_size": res.meta["pencil_size"],
                        "eigensolve.max_residual": float(res.residuals.max())})
        out["form_assembly.rss_delta_mb"] = self.rss.get("assemble2", 0.0)
        out["eigensolve.rss_delta_mb"] = self.rss.get("solve", 0.0)
        return out

    def lu_fill_nnz(self) -> int:
        """nnz(L) + nnz(U) of splu(A_r - sigma M_r) with eigsh's default
        ordering, for the first eigsh call of the last request (0 when the
        request used only the dense path).  Computed outside every span."""
        if "eigsh" not in self.first:
            return 0
        args, kwargs, _ = self.first["eigsh"]
        A, M, sigma = args[0], kwargs["M"], kwargs["sigma"]
        lu = spla.splu((A - sigma * M).tocsc())
        return int(lu.L.nnz + lu.U.nnz)
