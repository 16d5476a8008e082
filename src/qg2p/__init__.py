"""Spectra of one- and two-particle Laplacians on compact metric graphs
with singular, vertex-localized many-particle interactions."""

from .graph_core import (BoundaryIndexMap, Edge, GraphError, MetricGraph,
                         build_graph)
from .vertex_conditions import (ConditionError, VertexConditions, ab_to_pl,
                                delta_family, equivalence_check, is_local,
                                standard_family, validate_ab)
from .bc_maps import (BoundaryMap, MapError, constant_map, delta_example_map,
                      fold_to_plane, is_local_two_particle, is_noninteracting,
                      lift_one_particle, piecewise_map, validate_map)
from .form_assembly import (AssemblyError, DiscreteForm, Mesh,
                            assemble_one_particle, assemble_two_particle,
                            semibound_constant)
from .symmetry import (SymmetryError, assemble_symmetric_form,
                       exchange_permutation, sector_basis, sector_pencils)
from .eigensolve import SolveError, SpectrumResult, counting_function, solve
from .spectral_analysis import (AnalysisError, bracketing_check, heat_trace,
                                lift_spectrum, weyl_fit_one_particle,
                                weyl_fit_two_particle)

__version__ = "0.1.0"
