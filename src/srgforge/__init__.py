"""Exact construction and verification of divisible design graphs and
strongly regular graphs.

Everything here works in exact arithmetic: adjacency as a checked boolean
matrix, spectra through trace systems solved modulo a prime and
annihilating polynomials checked exactly, and rational bounds as
fractions.  Every construction returns plain data that a separate verifier
re-checks from scratch, so a passing certificate never depends on the
construction being correct.
"""

from .canon import CanonicalForm, canonical_form, ClassCount, count_classes
from .ddg import (BijectionFamily, construct_ddg, counting_lower_bound,
                  cyclic_quasigroup, DdgParams, extract_ddg_from_srg,
                  identity_family, LeftQuasigroup, load_family,
                  load_quasigroup, random_bijection_family,
                  random_left_quasigroup, save_family, save_quasigroup,
                  theorem1_params, verify_ddg)
from .designs import (affine_geometry_design, fano_plane, load_design,
                      projective_complement_design, ResolvableDesign,
                      save_design, SymmetricDesign, verify_resolvable,
                      verify_symmetric)
from .errors import (CensusTooLarge, InfeasibleParams, NonIntegralBound,
                     NotAClique, NotAnnihilated, NotPrime, NotRegularClique,
                     NotSrg, ParseError, PreconditionFailed, ShapeError,
                     ShapeMismatch, SrgforgeError, TooLarge)
from .gf import (affine_points, as_prime_power, enumerate_hyperplanes,
                 FiniteField, make_field, projective_points)
from .graphs import (Certificate, certificate, common_neighbours, complement,
                     complete_graph, complete_multipartite, cycle_graph,
                     empty_graph, from_edges, Graph, graph6_decode,
                     graph6_encode, line_graph, octahedron, path_graph,
                     petersen_graph, VertexPartition)
from .spectra import (certified_spectrum, coclique_deletion_spectrum,
                      ddg_formula_spectrum, DdgSpectrumFormula,
                      delsarte_clique_size, exact_root, exact_spectrum,
                      hoffman_coclique_size, make_spectrum, Radical,
                      Spectrum, srg_eigenvalues, srg_spectrum)
from .srg import (chang_graphs, ClassBlockMap, ConditionReport,
                  construct_ddg_hoffman, construct_srg1, construct_srg2,
                  find_hoffman_coloring, hoffman_colorings, seidel_switch,
                  Srg2Config, srg1_target_params, srg2_condition, SrgParams,
                  triangular_graph, verify_srg, verify_srg1_cases)
from .symplectic import (CliqueCensus, delsarte_clique_census,
                         symplectic_graph)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
