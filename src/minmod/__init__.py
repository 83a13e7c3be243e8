"""Exact-arithmetic toolkit for finitely generated minimal Sullivan algebras.

Graded-commutative arithmetic over Q, Sullivan differentials, ellipticity
and volume-form certification, a self-map degree-spectrum solver, and
flexibility certificates from lower gradings.  See :mod:`minmod.cli` for the
command-line front end and :mod:`minmod.catalog` for built-in presentations.
"""

from .gca import Element, FreeGCA, Generator, StructureError
from .sullivan import (SullivanAlgebra, TensorProduct, Undecided, apply_algebra_map,
                       check_d_squared, check_minimality, dimension_formula,
                       eliminate_contractible_pair, ellipticity_certificate,
                       extend_derivation, formal_dimension, tensor_product)
from .cohomology import (betti, betti_table, is_closed, is_exact,
                         top_class_coefficient, verify_volume_form)
from .endo import (ConcreteMorphism, SolverConfig, degree_spectrum,
                   verify_morphism)
from .flexcert import (check_prop4_condition, construct_lower_grading,
                       monomial_differential_check, multiple_family_verify,
                       scaling_certificate, two_stage_decomposition)
from .dsl import ParseError, parse_algebra, parse_element, parse_morphism
from .catalog import build as catalog_build

__all__ = [
    "Element", "FreeGCA", "Generator", "StructureError", "SullivanAlgebra", "TensorProduct",
    "Undecided", "apply_algebra_map", "check_d_squared", "check_minimality",
    "dimension_formula", "eliminate_contractible_pair",
    "ellipticity_certificate", "extend_derivation", "formal_dimension",
    "tensor_product", "betti", "betti_table", "is_closed", "is_exact",
    "top_class_coefficient", "verify_volume_form", "ConcreteMorphism",
    "SolverConfig", "degree_spectrum", "verify_morphism",
    "check_prop4_condition", "construct_lower_grading",
    "monomial_differential_check", "multiple_family_verify",
    "scaling_certificate", "two_stage_decomposition", "ParseError",
    "parse_algebra", "parse_element", "parse_morphism", "catalog_build",
]
