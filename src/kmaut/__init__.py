"""Exact classification machinery for finite-order automorphisms and real
forms of twisted loop algebras and affine Kac-Moody algebras.

The package is organized bottom-up:

- cyclo: exact arithmetic in cyclotomic fields and dense matrices over them
  (one sparse pure-Python kernel of vector and matrix products sits
  underneath, in kmaut.kernel);
- algebra: matrix models of the classical simple Lie algebras, Killing
  forms, twist eigenspaces, torus elements;
- autg, pi0: finite-order automorphisms, involution classes, centralizer
  component groups and their discrete signatures;
- loop, loopaut: twisted loop algebras with their two-dimensional extension,
  standard automorphisms, normalization and conjugacy invariants;
- tables: enumeration of the involution classification tables with exact
  counts and realization of every entry;
- realforms: conjugate-linear automorphisms, real form bases and Cartan
  decompositions;
- cli, selftest: the command line front end and the verification suite.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    SemisimpleElement,
    SimpleAlgebra,
    bracket,
    compact_conjugation,
    killing_form,
    make_algebra,
    sigma_eigenspace,
)
from .autg import (
    Automorphism,
    InvLabel,
    identity_automorphism,
    involution_int_class,
    mu_automorphism,
    omega_automorphism,
    parse_label,
    standard_involution,
    standard_list,
    triality_automorphism,
)
from .cyclo import (
    CycloMatrix,
    CycloScalar,
    finite_order_eigenprojectors,
    pfaffian,
    root_of_unity,
)
from .loop import (
    AffineElement,
    LoopElement,
    affine_bracket,
    affine_form,
    derivative,
    derived_algebra_witness,
    loop_bracket,
    loop_form,
)
from .loopaut import (
    FirstKindInvariant,
    SecondKindInvariant,
    StandardLoopAutomorphism,
    affine_extend,
    conjugacy_test,
    invariant,
    invariant_conj_linear,
    invariant_first_kind,
    invariant_second_kind,
    normalize_to_constant,
    opposite,
    square_map,
    tau_scaling,
)
from .pi0 import ComponentClass, component_signature, pi0_table
from .realforms import (
    cartan_decomposition,
    conj_linear_extend,
    real_form,
    real_form_basis,
    sl2_catalogue,
)
from .tables import (
    TableRow,
    enumerate_first_kind,
    enumerate_second_kind,
    membership_condition,
    realize,
)

__all__ = [
    "AffineElement", "AlgebraElement", "Automorphism", "ComponentClass",
    "CycloMatrix", "CycloScalar", "FirstKindInvariant", "InvLabel",
    "LoopElement", "SecondKindInvariant", "SemisimpleElement",
    "SimpleAlgebra", "StandardLoopAutomorphism", "TableRow",
    "affine_bracket", "affine_extend", "affine_form", "bracket",
    "cartan_decomposition", "compact_conjugation", "component_signature",
    "conj_linear_extend", "conjugacy_test", "derivative",
    "derived_algebra_witness", "enumerate_first_kind",
    "enumerate_second_kind", "finite_order_eigenprojectors",
    "identity_automorphism", "invariant", "invariant_conj_linear", "invariant_first_kind",
    "invariant_second_kind", "involution_int_class", "killing_form",
    "loop_bracket", "loop_form", "make_algebra",
    "membership_condition", "mu_automorphism", "normalize_to_constant",
    "omega_automorphism", "opposite", "parse_label",
    "pfaffian", "pi0_table", "real_form", "real_form_basis", "realize",
    "root_of_unity", "sigma_eigenspace", "sl2_catalogue", "square_map",
    "standard_involution", "standard_list", "tau_scaling",
    "triality_automorphism", "__version__",
]
