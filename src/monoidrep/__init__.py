"""Exact representation theory of finite monoids over the rationals.

The package machine-checks, with exact arithmetic throughout, the two
coverage bounds for a faithful representation V of a finite monoid M:
every simple QM-module occurs as a composition factor among the tensor
powers V^0, ..., V^(r-1) where r counts distinct character values, and
among the symmetric powers S^0(V), ..., S^(dim V * s - 1)(V) where s
counts distinct characteristic polynomials.  It also exposes the N_t
family showing no such bound exists for *faithfulness* of truncated
tensor algebras, together with the supporting machinery: exact rational
linear algebra, Cayley-table monoids and their local structure, monoid
algebra radicals and annihilators, and Molien-type generating functions.

Submodules load on first use: ``import monoidrep`` compiles this file
only, and a public name (``monoidrep.radical_basis``) or a submodule
(``monoidrep.algebra``) imports its module when it is first read.  An
`mbt` launch thus compiles only the layers its subcommand calls.
"""

import sys

# submodule -> the public names it defines
_MODULES = {
    "linalg": (
        "Echelon", "Matrix", "Polynomial", "charpoly",
        "charpoly_from_power_traces", "complete_homogeneous_sequence", "kron",
        "poly_gcd", "power_traces",
    ),
    "monoids": (
        "Monoid", "from_matrices", "from_transformations", "has_zero",
        "idempotents", "local_ideal", "local_monoid", "nt_monoid", "unit_group",
    ),
    "representations": (
        "Representation", "character", "direct_sum", "distinct_character_values",
        "distinct_charpolys", "is_faithful", "natural_representation",
        "nt_paper_representation", "sym_power", "sym_power_characters",
        "sym_power_dim", "tensor_power",
    ),
    "algebra": (
        "Subspace", "VerificationReport", "all_simples_appear",
        "annihilator_basis", "minimal_covering_power", "minimal_faithful_power",
        "radical_basis", "subspace_leq", "symmetric_annihilator_chain",
        "tensor_annihilator_chain", "verify_positive_power_refinement",
        "verify_steinberg_bound", "verify_symmetric_theorem",
        "verify_tensor_theorem",
    ),
    "molien": (
        "element_series", "reversed_charpoly", "series_prefix",
        "weighted_series",
    ),
    "fileio": (
        "load_monoid", "load_representation", "monoid_from_spec",
        "parse_rational", "representation_from_spec",
    ),
    "cli": (),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime
    __import__(f"{__name__}.{module}")
    submodule = sys.modules[f"{__name__}.{module}"]
    return submodule if module == name else getattr(submodule, name)


def __dir__():
    return sorted({*globals(), *__all__})
