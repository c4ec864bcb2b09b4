"""braidhom: homology of algebraic structures through matrix pre-braidings.

Builds structural pre-braidings for shelves/racks, associative algebras,
Leibniz algebras and coalgebras, validates their axioms, assembles the
braided chain (bi)complexes and computes homology exactly over Z, Q or F_p.

Each name below is imported from its module on first access, so importing
one module (the CLI, say) compiles only the modules that one imports.
"""

_EXPORTS = {
    "exactlin": (
        "ExactError", "PrimeField", "QQ", "Ring", "SparseLinearMap", "ZZ", "compose",
        "is_invertible", "kernel_dimension", "rank", "ring_from_name", "smith_normal_form",
        "tensor",
    ),
    "braiding": (
        "Permutation", "PreBraidedSpace", "UnverifiedError", "braid_lift",
        "check_braided_character", "check_braided_cocharacter", "check_ybe",
        "extended_braiding", "reduced_word", "shuffle_coproduct", "shuffle_set",
    ),
    "structures": (
        "AlgebraData", "ShelfTable", "adjoin_unit", "algebra_character_check",
        "algebra_from_constants", "assoc_braiding", "check_assoc", "check_leibniz",
        "check_shelf", "coalgebra_extend", "coassoc_braiding", "dihedral_shelf",
        "dirac_character", "dual_coalgebra", "flip_braiding", "koszul_braiding",
        "leibniz_braiding", "lie_character_check", "q_flip_braiding", "shelf_braiding",
        "signed_flip_braiding", "trivial_shelf", "twist_character",
    ),
    "complexes": (
        "Bicomodule", "Bimodule", "BraidedModule", "COMPLEX_PARAMS", "adjoint_module",
        "bimodule_diff", "check_bicomodule", "check_bimodule", "check_braided_module",
        "coeff_diff", "combined_diff", "face", "hyper_boundary", "left_codiff", "left_diff",
        "named_complex", "right_codiff", "right_diff", "signed_binomial",
    ),
    "homology": (
        "ChainComplex", "HomologyReport", "ResourceCapError", "SpanStabilityError",
        "SquareZeroError", "betti", "integral_homology", "subquotient",
    ),
    "identities": (
        "antipode", "certify_acyclic", "check_braided_coalgebra", "check_character_compat",
        "check_naturality", "check_simplicial", "concat_homotopy", "crossing_action",
        "degeneracy", "rack_contraction", "shuffle_product",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
