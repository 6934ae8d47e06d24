"""Exact workbench for singular elliptic K3 surfaces and weight-3 CM newforms.

The package searches one-parameter families of elliptic K3 surfaces for
rank-20 specializations over Q, verifies the responsible Mordell-Weil
sections with exact arithmetic, and certifies Neron-Severi discriminants
and transcendental lattices against the matching CM newform eigenvalues.

Public names are bound on first use (PEP 562): `k3cm.registry` imports only
`fixtures` and what it needs, and the name is then cached here.  Every
submodule is reachable as an attribute of the package, so `k3cm.search` is
always the module; its function is `k3cm.search.search`.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "exact": ("QQ", "GF", "DomainError", "PadicRing", "Polynomial", "QuadField", "QuadNum",
              "RationalFunction", "crt_combine", "rational_reconstruct"),
    "quadforms": ("BinaryQuadraticForm", "class_number", "enumerate_reduced", "is_exponent_two",
                  "reduce_form"),
    "newforms": ("NewformOracle", "exponent_two_table", "fundamental_discriminant"),
    "lattices": ("DiscriminantForm", "GramLattice", "discriminant_form", "match_transcendental",
                 "smith_normal_form"),
    "surfaces": ("FiberDescriptor", "UnsupportedFiberError", "WeierstrassSurface",
                 "classify_fibers"),
    "sections": ("Certificate", "Section", "assemble_ns", "certify", "determine_contact",
                 "height", "intersection_number", "ns_discriminant", "pairing", "verify_section"),
    "families": ("Family",),
    "counting": ("CountCache", "count_surface", "count_weierstrass", "lefschetz_candidates"),
    "search": ("CandidateReport", "corroborate", "lift_candidates", "scan_prime",
               "usable_primes"),
    "lift": ("MultiPoly", "PolySystem", "SectionAnsatz", "build_ansatz", "lift_and_verify",
             "newton_double", "recover_section", "solve_mod_p"),
    "fixtures": ("registry",),
    "regression": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:   # importing a submodule binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
