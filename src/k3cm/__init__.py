"""Exact workbench for singular elliptic K3 surfaces and weight-3 CM newforms.

The package searches one-parameter families of elliptic K3 surfaces for
rank-20 specializations over Q, verifies the responsible Mordell-Weil
sections with exact arithmetic, and certifies Neron-Severi discriminants
and transcendental lattices against the matching CM newform eigenvalues.
"""

from k3cm.exact import (
    QQ,
    GF,
    DomainError,
    PadicRing,
    Polynomial,
    QuadField,
    QuadNum,
    RationalFunction,
    crt_combine,
    rational_reconstruct,
)
from k3cm.quadforms import (
    BinaryQuadraticForm,
    class_number,
    enumerate_reduced,
    is_exponent_two,
    reduce_form,
)
from k3cm.newforms import NewformOracle, exponent_two_table, fundamental_discriminant
from k3cm.lattices import (
    DiscriminantForm,
    GramLattice,
    discriminant_form,
    match_transcendental,
    smith_normal_form,
)
from k3cm.surfaces import (
    FiberDescriptor,
    UnsupportedFiberError,
    WeierstrassSurface,
    classify_fibers,
)
from k3cm.sections import (
    Certificate,
    Section,
    assemble_ns,
    certify,
    determine_contact,
    height,
    intersection_number,
    ns_discriminant,
    pairing,
    verify_section,
)
from k3cm.families import Family
from k3cm.counting import (
    CountCache,
    count_surface,
    count_weierstrass,
    lefschetz_candidates,
)
from k3cm.search import (
    CandidateReport,
    corroborate,
    lift_candidates,
    scan_prime,
    search,
    usable_primes,
)
from k3cm.lift import (
    MultiPoly,
    PolySystem,
    SectionAnsatz,
    build_ansatz,
    lift_and_verify,
    newton_double,
    recover_section,
    solve_mod_p,
)
from k3cm.fixtures import registry

__all__ = [
    "QQ", "GF", "DomainError", "PadicRing", "Polynomial", "QuadField", "QuadNum",
    "RationalFunction", "crt_combine", "rational_reconstruct",
    "BinaryQuadraticForm", "class_number", "enumerate_reduced", "is_exponent_two",
    "reduce_form",
    "NewformOracle", "exponent_two_table", "fundamental_discriminant",
    "DiscriminantForm", "GramLattice", "discriminant_form", "match_transcendental",
    "smith_normal_form",
    "FiberDescriptor", "UnsupportedFiberError", "WeierstrassSurface", "classify_fibers",
    "Certificate", "Section", "assemble_ns", "certify", "determine_contact", "height",
    "intersection_number", "ns_discriminant", "pairing", "verify_section",
    "Family",
    "CountCache", "count_surface", "count_weierstrass", "lefschetz_candidates",
    "CandidateReport", "corroborate", "lift_candidates", "scan_prime", "search",
    "usable_primes",
    "MultiPoly", "PolySystem", "SectionAnsatz", "build_ansatz", "lift_and_verify",
    "newton_double", "recover_section", "solve_mod_p",
    "registry",
]
