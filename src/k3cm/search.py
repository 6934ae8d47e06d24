"""Parameter search: scan split primes, match eigenvalues, lift candidates.

For a fixed target field the scan walks every lambda in F_p and keeps those
whose candidate traces r -+ p, r = raw count - (p+1)^2 (the fixed components
cancel), match the newform's |a_p|: one target set per (p, field).  Residue tuples
across several primes are combined by CRT and recognized as small-height
rationals; corroboration replays the test at further primes.  Membership in
the output is necessary evidence only, never a proof of rank 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from k3cm.counting import twist_table
from k3cm.exact import crt_combine, prime_divisors, rational_reconstruct
from k3cm.newforms import SPLIT, NewformOracle


class SearchError(ValueError):
    pass


@dataclass
class CandidateReport:
    target_disc: int
    lam: Fraction
    height: int
    matched: list = field(default_factory=list)   # (p, residue) pairs

    @property
    def primes_matched(self) -> int:
        return len(self.matched)

    def line(self) -> str:
        from k3cm.exact import format_rational

        return f"{format_rational(self.lam)}\t{self.height}\t{self.primes_matched}"


def usable_primes(family, oracle: NewformOracle, bound: int) -> list[int]:
    """The primes up to bound that are good for the family and split in the field."""
    return [p for p in family.good_primes(bound) if oracle.prime_kind(p) == SPLIT]


def first_usable_primes(family, oracle: NewformOracle, k: int) -> list[int]:
    """The first k `usable_primes`, with no cap: the bound doubles from 200 until k lie below it."""
    bound = 200
    while len(usable := usable_primes(family, oracle, bound)) < k:
        bound *= 2
    return usable[:k]


def scan_prime(family, p: int, oracle: NewformOracle) -> set[int]:
    """All lambda in F_p off the cusps of g whose raw count is in `matching_raw_counts`;
    no smooth count is formed.  Where g has a fiber at p that the counting tables
    reject, CountingError.
    """
    if oracle.prime_kind(p) != SPLIT:
        raise SearchError(f"p = {p} is not split for discriminant {oracle.field_disc}")
    if family.untwisted.is_bad_prime(p):
        raise SearchError(f"p = {p} is a bad prime for family {family.name}")
    targets, table = matching_raw_counts(oracle, p), twist_table(family, p)
    return {lam for lam, raw in enumerate(table.raw_counts) if raw in targets and lam not in table.cusps}


def matching_raw_counts(oracle: NewformOracle, p: int) -> set[int]:
    """The raw counts (p+1)^2 + r with |r - p| or |r + p| in `eigenvalue_abs(p)`: r = +-a +- p."""
    return {(p + 1) ** 2 + s * a + e * p for a in oracle.eigenvalue_abs(p) for s in (1, -1) for e in (1, -1)}


def _degenerate_lambdas(family, p: int) -> set[int]:
    """`Family.degenerate_lambdas` as a set (perfbench/workloads.py calls this name)."""
    return set(family.degenerate_lambdas(p))


def lift_candidates(
    residue_sets: dict[int, set[int]],
    target_disc: int,
    height_bound: int = 10**6,
    max_tuples: int = 10**4,
    max_residues_per_prime: int = 5,
) -> list[CandidateReport]:
    """CRT + rational reconstruction over the product of residue sets.

    Primes with oversized residue sets are dropped from lifting (kept for
    corroboration); candidates are ranked by height then by the smoothness
    of numerator times denominator.
    """
    if len(residue_sets) < 2:
        raise SearchError("need residues at >= 2 primes to lift")
    usable = {p: rs for p, rs in residue_sets.items() if 0 < len(rs) <= max_residues_per_prime}
    if len(usable) < 2:
        sizes = ", ".join(f"{len(rs)} at p = {p}" for p, rs in sorted(residue_sets.items()))
        raise SearchError(
            f"not enough primes with small residue sets (a prime lifts with 1 to "
            f"{max_residues_per_prime} residues): {sizes}"
        )
    primes = sorted(usable)
    total = 1
    for p in primes:
        total *= len(usable[p])
    if total > max_tuples:
        raise SearchError(f"residue fan-out {total} exceeds the cap {max_tuples}")
    import itertools

    found: dict[Fraction, CandidateReport] = {}
    for combo in itertools.product(*(sorted(usable[p]) for p in primes)):
        pairs = list(zip(combo, primes))
        value, modulus = crt_combine(pairs)
        lam = rational_reconstruct(value, modulus)
        if lam is None:
            continue
        h = max(abs(lam.numerator), lam.denominator)
        if h > height_bound:
            continue
        rep = found.get(lam)
        if rep is None:
            found[lam] = CandidateReport(
                target_disc, lam, h, matched=[(p, r) for r, p in pairs]
            )
    out = sorted(found.values(), key=lambda r: (r.height, _smoothness(r.lam)))
    return out


def _smoothness(q: Fraction) -> int:
    """Largest prime factor of numerator * denominator (crude rank key)."""
    if q == 0:
        return 0
    return max(prime_divisors(q.numerator * q.denominator), default=1)


def corroborate(family, lam: Fraction, oracle: NewformOracle, primes) -> list:
    """Per-prime match evidence for a fixed rational parameter.

    Returns (p, status) rows with status in {"match", "mismatch", "skipped"};
    one mismatch at a good split prime refutes the candidate.
    """
    out = []
    for p in primes:
        lam_p = None if lam.denominator % p == 0 else lam.numerator * pow(lam.denominator, -1, p) % p
        if (family.untwisted.is_bad_prime(p) or oracle.prime_kind(p) != SPLIT or lam_p is None
                or lam_p in family.degenerate_lambdas(p)):
            out.append((p, "skipped"))
            continue
        ok = twist_table(family, p).raw_counts[lam_p] in matching_raw_counts(oracle, p)
        out.append((p, "match" if ok else "mismatch"))
    return out


def search(family, oracle: NewformOracle, primes, height_bound: int = 10**6):
    """Full Algorithm-10 style run: scan, lift, return ranked reports for the oracle's field."""
    residue_sets = {}
    for p in primes:
        try:
            residue_sets[p] = scan_prime(family, p, oracle)
        except SearchError:
            continue
    return lift_candidates(residue_sets, oracle.disc, height_bound)
