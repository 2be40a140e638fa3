"""Exact privacy audits by enumeration.

Two routes certify that one user learns nothing about the other users'
demands:

* the sufficient-statistic route: the only demand-bearing part of a user's
  observation is the masked expanded demand vector.  ``masked_demand_law``
  computes its exact conditional law given the observer's demand row and slot
  tuple.  For the genuine scheme the law is uniform over all restricted
  demand vectors with mass (N - n_active)! / (N! * (n_active!)^(K-1)),
  independent of the demand matrix; equality is exact rational equality, no
  tolerance.
* the end-to-end route: ``exact_mutual_information`` computes the exact
  I(other rows; broadcast, observer cache, observer row) under the uniform
  prior on demand matrices.  Every outcome carries its tag in the clear: the
  observer's slot tuple and the masked demand.  Given the tag, the cache and
  broadcast symbols are a fixed linear image of the library in broadcast
  labels, which is uniform whatever the demand matrix and the relabeling.
  So P(outcome | m) = P(tag | m) * P(symbols | tag): the tag is a sufficient
  statistic, and by the chain rule the MI is I(other rows; tag, observer
  row) plus I(other rows; symbols | tag, observer row) = 0 (sufficiency and
  data processing, Cover & Thomas ch. 2).  It is computed from the tag
  counts alone: no library is enumerated, no cache placed, no broadcast
  encoded.  Zero is certified by exact conditional-law equality within each
  class of the observer's row, which holds for every prior at once; a
  nonzero value, which the derandomized baseline variants exhibit, is
  reported in base-q units.

Both routes enumerate the label-free stages of the scheme's randomness
through the one generator ``scheme.realizations`` and neither walks the N!
file relabelings: the relabeling is uniform and independent of the other
stages, so ``_view_counts`` spreads the count of each label pattern of the
expanded demand evenly over the pattern's orbit, which gives the same
integer counts.  Given the demand matrix the realizations are equally likely
(each stage is uniform, with a support size that does not depend on earlier
draws), so every law is an integer count of atoms divided once by the
number of atoms.  Budgets charge the atoms of the laws computed,
relabelings included; the libraries, never enumerated, are not charged.

A chi-square smoke test covers instances too large for exact enumeration.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping

from . import scheme as sch
from .exact import binomial, falling_factorial
from .scheme import FULL, Demands, SchemeParams, SeedStreams, Variant


class BudgetExceededError(RuntimeError):
    """Requested enumeration is larger than the configured budget."""


def _check_budget(total: int, budget: int, description: str):
    if total > budget:
        raise BudgetExceededError(
            f"{description}: {total} enumeration atoms exceed the budget of {budget}"
        )


def closed_form_mass(params: SchemeParams) -> Fraction:
    """Mass of each restricted vector under the masked-demand law:
    (N - n_active)! / (N! * (n_active!)^(K-1))."""
    n, a, k = params.n_files, params.n_active, params.n_users
    return Fraction(math.factorial(n - a), math.factorial(n) * math.factorial(a) ** (k - 1))


def restricted_vectors(params: SchemeParams) -> Iterator[tuple[int, ...]]:
    """All restricted demand vectors: pick the common n_active-subset, then an
    arrangement of it per user block.  Count: C(N, n_active) * (n_active!)^K."""
    for base in itertools.combinations(range(params.n_files), params.n_active):
        for blocks in itertools.product(itertools.permutations(base), repeat=params.n_users):
            yield tuple(v for block in blocks for v in block)


def restricted_vector_count(params: SchemeParams) -> int:
    return binomial(params.n_files, params.n_active) * math.factorial(params.n_active) ** params.n_users


# ---------------------------------------------------------------------------
# Exact law of the masked expanded demand
# ---------------------------------------------------------------------------


def _relabeling_count(params: SchemeParams, variant: Variant) -> int:
    """How many equally likely file relabelings the variant draws from."""
    return math.factorial(params.n_files) if variant.relabel_files else 1


def _law_atom_count(params: SchemeParams, demands: Demands, variant: Variant, pinned: int = 1) -> int:
    """How many equally likely atoms one demand matrix's law has with
    ``pinned`` users' slot tuples fixed: each realization
    ``scheme.realizations`` yields, under each relabeling.  The cover sets
    are counted in closed form: the n_active-subsets of [N) holding the
    requested files."""
    slots = len(sch.slot_support(params)) if variant.random_slots else 1
    need = len(sch.requested_files(demands))
    covers = binomial(params.n_files - need, params.n_active - need) if variant.random_cover else 1
    fill = math.factorial(params.n_active - params.demands_per_user) if variant.random_fill else 1
    return _relabeling_count(params, variant) * slots ** (params.n_users - pinned) * covers * fill ** params.n_users


def _check_observer(params: SchemeParams, observer: int):
    if not 0 <= observer < params.n_users:
        raise ValueError("observer out of range")


def _check_visited(counts: Mapping, atoms: int):
    visited = sum(counts.values())
    if visited != atoms:
        raise RuntimeError(f"enumerated {visited} atoms, predicted {atoms}")


def _normalized(counts: Mapping, atoms: int) -> dict:
    """Law of equally likely atoms from their per-key counts."""
    _check_visited(counts, atoms)
    mass = {c: Fraction(c, atoms) for c in set(counts.values())}
    return {key: mass[c] for key, c in counts.items()}


def _label_pattern(vector: tuple[int, ...]) -> tuple[int, ...]:
    """The vector with its labels renumbered 0, 1, ... in order of first
    occurrence; two vectors share a pattern iff a relabeling maps one onto
    the other."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in vector)


def _relabeled_counts(n_files: int, counts: Mapping) -> dict:
    """Atom counts of (tag, relabeled vector) from those of (tag, vector),
    under every relabeling of [N); the tag rides along unchanged.  A vector
    with d distinct labels is mapped onto each vector of its pattern by
    exactly (N - d)! relabelings, so each (tag, pattern)'s total count c goes
    to every injection of its d labels into [N) with weight c * (N - d)!."""
    by_pattern = Counter()
    for (tag, vector), c in counts.items():
        by_pattern[tag, _label_pattern(vector)] += c
    out = {}
    for (tag, pattern), c in by_pattern.items():
        d = max(pattern) + 1
        weight = c * math.factorial(n_files - d)
        # itemgetter of one index returns the bare entry, not a 1-tuple
        relabel = itemgetter(*pattern) if len(pattern) > 1 else lambda image: image[:1]
        for image in itertools.permutations(range(n_files), d):
            out[tag, relabel(image)] = weight
    return out


def _view_counts(params: SchemeParams, demands: Demands, observer: int, variant: Variant,
                 slots: Mapping[int, tuple[int, ...]] | None = None) -> dict:
    """Atom counts of (observer slot tuple, masked demand) over every
    realization of one demand matrix, relabelings included.

    The label-free realizations are counted by (observer slot tuple,
    expanded demand) and checked against their predicted number; with
    relabeling on, ``_relabeled_counts`` spreads them over every relabeling.
    Keys keep the enumeration's first-occurrence order."""
    counts = Counter((sel[observer], expanded)
                     for sel, _, expanded in sch.realizations(params, demands, variant, slots))
    atoms = _law_atom_count(params, demands, variant, pinned=len(slots or ()))
    _check_visited(counts, atoms // _relabeling_count(params, variant))
    return _relabeled_counts(params.n_files, counts) if variant.relabel_files else counts


def masked_demand_law(params: SchemeParams, demands: Demands, observer: int,
                      selector: tuple[int, ...], variant: Variant = FULL,
                      budget: int = 10 ** 7) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the masked expanded demand given the demand matrix and the
    observer's slot tuple, from ``_view_counts`` with that slot tuple pinned.
    The budget applies to the full atom count, relabelings included."""
    demands = sch.validate_demands(params, demands)
    _check_observer(params, observer)
    pinned = sch.checked_slots(params, {observer: selector})
    atoms = _law_atom_count(params, demands, variant)
    _check_budget(atoms, budget, "masked-demand law enumeration")
    counts = _view_counts(params, demands, observer, variant, pinned)
    return _normalized({masked: c for (_, masked), c in counts.items()}, atoms)


@dataclass
class InvarianceReport:
    identical: bool
    max_discrepancy: Fraction
    laws: list[dict[tuple[int, ...], Fraction]]


def verify_law_invariance(params: SchemeParams, demand_list: list[Demands], observer: int,
                          selector: tuple[int, ...], variant: Variant = FULL,
                          budget: int = 10 ** 7) -> InvarianceReport:
    """Exact equality of the masked-demand law across demand matrices that agree
    on the observer's row (the distribution a curious user could ever see)."""
    mats = [sch.validate_demands(params, d) for d in demand_list]
    if not mats:
        raise ValueError("empty demand list")
    _check_observer(params, observer)
    row = mats[0][observer]
    if any(m[observer] != row for m in mats):
        raise ValueError("demand matrices must agree on the observer's row")
    laws = [masked_demand_law(params, m, observer, selector, variant, budget) for m in mats]
    worst = Fraction(0)
    base = laws[0]
    for law in laws[1:]:
        if law == base:
            continue
        for key in set(base) | set(law):
            gap = abs(base.get(key, Fraction(0)) - law.get(key, Fraction(0)))
            if gap > worst:
                worst = gap
    return InvarianceReport(identical=(worst == 0), max_discrepancy=worst, laws=laws)


# ---------------------------------------------------------------------------
# Exact mutual information from the observer's tag
# ---------------------------------------------------------------------------


def _joint_atom_count(params: SchemeParams, variant: Variant) -> tuple[int, dict[str, int]]:
    """Atoms of the joint law, relabelings included, and the cardinalities
    behind them; ``library_realizations`` is informational (capped at
    10^30) and not charged, since no library is enumerated."""
    n, f, q = params.n_files, params.file_len, params.q
    # the cap keeps q^(N F) from being built for large instances
    too_many = f * n * math.log(q) > math.log(10 ** 30)
    n_rows = falling_factorial(n, params.demands_per_user)
    slots = (len(sch.slot_support(params)) if variant.random_slots else 1) ** params.n_users
    fill = (math.factorial(params.n_active - params.demands_per_user) if variant.random_fill else 1) ** params.n_users
    max_covers = binomial(n - params.demands_per_user, params.n_active - params.demands_per_user) if variant.random_cover else 1
    cards = {
        "library_realizations": 10 ** 30 if too_many else q ** (n * f),
        "demand_matrices": n_rows ** params.n_users,
        "relabelings": _relabeling_count(params, variant),
        "slot_assignments": slots,
        "cover_sets_max": max(max_covers, 1),
        "block_fills": fill,
    }
    return cards["demand_matrices"] * cards["relabelings"] * slots * cards["cover_sets_max"] * fill, cards


@dataclass
class MiReport:
    """Result of an exact mutual-information audit.

    ``value`` is Fraction(0) exactly when the conditional laws of the
    observer's tag (slot tuple, masked demand) given each demand matrix agree
    within every class of the observer's own row (rational-equality
    certificate); otherwise it is a float in base-q units, summed by math.fsum,
    strictly positive, with a witness (matrix, other matrix, outcome)
    attached.
    """

    conditional_laws_equal: bool
    value: Fraction | float
    witness: tuple | None
    cardinalities: dict[str, int]
    observer: int
    wall_time_s: float


def exact_mutual_information(params: SchemeParams, observer: int = 0, *, variant: Variant = FULL,
                             budget: int = 10 ** 7) -> MiReport:
    """Exact I(other rows ; broadcast, observer cache, observer row) under the
    uniform prior on demand matrices.  It equals I(other rows ; tag,
    observer row) with tag = (observer slot tuple, masked demand): the
    symbols add nothing (proof in the module docstring).  So the laws come
    from ``_view_counts`` alone, and no library is enumerated.  Zero is
    certified by equal conditional laws given each observer row, for every
    prior at once.
    Under the uniform prior a joint that factorizes forces those laws equal,
    so unequal laws always give a positive value and a witness.
    """
    _check_observer(params, observer)
    total, cards = _joint_atom_count(params, variant)
    _check_budget(total, budget, "joint-law enumeration")
    mats = list(sch.all_demand_matrices(params))

    start = time.perf_counter()
    # every law as integer numerators over one common denominator: the lcm
    # of the matrices' atom counts
    atoms = {m: _law_atom_count(params, m, variant, pinned=0) for m in mats}
    common = math.lcm(*atoms.values())
    per_demand_law = {}
    for m in mats:
        counts = _view_counts(params, m, observer, variant)
        _check_visited(counts, atoms[m])
        scale = common // atoms[m]
        per_demand_law[m] = {(tag, m[observer]): c * scale for tag, c in counts.items()}

    # the conditional outcome law may depend on the observer's own row only
    classes: dict[tuple[int, ...], list[Demands]] = {}
    for m in mats:
        classes.setdefault(m[observer], []).append(m)
    witness = None
    for members in classes.values():
        base = per_demand_law[members[0]]
        other = next((o for o in members[1:] if per_demand_law[o] != base), None)
        if other is not None:
            law = per_demand_law[other]
            bad = next(k for k in itertools.chain(base, law) if base.get(k, 0) != law.get(k, 0))
            witness = (members[0], other, bad)
            break

    # joint and marginals as integer numerators over denom: the uniform
    # prior puts 1 / len(mats) on each matrix
    denom = len(mats) * common
    joint: Counter = Counter()
    for m in mats:
        others = tuple(r for i, r in enumerate(m) if i != observer)
        for outcome, c in per_demand_law[m].items():
            joint[others, outcome] += c

    marg_t: Counter = Counter()
    marg_o: Counter = Counter()
    for (t, o), c in joint.items():
        marg_t[t] += c
        marg_o[o] += c

    if witness is None:
        value: Fraction | float = Fraction(0)
        if any(c * denom != marg_t[t] * marg_o[o] for (t, o), c in joint.items()):
            raise RuntimeError("conditional laws equal but joint does not factorize")
    else:
        # int / int is correctly rounded, as float(Fraction) is
        logq = math.log(params.q)
        value = math.fsum(c / denom * math.log(c * denom / (marg_t[t] * marg_o[o])) / logq
                          for (t, o), c in joint.items())
    return MiReport(
        conditional_laws_equal=witness is None,
        value=value,
        witness=witness,
        cardinalities=cards,
        observer=observer,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Chi-square smoke test for large instances
# ---------------------------------------------------------------------------

_Z_QUANTILES = {0.95: 1.6448536269514722, 0.99: 2.3263478740408408, 0.999: 3.090232306167813}


def chi_square_quantile(dof: int, p: float = 0.999) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile; accurate to a
    fraction of a percent for the large dof used here."""
    if dof < 1:
        raise ValueError("dof must be positive")
    try:
        z = _Z_QUANTILES[p]
    except KeyError:
        raise ValueError(f"unsupported quantile {p}; choose from {sorted(_Z_QUANTILES)}") from None
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


@dataclass
class ChiSquareReport:
    statistic: float
    dof: int
    threshold: float
    passed: bool
    runs: int
    support_size: int
    outside_support: int


def empirical_law_check(params: SchemeParams, demands: Demands, observer: int,
                        selector: tuple[int, ...], runs: int, seed: int,
                        variant: Variant = FULL, quantile: float = 0.999) -> ChiSquareReport:
    """Chi-square test of sampled masked demands against the uniform law,
    holding the observer's slot tuple fixed and resampling everything else.
    The run floor is checked against the closed-form support size before
    the support is built."""
    demands = sch.validate_demands(params, demands)
    _check_observer(params, observer)
    size = restricted_vector_count(params)
    if runs < 10 * size:
        raise ValueError(f"need at least {10 * size} runs for {size} support points, got {runs}")
    draw = sch._sampler(params, demands, variant, {observer: selector})
    counts: dict[tuple[int, ...], int] = {}
    for i in range(runs):
        relabeling, _, _, expanded = draw(SeedStreams(seed, prefix=f"run{i}:"))
        masked = sch.relabeled_demand(expanded, relabeling)
        counts[masked] = counts.get(masked, 0) + 1
    support = list(restricted_vectors(params))
    support_set = set(support)
    outside = sum(c for key, c in counts.items() if key not in support_set)
    expected = runs / size
    statistic = sum((counts.get(key, 0) - expected) ** 2 / expected for key in support)
    if outside:
        statistic = math.inf
    dof = size - 1
    threshold = chi_square_quantile(dof, quantile)
    return ChiSquareReport(
        statistic=statistic,
        dof=dof,
        threshold=threshold,
        passed=statistic <= threshold,
        runs=runs,
        support_size=size,
        outside_support=outside,
    )
