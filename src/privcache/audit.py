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
  encoded.  Zero is certified by exact conditional-law equality among the
  matrices sharing the observer's row, which holds for every prior at once; a
  nonzero value, which the derandomized baseline variants exhibit, is
  reported in base-q units.

Both routes work on classes of the masked demand and never walk the N!
file relabelings.  They enumerate the label-free stages of the scheme's
randomness through the one generator ``scheme.realizations``; the
relabeling is uniform and independent of those stages, so with it on a
class is a label pattern of the expanded demand (its d labels renumbered in
order of first occurrence), holding the size = N!/(N - d)! vectors a
relabeling maps it onto, and with it off a class is one vector, of size 1.
The realizations are equally likely (each stage is uniform, with a support
size that does not depend on earlier draws), so a class counted c times out
of ``atoms`` gives each member the mass c / (atoms * size).  Only
``masked_demand_law``, which returns the full law, expands a class into its
members.  Budgets charge the label-free atoms the audits visit, and no
relabelings or libraries; ``masked_demand_law`` alone charges the atoms
times the N! relabelings, since it lists the members.

``empirical_law_check`` is a chi-square test of the masked demands that
``scheme.sampler``, the code ``simulate`` draws from, produces: the only
check of the sampler's law, since both exact routes enumerate
``scheme.realizations`` instead.  It needs at least 10 runs per point of
the closed-form support (2,880 points at (N, K, L) = (5, 2, 2), 1,728,000 at
(5, 3, 2)).  A demand matrix's law has at most that many label-free atoms,
so the exact law decides every instance the test can reach, under a budget
raised where needed.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from . import scheme as sch
from .scheme import FULL, Demands, SchemeParams, SeedStreams, Variant


DEFAULT_BUDGET = 10 ** 7


class BudgetExceededError(RuntimeError):
    """Requested enumeration is larger than the configured budget."""


def _check_budget(total: int, budget: int, description: str):
    if total > budget:
        raise BudgetExceededError(
            f"{description}: {total} enumeration atoms exceed the budget of {budget}"
        )


def closed_form_mass(params: SchemeParams) -> Fraction:
    """Mass of each restricted vector under the masked-demand law, uniform on
    the support: 1 / support = (N - n_active)! / (N! * (n_active!)^(K-1))."""
    return Fraction(1, restricted_vector_count(params))


def restricted_vectors(params: SchemeParams) -> Iterator[tuple[int, ...]]:
    """All restricted demand vectors: pick the common n_active-subset, then an
    arrangement of it per user block.  Count: C(N, n_active) * (n_active!)^K."""
    for base in itertools.combinations(range(params.n_files), params.n_active):
        for blocks in itertools.product(itertools.permutations(base), repeat=params.n_users):
            yield tuple(v for block in blocks for v in block)


def restricted_vector_count(params: SchemeParams) -> int:
    return math.comb(params.n_files, params.n_active) * math.factorial(params.n_active) ** params.n_users


# ---------------------------------------------------------------------------
# Exact law of the masked expanded demand
# ---------------------------------------------------------------------------


def _stage_sizes(params: SchemeParams, variant: Variant, need: int) -> tuple[int, int, int, int]:
    """Support sizes of the stages of the scheme's randomness under
    ``variant``: file relabelings, one user's slot tuples, the cover sets (the
    n_active-subsets of [N) holding ``need`` given requested files) and one
    user's block fills.  A stage the variant switches off has one outcome."""
    n, a = params.n_files, params.n_active
    return (math.factorial(n) if variant.relabel_files else 1,
            math.perm(a, params.demands_per_user) if variant.random_slots else 1,
            math.comb(n - need, a - need) if variant.random_cover else 1,
            math.factorial(a - params.demands_per_user) if variant.random_fill else 1)


def _law_atoms(params: SchemeParams, demands: Demands, variant: Variant, pinned: int = 1) -> tuple[int, int]:
    """(label-free atoms, relabelings) of one demand matrix's law with
    ``pinned`` users' slot tuples fixed: the equally likely realizations
    ``scheme.realizations`` yields, and the relabelings each is seen under.
    Budgets charge the atoms; ``masked_demand_law``, which expands them,
    charges their product."""
    relabelings, slots, covers, fill = _stage_sizes(params, variant, len(sch.requested_files(demands)))
    return slots ** (params.n_users - pinned) * covers * fill ** params.n_users, relabelings


def _check_observer(params: SchemeParams, observer: int):
    if not 0 <= observer < params.n_users:
        raise ValueError("observer out of range")


def _label_pattern(vector: tuple[int, ...]) -> tuple[int, ...]:
    """The vector with its labels renumbered 0, 1, ... in order of first
    occurrence; two vectors share a pattern iff a relabeling maps one onto
    the other.  The pattern is itself a vector of its class, the first one
    ``masked_demand_law`` lists."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in vector)


def _class_size(params: SchemeParams, variant: Variant, cls: tuple[int, ...]) -> int:
    """How many masked vectors the class holds: the injections of a
    pattern's d labels into [N), or 1 with relabeling off."""
    return math.perm(params.n_files, max(cls) + 1) if variant.relabel_files else 1


def _view_counts(params: SchemeParams, demands: Demands, observer: int, variant: Variant,
                 slots: Mapping[int, tuple[int, ...]] | None = None) -> Counter:
    """Atom counts of (observer slot tuple, class of the masked demand) over
    every label-free realization of one demand matrix, checked against their
    predicted number.  Keys keep the enumeration's first-occurrence order."""
    classify = _label_pattern if variant.relabel_files else tuple
    counts = Counter((sel[observer], classify(expanded))
                     for sel, _, expanded in sch.realizations(params, demands, variant, slots))
    visited, atoms = sum(counts.values()), _law_atoms(params, demands, variant, pinned=len(slots or ()))[0]
    if visited != atoms:
        raise RuntimeError(f"enumerated {visited} atoms, predicted {atoms}")
    return counts


def _class_law(params: SchemeParams, demands: Demands, observer: int, selector: tuple[int, ...],
               variant: Variant, budget: int, expand: bool = False) -> tuple[dict[tuple[int, ...], int], int]:
    """Atom counts of the masked demand's classes given the demand matrix and
    the observer's slot tuple, and the number of label-free atoms behind
    them.  The budget applies to the atoms, times the relabelings if the
    caller will ``expand`` each class into its members."""
    demands = sch.validate_demands(params, demands)
    _check_observer(params, observer)
    pinned = sch.checked_slots(params, {observer: selector})
    atoms, relabelings = _law_atoms(params, demands, variant)
    _check_budget(atoms * relabelings if expand else atoms, budget, "masked-demand law enumeration")
    counts = _view_counts(params, demands, observer, variant, pinned)
    return {cls: c for (_, cls), c in counts.items()}, atoms


def masked_demand_law(params: SchemeParams, demands: Demands, observer: int,
                      selector: tuple[int, ...], variant: Variant = FULL,
                      budget: int = DEFAULT_BUDGET) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the masked expanded demand given the demand matrix and the
    observer's slot tuple: each class of ``_class_law`` expanded into its
    members, the one place where a class is expanded.  The budget applies
    to the atoms times the relabelings, a bound on the members listed."""
    counts, atoms = _class_law(params, demands, observer, selector, variant, budget, expand=True)
    files = range(params.n_files)
    law = {}
    for cls, c in counts.items():
        mass = Fraction(c, atoms * _class_size(params, variant, cls))
        # with relabeling off the identity is the one image
        for image in itertools.permutations(files, max(cls) + 1) if variant.relabel_files else [files]:
            law[tuple(image[i] for i in cls)] = mass
    return law


@dataclass
class InvarianceReport:
    """``max_discrepancy`` is the largest gap, on one vector, between a law
    holding it and the uniform mass, or between the first law and another."""

    identical: bool
    uniform: bool
    max_discrepancy: Fraction


def verify_law_invariance(params: SchemeParams, demand_list: list[Demands], observer: int,
                          selector: tuple[int, ...], variant: Variant = FULL,
                          budget: int = DEFAULT_BUDGET) -> InvarianceReport:
    """Exact uniformity of the masked-demand law, and its equality across
    demand matrices that agree on the observer's row (the distribution a
    curious user could ever see), decided on the class counts: every member
    of a class has the same mass, so two laws agree iff their class masses
    c / atoms agree."""
    mats = [sch.validate_demands(params, d) for d in demand_list]
    if not mats:
        raise ValueError("empty demand list")
    _check_observer(params, observer)
    row = mats[0][observer]
    if any(m[observer] != row for m in mats):
        raise ValueError("demand matrices must agree on the observer's row")
    laws = [_class_law(params, m, observer, selector, variant, budget) for m in mats]
    sizes = {cls: _class_size(params, variant, cls) for counts, _ in laws for cls in counts}
    mass = closed_form_mass(params)
    # one Fraction per distinct (count, denominator) pair, not one per class
    worst = max(abs(Fraction(c, den) - mass)
                for c, den in {(c, atoms * sizes[cls]) for counts, atoms in laws for cls, c in counts.items()})
    # the masses of a law sum to 1, so at the uniform mass its support has
    # the closed-form size
    uniform = worst == 0
    identical = True
    base, base_atoms = laws[0]
    for counts, atoms in laws[1:]:
        for cls in base.keys() | counts.keys():
            gap = abs(base.get(cls, 0) * atoms - counts.get(cls, 0) * base_atoms)
            if gap:
                identical = False
                worst = max(worst, Fraction(gap, base_atoms * atoms * sizes[cls]))
    return InvarianceReport(identical=identical, uniform=uniform, max_discrepancy=worst)


# ---------------------------------------------------------------------------
# Exact mutual information from the observer's tag
# ---------------------------------------------------------------------------


def _joint_atom_count(params: SchemeParams, variant: Variant) -> tuple[int, dict[str, int]]:
    """Label-free atoms of the joint law and the cardinalities behind them;
    ``relabelings`` and ``library_realizations`` (capped at 10^30) are
    informational and not charged, since neither is enumerated."""
    n, f, q = params.n_files, params.file_len, params.q
    # the cap keeps q^(N F) from being built for large instances
    too_many = f * n * math.log(q) > math.log(10 ** 30)
    # a demand matrix requests at least L files, so has at most this many covers
    relabelings, slots, covers, fill = _stage_sizes(params, variant, params.demands_per_user)
    cards = {
        "library_realizations": 10 ** 30 if too_many else q ** (n * f),
        "demand_matrices": math.perm(n, params.demands_per_user) ** params.n_users,
        "relabelings": relabelings,
        "slot_assignments": slots ** params.n_users,
        "cover_sets_max": covers,
        "block_fills": fill ** params.n_users,
    }
    return cards["demand_matrices"] * cards["slot_assignments"] * covers * cards["block_fills"], cards


@dataclass
class MiReport:
    """Result of an exact mutual-information audit.

    ``value`` is Fraction(0) exactly when the conditional laws of the
    observer's tag (slot tuple, masked demand) given each demand matrix agree
    among the matrices sharing the observer's own row (rational-equality
    certificate); otherwise it is a float in base-q units, summed by math.fsum,
    strictly positive, with a witness (matrix, other matrix, outcome)
    attached, whose masked demand is the first vector of its class.
    """

    conditional_laws_equal: bool
    value: Fraction | float
    witness: tuple | None
    cardinalities: dict[str, int]
    observer: int
    wall_time_s: float


def exact_mutual_information(params: SchemeParams, observer: int = 0, *, variant: Variant = FULL,
                             budget: int = DEFAULT_BUDGET) -> MiReport:
    """Exact I(other rows ; broadcast, observer cache, observer row) under the
    uniform prior on demand matrices.  It equals I(other rows ; tag,
    observer row) with tag = (observer slot tuple, masked demand): the
    symbols add nothing (proof in the module docstring).  So the laws come
    from the class counts of ``_view_counts`` alone, and no library is
    enumerated.  The members of a class share p = J/s and p_o = O/s, so
    p/(p_t p_o) = J D/(T O) (D the denominator): s cancels.  Zero is
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
    # of the matrices' label-free atom counts.  An outcome is ((observer
    # slot tuple, class), own row), the class keyed by its first member.
    atoms = {m: _law_atoms(params, m, variant, pinned=0)[0] for m in mats}
    common = math.lcm(*atoms.values())
    per_demand_law = {}
    for m in mats:
        scale = common // atoms[m]
        per_demand_law[m] = {(tag, m[observer]): c * scale
                             for tag, c in _view_counts(params, m, observer, variant).items()}

    # the conditional outcome law may depend on the observer's own row only
    by_row: dict[tuple[int, ...], list[Demands]] = {}
    for m in mats:
        by_row.setdefault(m[observer], []).append(m)
    witness = None
    for peers in by_row.values():
        base = per_demand_law[peers[0]]
        other = next((o for o in peers[1:] if per_demand_law[o] != base), None)
        if other is not None:
            law = per_demand_law[other]
            bad = next(k for k in itertools.chain(base, law) if base.get(k, 0) != law.get(k, 0))
            witness = (peers[0], other, bad)
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

_Z_999 = 3.090232306167813  # the standard normal quantile at 0.999


def chi_square_quantile(dof: int) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at 0.999;
    accurate to a fraction of a percent for the large dof used here."""
    if dof < 1:
        raise ValueError("dof must be positive")
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + _Z_999 * math.sqrt(c)) ** 3


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
                        variant: Variant = FULL) -> ChiSquareReport:
    """Chi-square test of sampled masked demands against the uniform law,
    holding the observer's slot tuple fixed and resampling everything else.
    The support size (at least two points) and the run floor are checked
    against the closed-form support size before any draw."""
    demands = sch.validate_demands(params, demands)
    _check_observer(params, observer)
    size = restricted_vector_count(params)
    if size < 2:
        raise ValueError(f"the chi-square test needs at least two support points, got {size}")
    if runs < 10 * size:
        raise ValueError(f"need at least {10 * size} runs for {size} support points, got {runs}")
    draw = sch.sampler(params, demands, variant, {observer: selector})
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
    threshold = chi_square_quantile(dof)
    return ChiSquareReport(
        statistic=statistic,
        dof=dof,
        threshold=threshold,
        passed=statistic <= threshold,
        runs=runs,
        support_size=size,
        outside_support=outside,
    )
