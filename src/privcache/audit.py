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
  encoded.  Under the uniform prior the observer's row is independent of
  the other rows, so the MI is I(other rows; tag | observer row): it is
  computed one observer row at a time, from the laws of the matrices
  sharing that row.  Zero is certified by exact conditional-law equality
  among them, which holds for every prior at once; a nonzero value, which
  the derandomized baseline variants exhibit, is reported in base-q units.

Both routes work on classes of the masked demand and never walk the N!
file relabelings.  They enumerate the label-free stages of the scheme's
randomness through the one enumerator ``scheme.block_tables``, which yields
per (slot tuples, cover set) each user's table of admissible blocks; the
realizations are the tables' product, and ``_view_counts``, its one caller,
walks that product.  The relabeling is uniform and independent of those
stages, so with it on a class is a label pattern of the expanded demand (its
labels renumbered 0, 1, ... in order of first occurrence; two vectors share
one iff a relabeling maps one onto the other, and the pattern is itself the
first vector of its class), holding the N!/(N - n_active)! vectors a
relabeling maps it onto, and with it off a class is one vector, of size 1.
The realizations are equally likely (each stage is uniform, with a support
size that does not depend on earlier draws), so a class counted c times out
of ``atoms`` gives each member the mass c / (atoms * size).  Only
``masked_demand_law``, which returns the full law, expands a class into its
members.  How ``_view_counts`` builds each pattern from the block tables,
and why, with relabeling and random fills both on, it walks one cover set
per demand matrix, is in its docstring; ``_walked_variant`` is that
decision, read by ``_walk`` (the plan of one matrix's walk: variant walked
and atoms walked, which the budget reads and ``_view_counts`` walks and
checks) and by ``_joint_atom_count``.

The two audits that compare the laws of the demand matrices sharing the
observer's row do it through one core, ``_common_laws``: the walked counts
over the lcm of their totals, and the first law that differs from the
first.  ``verify_law_invariance`` reads its verdict and discrepancy off it,
and ``exact_mutual_information`` its witness and terms.

Each command charges its budget once, before its first walk, with the
atoms all its walks visit: ``verify_law_invariance`` the sum of the plans
over its family, ``exact_mutual_information`` that sum over every demand
matrix, in closed form, and over both variants where a baseline is audited
alongside.  No relabeling or library is charged, since neither is walked;
``masked_demand_law`` alone charges the walked atoms times the N!
relabelings, a bound on the members it lists, since each walked atom
yields at most one class.

Neither audit draws from ``scheme.sampler``, the code ``simulate`` draws
from; the tests check exactly that its law is the uniform relabeling times
the uniform law on ``scheme.block_tables``' realizations, so the audits
certify the law ``simulate`` samples.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from . import scheme as sch
from .scheme import FULL, Demands, SchemeParams, Variant


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


def _walked_variant(variant: Variant) -> Variant:
    """The variant ``_view_counts`` walks: with relabeling and random fills
    both on the cover stage is frozen, since the first feasible cover set
    stands for all (proof in ``_view_counts``); otherwise ``variant``."""
    return replace(variant, random_cover=False) if variant.relabel_files and variant.random_fill else variant


def _walk(params: SchemeParams, demands: Demands, variant: Variant, pinned: int) -> tuple[Variant, int]:
    """The walk ``_view_counts`` makes of one demand matrix's law with
    ``pinned`` users' slot tuples fixed: (variant walked, atoms walked),
    the variant walked being ``_walked_variant(variant)``.  The budgets
    charge the walked atoms."""
    walked = _walked_variant(variant)
    _, slots, covers, fill = _stage_sizes(params, walked, len(sch.requested_files(demands)))
    return walked, slots ** (params.n_users - pinned) * covers * fill ** params.n_users


def _check_observer(params: SchemeParams, observer: int):
    if not 0 <= observer < params.n_users:
        raise ValueError("observer out of range")


def _class_size(params: SchemeParams, variant: Variant) -> int:
    """How many masked vectors a class holds: the injections of a pattern's
    n_active labels into [N), or 1 with relabeling off.  Every class of a
    walk has n_active labels, block 0's."""
    return math.perm(params.n_files, params.n_active) if variant.relabel_files else 1


def _view_counts(params: SchemeParams, demands: Demands, observer: int, plan: tuple[Variant, int],
                 pinned: Mapping[int, tuple[int, ...]] | None = None) -> Counter:
    """Atom counts of (observer slot tuple, class of the masked demand) over
    the label-free realizations of one demand matrix that ``plan``, the
    demand matrix's ``_walk``, names, checked against the atoms it
    predicts.  The matrix comes validated and the pins checked.  Where one
    cover set is walked, every other adds the same counts, so the counts are
    in the law's proportions and ``total()`` is the denominator of its
    masses.  Keys keep the enumeration's first-occurrence order.

    The walk is a product: ``scheme.block_tables``, the one enumerator of
    the scheme's randomness, yields per (slot tuples, cover set) each user's
    table of blocks, and a realization is one block per table.  With
    relabeling off the class is the concatenated blocks.  With it on the
    class is the label pattern (defined in the module docstring).  Every
    block is an arrangement of the cover set, so block 0 holds each of the
    n_active labels once: the pattern is range(n_active) followed by each
    later block's pattern relative to block 0, its labels x read as their
    positions in block 0.  Each block-0 block reads the later tables
    relative to itself, and each key is one tuple concatenation per user.

    Why one cover set stands for all when relabeling and random fills are
    both on: a permutation of the unrequested files fixes every slot tuple
    and every pinned (requested) entry, and maps the fills of one cover set
    onto those of its image one to one; it thus carries the realizations of
    any cover set onto those of any other without changing a label pattern,
    and these permutations reach every feasible cover set.  So every cover
    set adds the first one's counts under the same keys, and as each
    slot-tuple pass meets the first cover set first, the keys keep their
    order.  Relabeling off makes a class a vector, which the permutation
    moves; frozen fills take the free files in ascending order, which it
    does not keep.  Either way every cover set is walked."""
    walked, atoms = plan
    relabel, labels = walked.relabel_files, tuple(range(params.n_active))
    counts: Counter = Counter()
    for sel, _, tables in sch.block_tables(params, demands, walked, pinned):
        tag, views = sel[observer], []
        for first in tables[0]:
            keys, rest = [first], tables[1:]
            if relabel:
                position = {x: i for i, x in enumerate(first)}.__getitem__
                keys, rest = [labels], [[tuple(map(position, block)) for block in table] for table in rest]
            for table in rest:
                keys = [key + block for key in keys for block in table]
            views += [(tag, key) for key in keys]
        counts.update(views)
    visited = counts.total()
    if visited != atoms:
        raise RuntimeError(f"enumerated {visited} atoms, predicted {atoms}")
    return counts


def masked_demand_law(params: SchemeParams, demands: Demands, observer: int,
                      selector: tuple[int, ...], variant: Variant = FULL,
                      budget: int = DEFAULT_BUDGET) -> dict[tuple[int, ...], Fraction]:
    """Exact law of the masked expanded demand given the demand matrix and the
    observer's slot tuple: each class of ``_view_counts`` expanded into its
    members, the one place where a class is expanded.  The budget applies
    to the walked atoms times the relabelings, a bound on the members
    listed: each walked atom yields at most one class, of at most N!
    members."""
    demands = sch.validate_demands(params, demands)
    _check_observer(params, observer)
    pinned = sch.checked_slots(params, {observer: selector})
    plan = _walk(params, demands, variant, 1)
    relabelings = _stage_sizes(params, variant, params.n_active)[0]  # any need: the relabelings alone are read
    _check_budget(plan[1] * relabelings, budget, "masked-demand law enumeration")
    counts = _view_counts(params, demands, observer, plan, pinned)
    den = plan[1] * _class_size(params, variant)
    files = range(params.n_files)
    # with relabeling off the identity is the one image
    images = list(itertools.permutations(files, params.n_active)) if variant.relabel_files else [files]
    law = {}
    for (_, cls), c in counts.items():
        mass = Fraction(c, den)
        for image in images:
            law[tuple(image[i] for i in cls)] = mass
    return law


def _common_laws(counts: list[Counter]) -> tuple[int, list[dict], int | None]:
    """The law comparison both exact audits make, over the walked counts of
    the demand matrices sharing the observer's row: (D, laws,
    first_differing).  D is the lcm of the counts' totals, the atoms walked;
    each law is its counts times D / total (the Counter itself where that
    is 1), keys in first-occurrence order, so a key counted c times has mass
    c / D; ``first_differing`` is the index of the first law unequal to the
    first one, or None."""
    totals = [law.total() for law in counts]
    den = math.lcm(*totals)
    laws = [law if scale == 1 else {key: c * scale for key, c in law.items()}
            for law, scale in zip(counts, [den // t for t in totals])]
    return den, laws, next((i for i, law in enumerate(laws[1:], 1) if law != laws[0]), None)


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
    curious user could ever see), decided on the class counts by
    ``_common_laws``: every member of a class has the same mass, so two laws
    agree iff their class masses c / D agree."""
    mats = [sch.validate_demands(params, d) for d in demand_list]
    if not mats:
        raise ValueError("empty demand list")
    _check_observer(params, observer)
    row = mats[0][observer]
    if any(m[observer] != row for m in mats):
        raise ValueError("demand matrices must agree on the observer's row")
    pinned = sch.checked_slots(params, {observer: selector})
    plans = [_walk(params, m, variant, 1) for m in mats]
    _check_budget(sum(atoms for _, atoms in plans), budget, "masked-demand law enumeration")
    # every key holds the one pinned slot tuple, so a key stands for its class
    den, laws, first_differing = _common_laws([_view_counts(params, m, observer, plan, pinned)
                                               for m, plan in zip(mats, plans)])
    size, mass = _class_size(params, variant), closed_form_mass(params)
    # one Fraction per distinct scaled count, not one per class
    worst = max(abs(Fraction(c, den * size) - mass) for c in {c for law in laws for c in law.values()})
    # the masses of a law sum to 1, so at the uniform mass its support has
    # the closed-form size
    uniform = worst == 0
    if first_differing is not None:
        base = laws[0]  # the laws before the first differing one equal it
        gap = max(abs(base.get(key, 0) - law.get(key, 0))
                  for law in laws[first_differing:] for key in base.keys() | law.keys())
        worst = max(worst, Fraction(gap, den * size))
    return InvarianceReport(identical=first_differing is None, uniform=uniform, max_discrepancy=worst)


# ---------------------------------------------------------------------------
# Exact mutual information from the observer's tag
# ---------------------------------------------------------------------------


def _joint_atom_count(params: SchemeParams, variant: Variant) -> tuple[int, dict[str, int]]:
    """The atoms ``exact_mutual_information`` walks, the sum of ``_walk``
    over every demand matrix in closed form, and the cardinalities behind
    them: slot assignments x block fills x the demand matrices, or, where
    the walk visits every cover set, the pairs (cover set, matrix inside
    it), C(N, n_active) * (n_active)_L^K of them.  ``relabelings``,
    ``library_realizations`` (capped at 10^30) and ``cover_sets_max`` (the
    cover sets of a matrix requesting L files) are informational and not
    charged."""
    n, f, q = params.n_files, params.file_len, params.q
    big_l, a = params.demands_per_user, params.n_active
    # the cap keeps q^(N F) from being built for large instances
    too_many = f * n * math.log(q) > math.log(10 ** 30)
    relabelings, slots, covers, fill = _stage_sizes(params, variant, big_l)
    cards = {
        "library_realizations": 10 ** 30 if too_many else q ** (n * f),
        "demand_matrices": math.perm(n, big_l) ** params.n_users,
        "relabelings": relabelings,
        "slot_assignments": slots ** params.n_users,
        "cover_sets_max": covers,
        "block_fills": fill ** params.n_users,
    }
    # the walked variant, the same for every matrix, keeps the cover stage
    # only where each matrix walks all of its cover sets
    walks = cards["demand_matrices"]
    if _walked_variant(variant).random_cover:
        walks = math.comb(n, a) * math.perm(a, big_l) ** params.n_users
    return walks * cards["slot_assignments"] * cards["block_fills"], cards


@dataclass
class MiReport:
    """Result of an exact mutual-information audit.

    ``value`` is Fraction(0) exactly when the conditional laws of the
    observer's tag (slot tuple, masked demand) given each demand matrix agree
    among the matrices sharing the observer's own row (rational-equality
    certificate); otherwise it is a float in base-q units, summed by math.fsum,
    strictly positive, with a witness (matrix, other matrix, outcome)
    attached, whose masked demand is the first vector of its class.
    ``baseline`` is the report of the baseline variant audited with it, if
    one was asked for.
    """

    conditional_laws_equal: bool
    value: Fraction | float
    witness: tuple | None
    cardinalities: dict[str, int]
    observer: int
    wall_time_s: float
    baseline: MiReport | None = None


def exact_mutual_information(params: SchemeParams, observer: int = 0, *, variant: Variant = FULL,
                             baseline: Variant | None = None, budget: int = DEFAULT_BUDGET) -> MiReport:
    """Exact I(other rows ; broadcast, observer cache, observer row) under the
    uniform prior on demand matrices.  It equals I(other rows ; tag,
    observer row) with tag = (observer slot tuple, masked demand): the
    symbols add nothing (proof in the module docstring).  So the laws come
    from the class counts of ``_view_counts`` alone, and no library is
    enumerated.

    Under the uniform prior every observer row is equally likely and the
    other rows are uniform given it, so the MI is I(other rows ; tag |
    observer row), a comparison within one row at a time.  A row's peers
    (the matrices holding it) are compared by ``_common_laws``, their laws
    over D, the lcm of their atom counts; an outcome counted c times out of
    D under one of n_mats matrices adds c/(n_mats D) * log(c |peers| / sum
    of its peers' c) to the value, in base q.  The members of a class share
    c, so the class stands for them all.  Zero is certified by equal
    conditional laws given each observer row, for every prior at once;
    unequal laws always give a positive value and a witness: the first peer
    whose law differs from the first peer's, in the first row that has one,
    rows and matrices taken in lexicographic order.

    With a ``baseline`` variant the same audit runs for it too, reported as
    the report's ``baseline``; the budget is charged once, before the first
    walk, with the atoms of both.
    """
    _check_observer(params, observer)
    variants = [variant] if baseline is None else [variant, baseline]
    counted = [_joint_atom_count(params, v) for v in variants]
    _check_budget(sum(total for total, _ in counted), budget, "joint-law enumeration")
    rows = list(itertools.permutations(range(params.n_files), params.demands_per_user))
    logq = math.log(params.q)

    reports = []
    for v, (_, cards) in zip(variants, counted):
        n_mats = cards["demand_matrices"]
        start = time.perf_counter()
        witness, terms = None, []
        for row in rows:
            # the matrices holding ``row`` at the observer, in lexicographic order
            peers = [others[:observer] + (row,) + others[observer:]
                     for others in itertools.product(rows, repeat=params.n_users - 1)]
            den, laws, other = _common_laws([_view_counts(params, m, observer, _walk(params, m, v, 0))
                                             for m in peers])
            if other is None:
                continue
            if witness is None:
                base, law = laws[0], laws[other]
                bad = next(k for k in itertools.chain(base, law) if base.get(k, 0) != law.get(k, 0))
                witness = (peers[0], peers[other], (bad, row))
            pooled: Counter = Counter()
            for law in laws:
                pooled.update(law)
            # int / int is correctly rounded, as float(Fraction) is
            terms += [c / (n_mats * den) * math.log(c * len(peers) / pooled[tag]) / logq
                      for law in laws for tag, c in law.items()]
        reports.append(MiReport(
            conditional_laws_equal=witness is None,
            value=Fraction(0) if witness is None else math.fsum(terms),
            witness=witness,
            cardinalities=cards,
            observer=observer,
            wall_time_s=time.perf_counter() - start,
        ))
    if baseline is not None:
        reports[0].baseline = reports[1]
    return reports[0]
