"""The benchmark's workloads: seeded blocks of privcache CLI commands, and the
checks every command's output must pass.

A workload hands out *blocks*.  Block 0 is the workload's fixed reference
op set for a seed: the output digest and the structural counts are taken
over it, and the traced run replays it.  Later blocks draw fresh inputs from
the same seed.  A block is a list of units; a unit is one or more ops whose
outputs are checked together (the two decoders of one simulate seed must
agree byte for byte).  Each op is the argv of one ``privcache`` command.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Result = tuple[int, str]  # exit code, captured stdout


@dataclass
class Unit:
    ops: list[tuple[str, list[str]]]  # (op kind, argv)
    check: Callable[[list[Result]], list[bool]]  # one "failed" flag per op


def _block_rng(name: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{block}")


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


class SimWorkload:
    """Seeded ``simulate`` trials, each run with both decoders."""

    slots = ("sim_linear", "sim_structural")
    kinds = slots
    trials_per_block = 20
    warmup_seed = 123456789

    def __init__(self, name: str, n: int, k: int, big_l: int, r: int):
        self.name = name
        self.dims = (n, k, big_l, r)
        self.instance = ["--N", str(n), "--K", str(k), "--L", str(big_l), "--r", str(r)]
        self.expected = None

    def prepare(self, tradeoff):
        n, k, big_l, r = self.dims
        point = tradeoff.achievable_points(n, k, big_l)[r]
        self.expected = ([point.m.numerator, point.m.denominator],
                         [point.rate.numerator, point.rate.denominator])

    def _trial(self, seed: int) -> Unit:
        base = ["simulate", *self.instance, "--seed", str(seed), "--decoder"]
        return Unit([("sim_linear", base + ["linear"]), ("sim_structural", base + ["structural"])],
                    self._check)

    def _trace_ok(self, rc: int, out: str) -> bool:
        trace = _json(out) if rc == 0 else None
        return (isinstance(trace, dict) and trace.get("correct_all") is True
                and (trace.get("memory"), trace.get("rate")) == self.expected)

    def _check(self, results: list[Result]) -> list[bool]:
        failed = [not self._trace_ok(rc, out) for rc, out in results]
        if results[0][1] != results[1][1]:
            failed[1] = True  # the structural decoder is checked against the reference
        return failed

    def warmup(self) -> list[Unit]:
        return [self._trial(self.warmup_seed)]

    def block(self, seed: int, index: int) -> list[Unit]:
        rng = _block_rng(self.name, seed, index)
        return [self._trial(rng.randrange(2 ** 31)) for _ in range(self.trials_per_block)]


GAP_TRIPLES = tuple((n, k, big_l) for n in range(1, 9) for k in range(1, 5) for big_l in range(1, n + 1))
WORST_GAP = ([55767847, 25711400], (8, 4, 2))
LAW_DIMS = ("--N", "5", "--K", "2", "--L", "2", "--r", "1")
LAW_SUPPORT = 2880
MI_ARGV = ["audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4",
           "--r", "1", "--baseline"]


def _gap_argv(triple) -> list[str]:
    n, k, big_l = triple
    return ["gap", "--N", str(n), "--K", str(k), "--L", str(big_l),
            "--grid", "101", "--lambda-step", "1/8", "--threads", "1"]


def _gap_ok(triple, rc: int, out: str):
    """The certificate's max ratio when the op passed, else None."""
    report = _json(out) if rc == 0 else None
    if not isinstance(report, dict) or report.get("all_passed") is not True:
        return None
    certs = report.get("certificates")
    if not isinstance(certs, list) or len(certs) != 1:
        return None
    cert = certs[0]
    if (cert.get("N"), cert.get("K"), cert.get("L")) != triple:
        return None
    if not (cert.get("passed") and cert.get("dominance_ok") and cert.get("within_factor_6")):
        return None
    ratio = cert.get("max_ratio")
    return Fraction(*ratio) if isinstance(ratio, list) and len(ratio) == 2 else None


def _law_check(results: list[Result]) -> list[bool]:
    rc, out = results[0]
    law = _json(out) if rc == 0 else None
    ok = (isinstance(law, dict) and law.get("passed") is True and law.get("uniform") is True
          and law.get("laws_identical") is True and law.get("support_size") == LAW_SUPPORT
          and law.get("uniform_mass") == [1, LAW_SUPPORT] and law.get("max_discrepancy") == [0, 1])
    return [not ok]


def _mi_check(results: list[Result]) -> list[bool]:
    rc, out = results[0]
    mi = _json(out) if rc == 0 else None
    ok = (isinstance(mi, dict) and mi.get("passed") is True and mi.get("mi_is_zero") is True
          and mi.get("conditional_laws_equal") is True
          and (mi.get("baseline") or {}).get("leaks_as_expected") is True)
    return [not ok]


class _GapPass:
    """Checks one full pass of the 144 gap ops: each op passes, and the worst
    max ratio over the pass is exactly the known one, at the known triple."""

    def __init__(self):
        self.worst = None
        self.seen = 0

    def unit(self, triple) -> Unit:
        def check(results: list[Result]) -> list[bool]:
            ratio = _gap_ok(triple, *results[0])
            self.seen += 1
            if ratio is None:
                return [True]
            if self.worst is None or ratio > self.worst[0]:
                self.worst = (ratio, triple)
            if self.seen == len(GAP_TRIPLES):
                want_ratio, want_triple = WORST_GAP
                return [self.worst != (Fraction(*want_ratio), want_triple)]
            return [False]

        return Unit([("gap", _gap_argv(triple))], check)


class CertifyWorkload:
    """Privacy audits and gap certificates, interleaved; no decoder runs."""

    name = "certify"
    slots = ("gap", "law")
    kinds = ("gap", "law", "mi")
    # (files the two demand rows share, law ops per block).  The law's cost
    # grows with the number of feasible cover sets, so it has three modes;
    # this mix puts the median inside the middle mode and p90 inside the
    # slowest, instead of on a boundary where the seed would decide them.
    law_mix = ((2, 20), (1, 50), (0, 30))
    mi_after = (47, 119)  # positions in the gap pass after which an mi op runs

    def prepare(self, tradeoff):
        pass

    @staticmethod
    def _law(demands: str, selector: str) -> Unit:
        argv = ["audit", "--mode", "ptilde", *LAW_DIMS, "--selector", selector, "--demands", demands]
        return Unit([("law", argv)], _law_check)

    @classmethod
    def _seeded_law(cls, rng: random.Random, shared: int) -> Unit:
        row0 = rng.sample(range(5), 2)
        row1 = rng.sample(row0, shared) + rng.sample([f for f in range(5) if f not in row0], 2 - shared)
        rng.shuffle(row1)
        demands = f"{row0[0]},{row0[1]};{row1[0]},{row1[1]}"
        return cls._law(demands, ",".join(map(str, rng.sample(range(4), 2))))

    @staticmethod
    def _mi() -> Unit:
        return Unit([("mi", list(MI_ARGV))], _mi_check)

    def warmup(self) -> list[Unit]:
        return [_GapPass().unit(WORST_GAP[1]), self._law("0,1;2,3", "0,1"), self._mi()]

    def block(self, seed: int, index: int) -> list[Unit]:
        rng = _block_rng(self.name, seed, index)
        triples = list(GAP_TRIPLES)
        rng.shuffle(triples)
        shares = [shared for shared, count in self.law_mix for _ in range(count)]
        rng.shuffle(shares)
        gap_pass = _GapPass()
        units = []
        for i, triple in enumerate(triples):
            units.append(gap_pass.unit(triple))
            # spread the law ops evenly over the gap pass
            for shared in shares[i * len(shares) // len(triples):(i + 1) * len(shares) // len(triples)]:
                units.append(self._seeded_law(rng, shared))
            if i in self.mi_after:
                units.append(self._mi())
        return units


WORKLOADS = {
    w.name: w
    for w in (
        # 12 virtual users, F = 66, 2 user groups: plain (all-ones) segments.
        SimWorkload("sim-plain", 6, 2, 3, 2),
        # 9 virtual users, F = 36, 3 user groups: signed segments.
        SimWorkload("sim-signed", 4, 3, 1, 2),
        CertifyWorkload(),
    )
}
