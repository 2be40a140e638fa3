"""Command-line front end: reproducible experiments with machine-readable output.

Subcommands:

* ``simulate``  one seeded end-to-end run (placement, delivery, every decode);
  writes a replayable JSON trace or a one-line CSV summary.
* ``audit``     exact privacy checks by enumeration: the masked-demand law
  (``--mode ptilde``) or the mutual information on enumerable instances
  (``--mode mi``).  An option the chosen mode does not read is a usage
  error.
* ``tradeoff``  plot-ready CSV of achievable points, envelopes, converse
  corner points and converse lines (rationals as numerator/denominator
  columns, never floats).
* ``gap``       JSON optimality-gap certificates with exact dominance checks,
  for one parameter triple or a sweep.

Each command is parsed once, by its own parser; the top-level parser sees
only an argv that does not start with a command word (or one its command's
parser leaves words of), and then only prints help or a usage error.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 enumeration budget
exceeded.  All randomness flows from ``--seed``; outputs are byte-identical
for identical configurations (audit wall times are only written with
``--timings``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import audit, scheme, tradeoff
from .audit import BudgetExceededError
from .scheme import FULL, NO_RELABEL, PLAIN_BASELINE, SchemeParams
from .tradeoff import OptimalityGapError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_VARIANTS = {"scheme": FULL, "no-relabel": NO_RELABEL, "plain": PLAIN_BASELINE}


def _frac(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(tuple(int(x) for x in row.split(",")) for row in text.split(";"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse demand matrix {text!r}; expected e.g. '0,1;0,2'")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer list {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse fraction {text!r}")


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, in one pass.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, which on
    a ``simulate`` trace costs about as much as the simulation; ``_emit``
    writes the same text into one list of chunks, joined once.
    """
    chunks: list[str] = []
    _emit(obj, "", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _emit(obj, pad: str, push) -> None:
    """Push the JSON text of ``obj`` as it appears indented by ``pad``.

    Ints, strs, non-empty lists and tuples, and non-empty dicts whose keys are
    all strs are written here.  Any other non-empty container (other keys, a
    subclass) is ``json.dumps(obj, indent=2, sort_keys=True)`` with ``pad``
    after every newline.  That is exact: json indents level d by
    ``"\\n" + "  " * d``, and a JSON string never holds a raw newline.  What
    is left is a leaf or an empty container: ``True``, ``False``, ``None``
    and an empty list, tuple or dict are written as their literal text (by
    identity and exact type, so ``1.0`` is never taken for ``True``), and
    anything else (floats, subclasses) is plain ``json.dumps``, which prints
    it as the indenting encoder does.  The indenting encoder leaves a
    reference cycle of closures behind on every call, and a closure calling
    itself would too; this module-level function leaves none.
    """
    kind = type(obj)
    if kind is int:
        push(int.__repr__(obj))
    elif kind is str:
        push(encode_basestring_ascii(obj))
    elif kind is dict and obj and all(type(key) is str for key in obj):
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            push(sep)
            push(encode_basestring_ascii(key))
            push(": ")
            _emit(obj[key], inner, push)
            sep = ",\n" + inner
        push("\n" + pad + "}")
    elif (kind is list or kind is tuple) and obj:
        inner = pad + "  "
        sep = "[\n" + inner
        for item in obj:
            push(sep)
            _emit(item, inner, push)
            sep = ",\n" + inner
        push("\n" + pad + "]")
    elif isinstance(obj, (dict, list, tuple)) and obj:
        push(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad))
    elif obj is True:
        push("true")
    elif obj is False:
        push("false")
    elif obj is None:
        push("null")
    elif kind is list or kind is tuple:  # empty: a non-empty one was written above
        push("[]")
    elif kind is dict:
        push("{}")
    else:
        push(json.dumps(obj))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.packet < 1:
        raise ValueError("--packet must be at least 1")
    params = SchemeParams(
        n_files=args.N, n_users=args.K, demands_per_user=args.L,
        r=args.r, q=args.q, packet_size=args.packet,
    )
    demands = args.demands
    trace = scheme.run_simulation(params, args.seed, demands=demands, decoder=args.decoder)
    if args.format == "json":
        _write_text(args.out, _json_text(trace.to_json_dict()))
    else:
        buf = io.StringIO()
        row = trace.summary_row()
        writer = csv.DictWriter(buf, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
        _write_text(args.out, buf.getvalue())
    if args.out and args.out != "-":
        print(f"simulate: M={trace.memory} R={trace.rate} segments={trace.broadcast.segment_count} "
              f"correct={trace.correct_all} -> {args.out}")
    return EXIT_OK if trace.correct_all else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _budget(args) -> int:
    """--budget, for the modes that read it."""
    if args.budget is None:
        return audit.DEFAULT_BUDGET
    if args.budget < 1:
        raise ValueError("--budget must be at least 1")
    return args.budget


def _default_demand_family(params: SchemeParams, observer: int) -> list[tuple[tuple[int, ...], ...]]:
    """Small family sharing the observer's row: the other users' rows are
    identical to it, overlap it in one file less, or are disjoint from it."""
    n, big_l = params.n_files, params.demands_per_user
    own = tuple(range(big_l))
    others = [own]
    if big_l < n:
        others.append(tuple(range(big_l - 1)) + (big_l,))
    if 2 * big_l <= n:
        others.append(tuple(range(big_l, 2 * big_l)))
    family = []
    for other in others:
        mat = tuple(own if k == observer else other for k in range(params.n_users))
        if mat not in family:
            family.append(mat)
    return family


def _audit_ptilde(args, params: SchemeParams, variant) -> dict:
    selector = args.selector if args.selector is not None else tuple(range(params.demands_per_user))
    family = args.demands if args.demands else _default_demand_family(params, args.observer)
    inv = audit.verify_law_invariance(params, family, args.observer, selector, variant, _budget(args))
    support = audit.restricted_vector_count(params)
    return {
        "check": "ptilde-law",
        "demand_matrices": [[list(r) for r in d] for d in family],
        "observer": args.observer,
        "selector": list(selector),
        "support_size": support,
        "uniform_mass": _frac(audit.closed_form_mass(params)),
        "max_discrepancy": _frac(inv.max_discrepancy),
        "laws_identical": inv.identical,
        "uniform": inv.uniform,
        "passed": inv.uniform and inv.identical,
        "cardinalities": {"laws": len(family), "support": support},
    }


def _audit_mi(args, params: SchemeParams, variant) -> dict:
    report = audit.exact_mutual_information(params, args.observer, variant=variant,
                                            baseline=PLAIN_BASELINE if args.baseline else None,
                                            budget=_budget(args))
    zero = report.conditional_laws_equal and report.value == 0
    result = {
        "check": "exact-mi",
        "observer": args.observer,
        "conditional_laws_equal": report.conditional_laws_equal,
        "mi_base_q": _frac(report.value) if isinstance(report.value, Fraction) else float(report.value),
        "mi_is_zero": zero,
        "cardinalities": report.cardinalities,
        "passed": zero,
    }
    if args.timings:
        result["wall_time_s"] = report.wall_time_s
    base = report.baseline
    if base is not None:
        positive = (not base.conditional_laws_equal) and float(base.value) > 0
        result["baseline"] = {
            "variant": "plain",
            "mi_base_q": float(base.value),
            "leaks_as_expected": positive,
        }
        result["passed"] = zero and positive
    return result


# Per audit mode, its runner and the options it reads besides those every
# mode reads; an option outside both is refused.
_AUDIT_MODES = {
    "ptilde": (_audit_ptilde, ("--selector", "--demands", "--budget")),
    "mi": (_audit_mi, ("--F", "--baseline", "--budget", "--timings")),
}


def _refuse_unread(args):
    """Raise a usage error naming every given option the mode does not read.
    The options that not every mode reads, flags included, default to None,
    so a given one is one that is not None."""
    unread = [opt for opt in dict.fromkeys(opt for _, opts in _AUDIT_MODES.values() for opt in opts)
              if opt not in _AUDIT_MODES[args.mode][1] and getattr(args, opt[2:]) is not None]
    if unread:
        raise ValueError(f"--mode {args.mode} does not read {', '.join(unread)}")


def cmd_audit(args) -> int:
    _refuse_unread(args)
    params = _audit_params(args)
    run, _ = _AUDIT_MODES[args.mode]
    report = run(args, params, _VARIANTS[args.variant])
    report["instance"] = {
        "n_files": params.n_files, "n_users": params.n_users,
        "demands_per_user": params.demands_per_user, "r": params.r,
        "q": params.q, "file_len": params.file_len, "variant": args.variant,
    }
    _write_text(args.out, _json_text(report))
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def _audit_params(args) -> SchemeParams:
    packet = 1
    r = args.r if args.r is not None else 1
    if args.mode == "mi":
        if args.F is None:
            raise ValueError("--F is required for --mode mi")
        if args.F < 1:
            raise ValueError("--F must be at least 1")
        probe = SchemeParams(args.N, args.K, args.L, r=r, q=args.q, packet_size=1)
        blocks = probe.ucc.subfile_count
        if args.F % blocks:
            raise ValueError(f"--F {args.F} is not a multiple of the {blocks} subfiles")
        packet = args.F // blocks
    return SchemeParams(args.N, args.K, args.L, r=r, q=args.q, packet_size=packet)


# ---------------------------------------------------------------------------
# tradeoff / gap
# ---------------------------------------------------------------------------


def cmd_tradeoff(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["M_num", "M_den", "R_num", "R_den", "provenance"])

    def emit(m: Fraction, r: Fraction, provenance: str):
        writer.writerow([m.numerator, m.denominator, r.numerator, r.denominator, provenance])

    for p in tradeoff.achievable_points(args.N, args.K, args.L):
        emit(p.m, p.rate, p.provenance)
    for m, r in tradeoff.achievable_envelope(args.N, args.K, args.L).breakpoints:
        emit(m, r, "achievable-envelope")
    for p in tradeoff.corner_points(args.N, args.K, args.L):
        emit(p.m, p.rate, p.provenance)
    for m, r in tradeoff.converse_corner_envelope(args.N, args.K, args.L).breakpoints:
        emit(m, r, "converse-envelope")
    for s, lam, t, a, b, e in tradeoff.converse_terms(args.N, args.K, args.L, args.lambda_step):
        prov = f"line s={s},lam={lam},t={t}"
        emit(Fraction(0), Fraction(a, e), prov)
        emit(Fraction(args.N), Fraction(a + b * args.N, e), prov)
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def _gap_entry(n: int, k: int, big_l: int, grid_size: int, lambda_step: Fraction) -> dict:
    dom = tradeoff.verify_envelope_dominance(n, k, big_l, grid_size, lambda_step)
    entry = {
        "N": n, "K": k, "L": big_l,
        "dominance_ok": dom.ok,
        "checked_points": dom.checked_points,
        "violations": [[str(m), str(lo), str(up), tag] for m, lo, up, tag in dom.violations],
        "lines_above_corner_envelope": [
            {"s": s, "lambda": str(lam), "first_M": str(m)} for s, lam, m in dom.lines_above_corner_envelope
        ],
    }
    try:
        cert = tradeoff.gap_certificate(n, k, big_l)
        entry.update({
            "max_ratio": _frac(cert.max_ratio),
            "witness_M": _frac(cert.witness_m),
            "witness": cert.witness_provenance,
            "within_factor_6": True,
        })
    except OptimalityGapError as exc:
        entry.update({"within_factor_6": False, "error": str(exc)})
    entry["passed"] = entry["within_factor_6"] and dom.ok
    return entry


def _parse_sweep(text: str) -> dict[str, tuple[int, int]]:
    out = {}
    for part in text.split(","):
        name, _, rng = part.partition("=")
        lo, _, hi = rng.partition("..")
        named = name in ("N", "K", "L") and lo
        if named and name in out:
            raise argparse.ArgumentTypeError(f"sweep component {name} given twice in {text!r}")
        try:
            bounds = (int(lo), int(hi or lo)) if named else None
        except ValueError:
            bounds = None
        if bounds is None:
            raise argparse.ArgumentTypeError(f"cannot parse sweep component {part!r}")
        if bounds[0] < 1:
            raise argparse.ArgumentTypeError(f"sweep component {part!r} starts below 1")
        out[name] = bounds
    return out


def cmd_gap(args) -> int:
    if args.sweep:
        if (args.N, args.K, args.L) != (None, None, None):
            raise ValueError("pass either --N/--K/--L or --sweep")
        triples = tradeoff.sweep_triples(args.sweep.get("N", (1, 8)), args.sweep.get("K", (1, 4)), args.sweep.get("L"))
        if not triples:
            raise ValueError("sweep selects no (N, K, L) triple")
    else:
        if args.N is None or args.K is None or args.L is None:
            raise ValueError("pass --N/--K/--L or --sweep")
        triples = [(args.N, args.K, args.L)]
    entries = [_gap_entry(n, k, big_l, args.grid, args.lambda_step) for n, k, big_l in triples]
    report = {"certificates": entries, "all_passed": all(e["passed"] for e in entries)}
    _write_text(args.out, _json_text(report))
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of this process, and its command parsers by command
    word; ``parse_args`` returns a fresh namespace each call, so no state
    carries from one command to the next."""
    parser = argparse.ArgumentParser(prog="privcache", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="one seeded end-to-end run")
    sim.add_argument("--N", type=int, required=True, help="number of files")
    sim.add_argument("--K", type=int, required=True, help="number of users")
    sim.add_argument("--L", type=int, required=True, help="demands per user")
    sim.add_argument("--r", type=int, required=True, help="placement parameter in [0, K*min(N,K*L)]")
    sim.add_argument("--q", type=int, default=257, help="prime field modulus")
    sim.add_argument("--packet", type=int, default=1, help="symbols per subfile")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--demands", type=_parse_rows, default=None, help="optional demand matrix '0,1;0,2'")
    sim.add_argument("--decoder", choices=("linear", "structural"), default="linear")
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    aud = sub.add_parser("audit", help="privacy audits")
    aud.add_argument("--mode", choices=tuple(_AUDIT_MODES), required=True)
    aud.add_argument("--N", type=int, required=True)
    aud.add_argument("--K", type=int, required=True)
    aud.add_argument("--L", type=int, required=True)
    aud.add_argument("--r", type=int, default=None)
    aud.add_argument("--q", type=int, default=257)
    aud.add_argument("--F", type=int, default=None, help="file length for --mode mi")
    aud.add_argument("--observer", type=int, default=0)
    aud.add_argument("--selector", type=_parse_ints, default=None, help="observer slot tuple, e.g. '0,2'")
    aud.add_argument("--demands", type=_parse_rows, action="append", default=None,
                     help="demand matrix '0,1;0,2'; repeat for an invariance family")
    aud.add_argument("--variant", choices=sorted(_VARIANTS), default="scheme",
                     help="'scheme' is the real construction; others are derandomized mutants")
    aud.add_argument("--baseline", action="store_true", default=None,
                     help="mi mode: also audit the plain baseline and require it to leak")
    aud.add_argument("--budget", type=int, default=None,
                     help="cap on the label-free atoms the command walks, charged before the first walk; "
                          f"mi --baseline charges both audits' atoms together (default {audit.DEFAULT_BUDGET})")
    aud.add_argument("--timings", action="store_true", default=None,
                     help="mi mode: include wall times in the report")
    aud.add_argument("--out", default=None)
    aud.set_defaults(func=cmd_audit)

    tra = sub.add_parser("tradeoff", help="plot-ready tradeoff CSV")
    tra.add_argument("--N", type=int, required=True)
    tra.add_argument("--K", type=int, required=True)
    tra.add_argument("--L", type=int, required=True)
    tra.add_argument("--lambda-step", dest="lambda_step", type=_parse_fraction, default=Fraction(1, 8))
    tra.add_argument("--out", default=None)
    tra.set_defaults(func=cmd_tradeoff)

    gap = sub.add_parser("gap", help="optimality-gap certificates")
    gap.add_argument("--N", type=int, default=None)
    gap.add_argument("--K", type=int, default=None)
    gap.add_argument("--L", type=int, default=None)
    gap.add_argument("--sweep", type=_parse_sweep, default=None, help="e.g. 'N=1..8,K=1..4'")
    gap.add_argument("--grid", type=int, default=101, help="memory grid points for dominance")
    gap.add_argument("--lambda-step", dest="lambda_step", type=_parse_fraction, default=Fraction(1, 8))
    gap.add_argument("--threads", type=int, choices=(1,), default=1,
                     help="gap runs in one process; the option stays only so existing argvs parse")
    gap.add_argument("--out", default=None)
    gap.set_defaults(func=cmd_gap)
    return parser, sub.choices


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """The namespace the top-level parser's ``parse_args(argv)`` gives, from one parse.

    An argv that starts with a command word is parsed by that command's parser
    alone, as argparse's subparsers action calls it, so the top-level parser
    does not read it first.  Any other argv, and a command's argv that leaves
    words over, goes to the top-level parser, which then only prints help or
    argparse's own usage error."""
    parser, commands = build_parser()
    if argv:
        command = commands.get(argv[0])
        if command is not None:
            args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if not extras:
                return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
