"""CLI contract tests: exit codes, file formats, determinism."""

import argparse
import csv
import functools
import gc
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fraction_converse_line
from privcache import audit, cli, scheme, tradeoff, ucc
from privcache.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run_cli("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1",
                   "--seed", "7", "--out", str(out))
    assert code == 0
    trace = json.loads(out.read_text())
    assert trace["memory"] == [5, 4]
    assert trace["rate"] == [11, 4]
    assert trace["segment_count"] == 22
    assert trace["correct_all"] is True
    assert "M=5/4" in capsys.readouterr().out


def test_simulate_r0_rate_is_active_file_count(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "0",
                   "--seed", "3", "--out", str(out)) == 0
    trace = json.loads(out.read_text())
    assert trace["memory"] == [0, 1]
    assert trace["rate"] == [4, 1]


def test_simulate_csv_summary(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1",
                   "--seed", "7", "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,K,L,r,M_num,M_den,R_num,R_den,correct_all"
    assert lines[1] == "5,2,2,1,5,4,11,4,True"


def test_simulate_byte_identical_for_same_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_cli("simulate", "--N", "3", "--K", "2", "--L", "1", "--r", "2",
                "--seed", "11", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_demands_flag(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1",
                   "--seed", "1", "--demands", "0,1;0,2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["demands"] == [[0, 1], [0, 2]]


def test_simulate_invalid_r_is_usage_error(capsys):
    assert run_cli("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "16") == 2
    assert "r=16" in capsys.readouterr().err


def test_simulate_missing_argument_is_usage_error(capsys):
    assert run_cli("simulate", "--K", "2", "--L", "2", "--r", "1") == 2


PSI_12 = "318665857834031151167461"  # composite, a strong pseudoprime to every prime base up to 37
PSI_13 = "3317044064679887385961981"  # past it no fixed set of Miller-Rabin bases is proven


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--demands", "0,x;0,2"),
     "error: argument --demands: cannot parse demand matrix '0,x;0,2'; expected e.g. '0,1;0,2'"),
    (("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--selector", "0,?"),
     "error: argument --selector: cannot parse integer list '0,?'"),
    (("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2"),
     "usage error: --F is required for --mode mi"),
    (("tradeoff", "--N", "3", "--K", "2", "--L", "1", "--lambda-step", "3/2"),
     "usage error: lambda step must lie in (0, 1]"),
    (("gap", "--N", "3", "--K", "2", "--L", "1", "--lambda-step", "0"),
     "usage error: lambda step must lie in (0, 1]"),
    (("gap", "--N", "3", "--K", "2", "--L", "1", "--grid", "1"), "usage error: grid needs at least two points"),
    (("simulate", "--N", "2", "--K", "1", "--L", "1", "--r", "0", "--q", PSI_12, "--format", "csv"),
     f"usage error: modulus {PSI_12} is not prime"),
    (("simulate", "--N", "2", "--K", "1", "--L", "1", "--r", "0", "--q", PSI_13, "--format", "csv"),
     f"usage error: modulus {PSI_13} is not below {PSI_13}, the bound up to which primality is decided exactly"),
], ids=["demands", "selector", "mi-without-F", "lambda-step-3/2", "lambda-step-0", "grid-1", "q-psi12", "q-psi13"])
def test_bad_input_is_a_usage_error(argv, message, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message + "\n")


def test_simulate_decode_error_is_a_false_verdict(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise ucc.DecodeError("unreadable")

    monkeypatch.setattr(ucc, "decode", failing)
    assert run_cli("simulate", "--N", "3", "--K", "2", "--L", "1", "--r", "1") == 1
    trace = json.loads(capsys.readouterr().out)
    assert trace["correct_all"] is False
    assert [d["ok"] for d in trace["decodes"]] == [False, False]


@pytest.mark.parametrize("dims, message", [
    ((0, 1, 1), "need at least one file and one user"),
    ((3, 0, 1), "need at least one file and one user"),
    ((3, 1, 0), "demands per user must lie in [1, n_files]"),
    ((3, 1, 4), "demands per user must lie in [1, n_files]"),
    ((-2, 1, 1), "need at least one file and one user"),
], ids=["N=0", "K=0", "L=0", "L=N+1", "N<0"])
def test_bad_triple_gives_one_message_everywhere(dims, message, capsys):
    # scheme.validate_dims is the one (N, K, L) check: the scheme, every
    # tradeoff entry point and every command that takes a triple say the same
    entries = [
        lambda: scheme.SchemeParams(*dims, r=0),
        lambda: tradeoff.achievable_points(*dims),
        lambda: tradeoff.achievable_envelope(*dims),
        lambda: tradeoff.converse_corner_envelope(*dims),
        lambda: tradeoff.converse_line(*dims, 1, 0),
        lambda: tradeoff.gap_certificate(*dims),
        lambda: tradeoff.verify_envelope_dominance(*dims),
    ]
    for entry in entries:
        with pytest.raises(ValueError) as exc:
            entry()
        assert str(exc.value) == message
    n, k, big_l = (f"--{name}={value}" for name, value in zip("NKL", dims))
    for argv in (["simulate", n, k, big_l, "--r", "0"], ["gap", n, k, big_l], ["tradeoff", n, k, big_l]):
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_audit_ptilde_default_family(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2",
                   "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["max_discrepancy"] == [0, 1]
    assert rep["support_size"] == 2880
    assert len(rep["demand_matrices"]) == 3


def test_audit_ptilde_explicit_selector_and_demands(tmp_path):
    out = tmp_path / "p.json"
    code = run_cli("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2",
                   "--selector", "0,2",
                   "--demands", "0,1;0,1", "--demands", "0,1;0,2", "--demands", "0,1;2,3",
                   "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["laws_identical"] is True and rep["uniform"] is True


def test_audit_ptilde_computes_each_law_once(monkeypatch, tmp_path):
    """One enumeration pass per demand matrix, decided on the class counts:
    no full law is expanded on the CLI path."""
    real = scheme.block_tables
    passes = []

    def counting(params, demands, *args):
        passes.append(demands)
        return real(params, demands, *args)

    def expanded(*args, **kwargs):
        raise AssertionError("full masked-demand law expanded")

    monkeypatch.setattr(scheme, "block_tables", counting)
    monkeypatch.setattr(audit, "masked_demand_law", expanded)
    assert run_cli("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2",
                   "--selector", "0,2", "--out", str(tmp_path / "law.json")) == 0
    assert passes == [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))]


def test_audit_ptilde_mutant_fails(tmp_path):
    out = tmp_path / "p.json"
    code = run_cli("audit", "--mode", "ptilde", "--N", "3", "--K", "2", "--L", "1",
                   "--variant", "no-relabel", "--out", str(out))
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False


@pytest.mark.parametrize("dims,observer", [(("3", "2", "1"), 1), (("5", "3", "1"), 2)])
def test_audit_ptilde_default_family_fixes_the_observers_row(dims, observer, tmp_path):
    """The default family holds the observer's row fixed, whichever user
    observes, so the genuine scheme passes and the no-relabel mutant fails."""
    n, k, big_l = dims
    argv = ("audit", "--mode", "ptilde", "--N", n, "--K", k, "--L", big_l, "--observer", str(observer))
    out = tmp_path / "p.json"
    assert run_cli(*argv, "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True and rep["observer"] == observer
    assert len(rep["demand_matrices"]) > 1
    assert all(mat[observer] == list(range(int(big_l))) for mat in rep["demand_matrices"])
    assert run_cli(*argv, "--variant", "no-relabel", "--out", str(out)) == 1


def test_audit_mi_with_baseline(tmp_path):
    out = tmp_path / "mi.json"
    code = run_cli("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1",
                   "--q", "2", "--F", "4", "--r", "1", "--baseline", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["mi_is_zero"] is True
    assert rep["mi_base_q"] == [0, 1]
    assert rep["baseline"]["leaks_as_expected"] is True
    assert rep["baseline"]["mi_base_q"] > 0


def test_audit_mi_beyond_library_reach(tmp_path):
    # q = 257, F = 4: 257^12 libraries, never enumerated; 36 walked atoms are charged
    out = tmp_path / "mi.json"
    code = run_cli("audit", "--mode", "mi", "--N", "3", "--K", "2", "--L", "1", "--F", "4", "--r", "1",
                   "--baseline", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["mi_is_zero"] is True
    assert rep["cardinalities"]["library_realizations"] == 257 ** 12
    assert rep["baseline"]["leaks_as_expected"] is True


def test_audit_mi_budget_exceeded(capsys):
    code = run_cli("audit", "--mode", "mi", "--N", "6", "--K", "4", "--L", "1",
                   "--q", "257", "--F", "16", "--r", "1")
    assert code == 3
    # 6^4 matrices x 4^4 slot tuples x (3!)^4 fills, one cover set walked per matrix;
    # no relabeling or library factor
    assert capsys.readouterr().err == ("budget error: joint-law enumeration: "
                                       "429981696 enumeration atoms exceed the budget of 10000000\n")


def test_audit_mi_baseline_charges_one_budget_before_any_walk(monkeypatch, capsys):
    # the scheme walks 36 atoms and the plain baseline 9: the command is charged 45,
    # once, so a budget that either audit alone fits refuses the command unwalked
    def unexpected(*args, **kwargs):
        raise AssertionError("walked before the budget was charged")

    argv = ("audit", "--mode", "mi", "--N", "3", "--K", "2", "--L", "1", "--F", "4", "--r", "1", "--baseline")
    with monkeypatch.context() as patched:
        patched.setattr(scheme, "block_tables", unexpected)
        assert run_cli(*argv, "--budget", "36") == 3
        assert capsys.readouterr().err == ("budget error: joint-law enumeration: "
                                           "45 enumeration atoms exceed the budget of 36\n")
        assert run_cli(*argv, "--budget", "44") == 3
        capsys.readouterr()
    assert run_cli(*argv, "--budget", "45") == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_audit_ptilde_budget_counts_label_free_atoms(capsys):
    # the default family's 3 laws, each walking 12 slot tuples x 1 cover set x (2!)^2 fills,
    # charged together before the first walk; the 120 relabelings are not walked and not charged
    code = run_cli("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--budget", "100")
    assert code == 3
    assert capsys.readouterr().err == ("budget error: masked-demand law enumeration: "
                                       "144 enumeration atoms exceed the budget of 100\n")


@pytest.mark.parametrize("argv", [
    ("--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--budget", "-1"),
    ("--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--budget", "0"),
    ("--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--budget", "0"),
], ids=["ptilde-negative", "ptilde-zero", "mi-zero"])
def test_audit_budget_below_one_is_usage_error(argv, capsys):
    assert run_cli("audit", *argv) == 2
    assert capsys.readouterr().err == "usage error: --budget must be at least 1\n"


def test_gap_builds_each_envelope_once_per_triple(monkeypatch, tmp_path):
    tradeoff.achievable_envelope.cache_clear()
    tradeoff.converse_corner_envelope.cache_clear()
    real = tradeoff.Envelope
    calls = []

    def counting(points):
        calls.append(1)
        return real(points)

    monkeypatch.setattr(tradeoff, "Envelope", counting)
    assert run_cli("gap", "--sweep", "N=2..3,K=1..2", "--out", str(tmp_path / "gap.json")) == 0
    assert len(calls) == 2 * len(tradeoff.sweep_triples((2, 3), (1, 2)))


def test_gap_builds_corner_points_once_per_triple(monkeypatch, tmp_path):
    # the corner envelope and the gap certificate share one build of the corners
    for cached in (tradeoff.achievable_envelope, tradeoff.converse_corner_envelope):
        cached.cache_clear()
    build = tradeoff._corner_terms.__wrapped__
    corners = []

    def counting(*dims):
        built = build(*dims)
        corners.extend(built)
        return built

    # the counting build sits behind a cache of the real one's size, so a
    # second build per triple would be counted
    size = tradeoff._corner_terms.cache_parameters()["maxsize"]
    monkeypatch.setattr(tradeoff, "_corner_terms", functools.lru_cache(maxsize=size)(counting))
    assert run_cli("gap", "--sweep", "N=2..3,K=1..2", "--out", str(tmp_path / "gap.json")) == 0
    s_maxes = [tradeoff.max_converse_s(*dims) for dims in tradeoff.sweep_triples((2, 3), (1, 2))]
    assert len(corners) == sum(s * (s + 1) // 2 for s in s_maxes)


@pytest.mark.parametrize("argv,message", [
    (("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "0", "--r", "1"),
     "--F must be at least 1"),
    (("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "-4", "--r", "1"),
     "--F must be at least 1"),
    (("simulate", "--N", "3", "--K", "2", "--L", "1", "--r", "1", "--packet", "0"), "--packet must be at least 1"),
    (("simulate", "--N", "3", "--K", "2", "--L", "1", "--r", "1", "--packet", "-1"), "--packet must be at least 1"),
], ids=["mi-F-zero", "mi-F-negative", "simulate-packet-zero", "simulate-packet-negative"])
def test_size_below_one_names_the_option(argv, message, capsys):
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_audit_mi_bad_file_len(capsys):
    code = run_cli("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1",
                   "--q", "2", "--F", "3", "--r", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--observer", "5"),
    ("--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1", "--observer", "-1"),
    ("--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1", "--observer", "7"),
])
def test_audit_observer_out_of_range_is_usage_error(argv, capsys):
    assert run_cli("audit", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "observer out of range" in captured.err


@pytest.mark.parametrize("selector", ["0,0", "5"])
@pytest.mark.parametrize("mode", [
    ("--mode", "ptilde"),
    ("--mode", "ptilde", "--budget", "1"),
], ids=["ptilde", "ptilde-budget1"])
def test_audit_bad_selector_is_usage_error(mode, selector, capsys):
    # the slot-tuple check comes ahead of the budget
    assert run_cli("audit", *mode, "--N", "3", "--K", "2", "--L", "1", "--selector", selector) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = "(0, 0)" if selector == "0,0" else "(5,)"
    assert captured.err == f"usage error: slot tuple {shown} of user 0 is not 1 distinct slots in [0, 2)\n"


@pytest.mark.parametrize("argv,unread", [
    (("--mode", "ptilde", "--N", "3", "--K", "2", "--L", "1", "--timings", "--F", "7", "--baseline"),
     "--F, --baseline, --timings"),
    (("--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1",
      "--selector", "0", "--demands", "0;1"), "--selector, --demands"),
    # 0 is the slot tuple ptilde reads when --selector is not given
    (("--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--selector", "0"), "--selector"),
], ids=["ptilde", "mi", "mi-default-value"])
def test_audit_refuses_options_its_mode_does_not_read(argv, unread, monkeypatch, capsys):
    # refused before any work, even when the given value is the one the mode would use
    def unexpected(*args, **kwargs):
        raise AssertionError("enumerated before the options were checked")

    monkeypatch.setattr(scheme, "block_tables", unexpected)
    assert run_cli("audit", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --mode {argv[1]} does not read {unread}\n"


# The audit options every mode reads.
AUDIT_SHARED = ("--mode", "--N", "--K", "--L", "--r", "--q", "--observer", "--variant", "--out")


def test_audit_option_table_covers_the_parser():
    """Lint: every audit option is read by all modes or listed under at least
    one mode, and every listed option is one the parser has, so a mode that
    ignores an option refuses it.  A listed option is found by its name
    (dest "F" for "--F") and defaults to None, how the refusal tells that it
    was given."""
    _, commands = cli.build_parser()
    actions = {a.option_strings[-1]: a for a in commands["audit"]._actions if a.dest != "help"}
    assert tuple(cli._AUDIT_MODES) == tuple(actions["--mode"].choices)
    listed = set().union(*(opts for _, opts in cli._AUDIT_MODES.values()))
    assert not listed & set(AUDIT_SHARED)
    assert set(actions) == listed | set(AUDIT_SHARED)
    for opt in listed:
        assert actions[opt].dest == opt[2:] and actions[opt].default is None, opt


def test_tradeoff_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("tradeoff", "--N", "5", "--K", "2", "--L", "2", "--out", str(out)) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "M_num,M_den,R_num,R_den,provenance"
    assert "5,4,11,4,achievable r=1" in text
    assert "converse-envelope" in text
    assert "line s=1,lam=1,t=1" in text


def test_tradeoff_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        run_cli("tradeoff", "--N", "4", "--K", "3", "--L", "2", "--out", str(p))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("step", ["1/8", "2/5"])
def test_tradeoff_csv_lines_match_fraction_formula(step, capsys):
    # each line row holds the intercept at M = 0 and intercept + slope * N at M = N
    for n, k, big_l in tradeoff.sweep_triples((1, 6), (1, 3)):
        assert run_cli("tradeoff", "--N", str(n), "--K", str(k), "--L", str(big_l), "--lambda-step", step) == 0
        rows = [row for row in csv.reader(capsys.readouterr().out.splitlines()) if row[4].startswith("line ")]
        expected = []
        for s in range(1, tradeoff.max_converse_s(n, k, big_l) + 1):
            for lam in tradeoff.lambda_grid(Fraction(step)):
                t, intercept, slope = fraction_converse_line(n, big_l, s, lam)
                prov = f"line s={s},lam={lam},t={t}"
                for m, rate in ((0, intercept), (n, intercept + slope * n)):
                    expected.append([str(x) for x in (m, 1, rate.numerator, rate.denominator)] + [prov])
        assert rows == expected


def test_gap_single(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gap", "--N", "2", "--K", "1", "--L", "1", "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["all_passed"] is True
    entry = rep["certificates"][0]
    assert entry["within_factor_6"] is True and entry["dominance_ok"] is True


def test_gap_sweep_ordering_and_threads(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gap", "--sweep", "N=1..3,K=1..2", "--out", str(a)) == 0
    assert run_cli("gap", "--sweep", "N=1..3,K=1..2", "--threads", "1", "--out", str(b)) == 0  # the default
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    keys = [(e["N"], e["K"], e["L"]) for e in rep["certificates"]]
    assert keys == sorted(keys)
    assert len(keys) == 12  # L ranges over [1, N]


@pytest.mark.parametrize("threads", ["0", "-4", "two", "2"])
def test_gap_threads_must_be_positive(threads, capsys):
    # gap runs in one process: 1 is the only value --threads takes
    assert run_cli("gap", "--N", "2", "--K", "1", "--L", "1", "--threads", threads) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["N=3..1", "K=5..2", "N=2..3,L=4..5"])
def test_gap_empty_sweep_is_usage_error(sweep, capsys):
    assert run_cli("gap", "--sweep", sweep) == 2
    assert "no (N, K, L) triple" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, component", [("N=0..2,K=1..2", "N=0..2"), ("K=0..2", "K=0..2"),
                                              ("L=0..1", "L=0..1")], ids=["N", "K", "L"])
def test_gap_sweep_below_one_is_refused_before_any_triple_runs(sweep, component, monkeypatch, capsys):
    # refused as it is parsed: no triple is enumerated
    def forbidden(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(tradeoff, "sweep_triples", forbidden)
    assert run_cli("gap", "--sweep", sweep) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --sweep: sweep component {component!r} starts below 1\n")


@pytest.mark.parametrize("sweep", ["N=1..2,N=3..3", "K=1..2,N=2,K=3"])
def test_gap_repeated_sweep_component_is_usage_error(sweep, capsys):
    assert run_cli("gap", "--sweep", sweep) == 2
    assert "given twice" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["N=a..2", "N=1..b", "K=1.5", "N=1..2,L=x", "X=1..2", "N="])
def test_gap_malformed_sweep_component_is_usage_error(sweep, capsys):
    # a non-integer bound is reported like a bad name, not as argparse's "invalid <function> value"
    assert run_cli("gap", "--sweep", sweep) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot parse sweep component {sweep.split(',')[-1]!r}" in captured.err


@pytest.mark.parametrize("fixed", [("--N", "3"), ("--K", "2"), ("--L", "1"), ("--N", "3", "--K", "2", "--L", "1")],
                         ids=["N", "K", "L", "NKL"])
def test_gap_sweep_with_fixed_parameters_is_usage_error(fixed, capsys):
    assert run_cli("gap", "--sweep", "N=1..2", *fixed) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pass either --N/--K/--L or --sweep" in captured.err


@pytest.mark.parametrize("command", ["tradeoff", "gap"])
@pytest.mark.parametrize("step", ["1/0", "x"])
def test_lambda_step_that_is_not_a_fraction_is_usage_error(command, step, capsys):
    assert run_cli(command, "--N", "3", "--K", "2", "--L", "1", "--lambda-step", step) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot parse fraction {step!r}" in captured.err


@pytest.mark.parametrize("argv", [
    ("simulate", "--N", "3", "--K", "2", "--L", "1", "--r", "1"),
    ("audit", "--mode", "ptilde", "--N", "3", "--K", "2", "--L", "1"),
    ("tradeoff", "--N", "3", "--K", "2", "--L", "1"),
    ("gap", "--N", "3", "--K", "2", "--L", "1"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("target", ["missing-dir", "dir"])
def test_unwritable_out_is_usage_error(argv, target, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json" if target == "missing-dir" else tmp_path
    assert run_cli(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write --out {out}: ")


@pytest.mark.parametrize("decoder", ["linear", "structural"])
def test_simulate_plans_each_shape_once(monkeypatch, tmp_path, decoder):
    # KV = 12 virtual users, r = 2: two runs of one shape share one build of
    # its tables, and each broadcast's segment table holds the terms of all
    # C(12, 3) = 220 segments, built once and read by every decode
    build = ucc._shape_tables.__wrapped__
    shapes = []

    def counting(*shape):
        shapes.append(shape)
        return build(*shape)

    # the counting build sits behind a cache of the real one's size, so a
    # second build of the shape would be counted
    size = ucc._shape_tables.cache_parameters()["maxsize"]
    monkeypatch.setattr(ucc, "_shape_tables", functools.lru_cache(maxsize=size)(counting))
    real_encode = ucc.encode
    broadcasts = []

    def recording(*args):
        broadcasts.append(real_encode(*args))
        return broadcasts[-1]

    monkeypatch.setattr(ucc, "encode", recording)
    for seed in ("1", "2"):
        assert run_cli("simulate", "--N", "6", "--K", "2", "--L", "3", "--r", "2", "--decoder", decoder,
                       "--seed", seed, "--out", str(tmp_path / "t.json")) == 0
    assert shapes == [(12, 2)]
    assert len(broadcasts) == 2
    assert all(len(bc.__dict__["_terms"]) == 220 for bc in broadcasts)


def test_gap_entry_whose_certificate_fails_is_a_check_failure(monkeypatch, capsys):
    def failing(n, k, big_l):
        raise tradeoff.OptimalityGapError(f"no certificate for ({n},{k},{big_l})")

    monkeypatch.setattr(tradeoff, "gap_certificate", failing)
    assert run_cli("gap", "--N", "2", "--K", "1", "--L", "1") == 1
    (entry,) = json.loads(capsys.readouterr().out)["certificates"]
    assert entry["dominance_ok"] is True
    assert (entry["within_factor_6"], entry["passed"], entry["error"]) == (False, False, "no certificate for (2,1,1)")
    assert "max_ratio" not in entry


def test_audit_mi_timings_adds_only_the_wall_time(capsys):
    argv = ("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1")
    assert run_cli(*argv) == 0
    untimed = json.loads(capsys.readouterr().out)
    assert run_cli(*argv, "--timings") == 0
    timed = json.loads(capsys.readouterr().out)
    wall = timed.pop("wall_time_s")
    assert isinstance(wall, float) and wall >= 0
    assert timed == untimed


def test_gap_requires_params(capsys):
    assert run_cli("gap") == 2


def test_unknown_subcommand_usage_error():
    assert run_cli("frobnicate") == 2


# sha256 of stdout and the exit code of each command, recorded at a
# known-good revision: the replay contract keeps CLI output byte-identical.
REPLAY = [
    pytest.param(("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--seed", "7", "--decoder", "linear"),
                 0, "d9b72f4bbb8e5b4b9d014e88e8a857d095e9cb2f4ee7d12868f9d8f8b7648353", id="simulate-522-linear"),
    pytest.param(("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--seed", "7", "--decoder", "structural"),
                 0, "d9b72f4bbb8e5b4b9d014e88e8a857d095e9cb2f4ee7d12868f9d8f8b7648353", id="simulate-522-structural"),
    pytest.param(("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--seed", "0", "--decoder", "structural"),
                 0, "51e37434e1cd271c14a24096c406113fc3c659c705a0d086e5f84223828e569a", id="simulate-431-structural"),
    # three and four user groups: every omitted segment rebuilt by the signed identity
    pytest.param(("simulate", "--N", "6", "--K", "3", "--L", "2", "--r", "1", "--seed", "0", "--decoder", "structural"),
                 0, "5dd909d3bfc846fb556b2a9a74479decb114c4dd75e2e6a6bcd7fad77902821f", id="simulate-632-structural"),
    pytest.param(("simulate", "--N", "8", "--K", "4", "--L", "2", "--r", "2", "--seed", "0", "--decoder", "structural"),
                 0, "048d3022a559698a114ccb7d5a0ad3cad4c1f902f09c442b330d237b2e16fa97", id="simulate-842-r2-structural"),
    # the reference decoder on the signed convention: the same bytes as the structural one
    pytest.param(("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--seed", "0", "--decoder", "linear"),
                 0, "51e37434e1cd271c14a24096c406113fc3c659c705a0d086e5f84223828e569a", id="simulate-431-linear"),
    pytest.param(("simulate", "--N", "6", "--K", "3", "--L", "2", "--r", "1", "--seed", "0", "--decoder", "linear"),
                 0, "5dd909d3bfc846fb556b2a9a74479decb114c4dd75e2e6a6bcd7fad77902821f", id="simulate-632-linear"),
    pytest.param(("simulate", "--N", "8", "--K", "4", "--L", "2", "--r", "2", "--seed", "0", "--decoder", "linear"),
                 0, "048d3022a559698a114ccb7d5a0ad3cad4c1f902f09c442b330d237b2e16fa97", id="simulate-842-r2-linear"),
    pytest.param(("simulate", "--N", "6", "--K", "2", "--L", "3", "--r", "2", "--seed", "0", "--decoder", "linear"),
                 0, "f2286b9b6e1f25bc2016ea1bf29a89b847e529f20c8df385136343cc12ed67ca", id="simulate-623-linear"),
    pytest.param(("simulate", "--N", "3", "--K", "3", "--L", "1", "--r", "2", "--q", "2", "--seed", "0",
                  "--decoder", "linear"),
                 0, "c6deef521e891f479e5a31163a10fbd6fbe25f4b9a4b9fd71288b884bffecb7f", id="simulate-331-q2-linear"),
    pytest.param(("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--packet", "3", "--seed", "7",
                  "--decoder", "linear"),
                 0, "bfbeb4b2d602ba11618cfce124f4adab0ae4d657fd373c4b894383ea567711e0", id="simulate-522-packet3-linear"),
    pytest.param(("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--packet", "3", "--seed", "7",
                  "--decoder", "structural"),
                 0, "bfbeb4b2d602ba11618cfce124f4adab0ae4d657fd373c4b894383ea567711e0", id="simulate-522-packet3-structural"),
    # subfiles of two symbols under the signed convention
    pytest.param(("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--packet", "2", "--seed", "0",
                  "--decoder", "linear"),
                 0, "350a2724d3655f05c48c7073612560a19e175865a6624ef55deb34e2d49545fd", id="simulate-431-packet2-linear"),
    pytest.param(("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--packet", "2", "--seed", "0",
                  "--decoder", "structural"),
                 0, "350a2724d3655f05c48c7073612560a19e175865a6624ef55deb34e2d49545fd", id="simulate-431-packet2-structural"),
    # the signed convention at an odd field other than GF(257): three groups over GF(3)
    pytest.param(("simulate", "--N", "3", "--K", "3", "--L", "1", "--r", "1", "--q", "3", "--seed", "0",
                  "--decoder", "linear"),
                 0, "9f1e689daf8b99abee5eb665b8c3c879fb226549ce875ba150cf111caa0445dc", id="simulate-331-q3-linear"),
    pytest.param(("simulate", "--N", "3", "--K", "3", "--L", "1", "--r", "1", "--q", "3", "--seed", "0",
                  "--decoder", "structural"),
                 0, "9f1e689daf8b99abee5eb665b8c3c879fb226549ce875ba150cf111caa0445dc", id="simulate-331-q3-structural"),
    pytest.param(("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--selector", "0,2"),
                 0, "52821c53da6404f1b43e9f4b0cffc61ee092cd361c75f0f366b9c273c9212499", id="audit-ptilde"),
    pytest.param(("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2"),
                 0, "44f8d7cad1e49281d1a0d6998fa9f88030b935d9ff7918bb395162e162df3326", id="audit-ptilde-default"),
    pytest.param(("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--variant", "no-relabel"),
                 1, "6d33ba4e714206b940a428c4138cee64c93d2242da7c03c0d3de4b7339538853", id="audit-ptilde-no-relabel"),
    pytest.param(("audit", "--mode", "ptilde", "--N", "3", "--K", "3", "--L", "1"),
                 0, "1749d55a6bcb3bf21133111284059438b95541ed3fe4db43bdaa8f7dec8cfc5b", id="audit-ptilde-331"),
    pytest.param(("audit", "--mode", "ptilde", "--N", "4", "--K", "2", "--L", "2", "--selector", "1,0",
                  "--variant", "plain"),
                 1, "465900177c976923cec5a6cfd84db44467704c63273463c1128f88769c44fc1e", id="audit-ptilde-422-plain"),
    # 1,728,000 support vectors per law, decided on the label-pattern classes
    pytest.param(("audit", "--mode", "ptilde", "--N", "5", "--K", "3", "--L", "2", "--budget", "100000000"),
                 0, "dea060cab2ca24c85410d3a32d0e0522517eef439997b734f0cd8dcbe410757b", id="audit-ptilde-532"),
    # the same bytes at the default budget: 3 laws x 86,400 walked atoms = 259,200 are charged, not x 5!
    pytest.param(("audit", "--mode", "ptilde", "--N", "5", "--K", "3", "--L", "2"),
                 0, "dea060cab2ca24c85410d3a32d0e0522517eef439997b734f0cd8dcbe410757b", id="audit-ptilde-532-default-budget"),
    # laws of 9,953,280 and 2,985,984 label-free atoms, each walked at one of its 120 or 36 cover sets:
    # 2 x 82,944 = 165,888 walked atoms are charged
    pytest.param(("audit", "--mode", "ptilde", "--N", "11", "--K", "4", "--L", "1"),
                 0, "afc927eff5a02ae91cd513b2d68cced9264ae1d61b41a395dfc9e1bd44873139", id="audit-ptilde-1141"),
    # laws of 13,685,760 and 3,732,480 label-free atoms at the default budget: 2 x 82,944 = 165,888
    # walked atoms are charged, one of 165 or 45 cover sets per law
    pytest.param(("audit", "--mode", "ptilde", "--N", "12", "--K", "4", "--L", "1"),
                 0, "5ceaa2dd04fe6e570d6ac5e3fc204f48c5527746b21a54aec7db06d60f0a7c2d", id="audit-ptilde-1241"),
    pytest.param(("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1",
                  "--baseline"),
                 0, "5b7f193be0182808456a08db9a8e6d87e8dec094e631b48a582b20bfe24cd739", id="audit-mi-baseline"),
    pytest.param(("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1",
                  "--observer", "1", "--baseline"),
                 0, "52741797814a1737878228dd18dfcda8afaea572c21196d4c504a525c1dda289", id="audit-mi-observer1-baseline"),
    # baseline MI 1.5849625007211563 = log2(3) correctly rounded: a non-round float summed with math.fsum
    pytest.param(("audit", "--mode", "mi", "--N", "3", "--K", "2", "--L", "1", "--q", "2", "--F", "2", "--r", "0",
                  "--baseline"),
                 0, "e9771516d468bab04bb7ae63b97307f7b6c7770b6064cf39df86cd0e0c39ca97", id="audit-mi-321-r0-baseline"),
    # 257^12 libraries: certified from the observer's tag alone, the baseline leaks log_257(3)
    pytest.param(("audit", "--mode", "mi", "--N", "3", "--K", "2", "--L", "1", "--F", "4", "--r", "1", "--baseline"),
                 0, "f70dffda3186420e0783843f49f6a90ffe0bb5f77a7cf97f736e7425082a2ff4", id="audit-mi-321-q257-baseline"),
    # six relabelings, zero MI
    pytest.param(("audit", "--mode", "mi", "--N", "3", "--K", "2", "--L", "1", "--q", "2", "--F", "2", "--r", "0"),
                 0, "8e594430d447a2f489fbbe0c25ebe1d345a325bec3be5f69505cc7c8a9a047c5", id="audit-mi-321-r0"),
    # 24 relabelings, three users: zero MI from the (tag, class, own row) counts
    pytest.param(("audit", "--mode", "mi", "--N", "4", "--K", "3", "--L", "1", "--F", "36", "--r", "2"),
                 0, "e0ef3c577e98a6620c5bab72514fddf2b5d28f8db71ebfcb37c58d0768777cc7", id="audit-mi-431-r2"),
    # 27,000 walked joint atoms at the default budget (162,000 over every cover set); the 5!
    # relabelings are not charged
    pytest.param(("audit", "--mode", "mi", "--N", "5", "--K", "3", "--L", "1", "--F", "36", "--r", "2"),
                 0, "943f93deac44ce5930b6f5114030f0151255f9caa89778bc7ed94c1abe8686fe", id="audit-mi-531-r2"),
    # 216,000 walked of 7,776,000 label-free joint atoms; a matrix requesting 1, 2 or 3 files walks one
    # of 36, 8 or 1 cover sets
    pytest.param(("audit", "--mode", "mi", "--N", "10", "--K", "3", "--L", "1", "--F", "1", "--r", "0"),
                 0, "c49a79f194dc105a8f805ae6dbf4be166b14085705b4f5b2afec47197d410d08", id="audit-mi-1031-r0"),
    # K = 1, L = N: a slot tuple and a masked demand have the same length
    pytest.param(("audit", "--mode", "mi", "--N", "3", "--K", "1", "--L", "3", "--q", "2", "--F", "1", "--r", "0",
                  "--baseline"),
                 1, "0d965c48009c1f398cbb407d545c2ef790850bbcad367218ed844485a41a8301", id="audit-mi-313-r0-baseline"),
    # a leak the CLI prints, seen by observer 2, whose peers are not contiguous among the demand matrices
    pytest.param(("audit", "--mode", "mi", "--N", "4", "--K", "3", "--L", "1", "--F", "1", "--r", "0",
                  "--variant", "no-relabel", "--observer", "2"),
                 1, "8c9865da7732b6d48f605e64390bee0bff7880c595a3cd701d5dbc9ac1309e97",
                 id="audit-mi-431-r0-no-relabel-observer2"),
    pytest.param(("gap", "--N", "5", "--K", "2", "--L", "2"),
                 0, "1ae39da33a425714a93ce9061d086fe5b2245d9d4ffb2c373df9560269f862be", id="gap"),
    # all 144 triples at a non-default grid and lambda step
    pytest.param(("gap", "--sweep", "N=1..8,K=1..4", "--grid", "41", "--lambda-step", "2/7"),
                 0, "00b3f632eb0cfaeb3d40125e076a16d14ad0c9293497d715f4bd557495b15fd4", id="gap-sweep-grid41-step2-7"),
    # all 144 triples at the default grid and lambda step
    pytest.param(("gap", "--sweep", "N=1..8,K=1..4"),
                 0, "fbbf6b68ef2414c31cf46b617f866ea9ba2f75e6964c91d7cd6e30e1aa386a8b", id="gap-sweep-default"),
    pytest.param(("tradeoff", "--N", "5", "--K", "2", "--L", "2"),
                 0, "cb2f811b42c9d56ef1a61315cf727bec7f1c599eae6ce30dc2e138564771ec3f", id="tradeoff"),
    # lambda on thirds: lines with non-dyadic intercepts and slopes
    pytest.param(("tradeoff", "--N", "8", "--K", "4", "--L", "2", "--lambda-step", "1/3"),
                 0, "932e0483f9216cbff5c587b1535337b1882f4aedff3971f0ff9084e07ac4963b", id="tradeoff-842-step1-3"),
    # K * n_active = 4096 placement knobs: binomials of 4096 and a ~250-digit max ratio
    pytest.param(("gap", "--N", "128", "--K", "32", "--L", "17"),
                 0, "bdff2bf4a2a97c13e05126861fd47a265cacdbd680dac44198fd25cc916bce14", id="gap-128-32-17"),
    pytest.param(("tradeoff", "--N", "64", "--K", "16", "--L", "8"),
                 0, "2460ac519b7c3d10b28ebab72e9b25871c5f11aefb81218709f91f9e96aed9cf", id="tradeoff-64-16-8"),
    # 12 lines over s = 1..3 on the non-dyadic lambda grid 0, 2/5, 4/5, 1
    pytest.param(("tradeoff", "--N", "6", "--K", "3", "--L", "2", "--lambda-step", "2/5"),
                 0, "2caccabdae8405df1c2a113521a233e8308b441112ed0a50a22ae8d60b8cdff2", id="tradeoff-632-step2-5"),
    # (s, t) = (1, 1) is the only corner, so M = 0 is the only audited memory
    pytest.param(("gap", "--N", "1", "--K", "1", "--L", "1"),
                 0, "37b1c192f4ef0b2e2285d041d99d884ee3060e038603cd48da16652a022c7122", id="gap-111"),
]


@pytest.mark.parametrize("argv,code,digest", REPLAY)
def test_replay_contract_stdout_digests(argv, code, digest, capsys):
    assert run_cli(*argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _replay(name):
    """(argv, exit code, stdout sha256) of the REPLAY entry with this id."""
    (param,) = [p for p in REPLAY if p.id == name]
    return param.values


def _replay_digest(name):
    _, code, digest = _replay(name)
    return code, digest


def _stdout_digest(capsys):
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the JSON writer prints exactly what json.dumps(indent=2, sort_keys=True) does
# ---------------------------------------------------------------------------


def _json_dumps_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _outcome(write, obj):
    try:
        return write(obj)
    except Exception as exc:  # the type is the outcome when json raises
        return type(exc)


_json_leaves = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(max_value=-2 ** 64, min_value=-2 ** 200),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.text(st.characters(blacklist_categories=())),  # control, surrogate, non-BMP
    st.sampled_from(["", "\n", "\t\"\\", "\x00\x1f\x7f", "\u2028", "\U0001f600", "\ud800"]),
)
_json_keys = st.one_of(st.text(st.characters(blacklist_categories=())), st.integers(), st.none())
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.dictionaries(_json_keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_json_values)
@example({"x": {1: [], "y": 2}})  # non-str keys below an indented level
@example({"a": 1, 2: "b"})  # mixed keys: both raise TypeError
@example([[], {}, (), "", True, None, -0.0, float("nan")])
# literal leaves at the top and below a key, beside the floats and ints equal to them
@example(True)
@example(False)
@example(None)
@example([])
@example(())
@example({})
@example(1.0)
@example(0.0)
@example({"t": True, "f": False, "n": None, "l": [], "u": (), "d": {}, "one": 1.0, "zero": 0.0, "i": 1, "o": 0})
@example([type("ListSubclass", (list,), {})(), type("DictSubclass", (dict,), {})()])  # empty subclasses
def test_json_writer_matches_json_dumps(obj):
    assert _outcome(cli._json_text, obj) == _outcome(_json_dumps_text, obj)


@pytest.mark.parametrize("argv,code,digest", REPLAY)
def test_replay_reports_print_as_json_dumps_does(argv, code, digest, monkeypatch, capsys):
    writer = cli._json_text
    reports = []

    def recording(obj):
        reports.append(obj)
        return _json_dumps_text(obj)

    monkeypatch.setattr(cli, "_json_text", recording)
    assert run_cli(*argv) == code
    assert _stdout_digest(capsys) == digest  # the old writer still gives the recorded bytes
    assert len(reports) == (0 if argv[0] == "tradeoff" else 1)
    for obj in reports:
        assert writer(obj) == _json_dumps_text(obj)


# ---------------------------------------------------------------------------
# one parser per process, holding no state between commands
# ---------------------------------------------------------------------------


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "privcache":
            built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run_cli("tradeoff", "--N", "2", "--K", "1", "--L", "1") == 0
    assert run_cli("gap", "--N", "2", "--K", "1", "--L", "1") == 0
    assert len(built) == 1


def test_cached_parser_forgets_appended_demands(capsys):
    assert run_cli("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--demands", "0,1;2,3") == 0
    capsys.readouterr()
    code, digest = _replay_digest("audit-ptilde-default")
    assert run_cli("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2") == code
    assert _stdout_digest(capsys) == digest


def test_cached_parser_recovers_from_a_usage_error(capsys):
    assert run_cli("simulate", "--N", "5", "--K", "2", "--decoder", "gauss") == 2
    capsys.readouterr()
    code, digest = _replay_digest("simulate-522-structural")
    assert run_cli("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--seed", "7",
                   "--decoder", "structural") == code
    assert _stdout_digest(capsys) == digest


# ---------------------------------------------------------------------------
# one parse per command: the command's own parser reads its argv, and the
# top-level parser is left only help and usage errors
# ---------------------------------------------------------------------------


def _top_level_parse(argv):
    return cli.build_parser()[0].parse_args(argv)


PARSE_CORPUS = [
    *(pytest.param(p.values[0], id=p.id) for p in REPLAY),
    # the benchmark's gap, law and mi ops
    pytest.param(("gap", "--N", "8", "--K", "4", "--L", "2", "--grid", "101", "--lambda-step", "1/8",
                  "--threads", "1"), id="bench-gap"),
    pytest.param(("audit", "--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--selector", "3,1",
                  "--demands", "0,4;2,0"), id="bench-law"),
    pytest.param(("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1",
                  "--baseline"), id="bench-mi"),
    pytest.param(("gap", "--N", "2", "--K", "1", "--L", "1", "--bogus"), id="unknown-option"),
    pytest.param(("tradeoff", "--N", "2", "--K", "1", "--L", "1", "extra", "words"), id="trailing-words"),
    pytest.param(("gap", "--", "--N", "2"), id="double-dash"),
    pytest.param(("simulate", "--N", "5", "--K", "2", "--L", "2"), id="missing-option"),
    pytest.param(("simulate", "--N", "5", "--K", "2", "--L", "2", "--r", "1", "--decoder", "gauss"), id="bad-choice"),
    pytest.param(("frobnicate", "--N", "2"), id="unknown-command"),
    pytest.param(("--N", "2", "gap"), id="option-before-command"),
    pytest.param((), id="empty"),
    pytest.param(("-h",), id="top-level-help"),
    pytest.param(("gap", "-h"), id="command-help"),
    pytest.param(("gap", "--N", "2", "--h"), id="command-help-abbreviated"),
    pytest.param(("tradeoff", "--N", "3", "--K", "2", "--L", "1", "--lambda", "1/2"), id="abbreviated-option"),
    pytest.param(("gap", "--N", "9", "--N", "2", "--K", "1", "--L", "1"), id="option-twice"),
]


def _outcome_of_main(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", PARSE_CORPUS)
def test_one_parse_matches_the_top_level_parse(argv, monkeypatch, capsys):
    ours = _outcome_of_main(argv, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_argv", _top_level_parse)
        assert ours == _outcome_of_main(argv, capsys)
    try:
        expected = _top_level_parse(list(argv))
    except SystemExit:
        with pytest.raises(SystemExit):
            cli._parse_argv(list(argv))
    else:
        assert cli._parse_argv(list(argv)) == expected
        assert expected.command == argv[0]


def test_commands_never_reach_the_top_level_parser(monkeypatch, capsys):
    top, _ = cli.build_parser()
    real = argparse.ArgumentParser.parse_known_args

    def guarded(self, *args, **kwargs):
        if self is top:
            raise AssertionError("the top-level parser read an argv")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", guarded)
    for name in ("simulate-431-structural", "audit-ptilde", "audit-mi-baseline", "gap", "tradeoff"):
        argv, code, digest = _replay(name)
        assert run_cli(*argv) == code, name
        assert _stdout_digest(capsys) == digest, name
    # words the command's parser leaves over go to the top-level parser for its usage error
    with pytest.raises(AssertionError, match="top-level parser"):
        run_cli("gap", "--N", "2", "--K", "1", "--L", "1", "--bogus")


# ---------------------------------------------------------------------------
# cost of the front end: no pool import, no cyclic garbage per command
# ---------------------------------------------------------------------------


def _source_tree_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_import_loads_no_process_pool():
    probe = ("import sys, privcache.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=_source_tree_env(), capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def test_python_m_privcache_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "privcache", "gap", "--N", "2", "--K", "1", "--L", "1"],
                         env=_source_tree_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["all_passed"] is True


def test_python_m_privcache_parses_sys_argv(monkeypatch, capsys):
    # main(None) reads sys.argv[1:]; one help width for both processes
    monkeypatch.setenv("COLUMNS", "80")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "privcache", *argv], env=_source_tree_env(),
                              capture_output=True, text=True)

    argv, code, digest = _replay("simulate-522-structural")
    out = run(*argv)
    assert out.returncode == code, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest
    bad = ("gap", "--N", "2", "--K", "1", "--L", "1", "--bogus")
    out = run(*bad)
    assert run_cli(*bad) == out.returncode == 2
    assert (out.stdout, out.stderr) == capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--decoder", "structural"),
    ("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--format", "csv"),
    ("audit", "--mode", "ptilde", "--N", "4", "--K", "2", "--L", "2", "--selector", "1,0"),
    ("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1"),
    ("gap", "--N", "3", "--K", "2", "--L", "1"),
    ("tradeoff", "--N", "3", "--K", "2", "--L", "1"),
], ids=["simulate-json", "simulate-csv", "audit-ptilde", "audit-mi", "gap", "tradeoff"])
def test_command_leaves_no_cyclic_garbage(argv, capsys):
    assert run_cli(*argv) == 0  # warm: parser and caches built
    gc.collect()
    gc.disable()
    try:
        assert run_cli(*argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
