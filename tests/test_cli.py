"""CLI contract tests: exit codes, file formats, determinism."""

import argparse
import csv
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
    real = scheme.realizations
    passes = []

    def counting(params, demands, *args):
        passes.append(demands)
        return real(params, demands, *args)

    def expanded(*args, **kwargs):
        raise AssertionError("full masked-demand law expanded")

    monkeypatch.setattr(scheme, "realizations", counting)
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
    # q = 257, F = 4: 257^12 libraries, never enumerated; 72 atoms are charged
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
    # 6^4 matrices x 4^4 slot tuples x C(5,3) covers x (3!)^4 fills; no relabeling or library factor
    assert capsys.readouterr().err == ("budget error: joint-law enumeration: "
                                       "4299816960 enumeration atoms exceed the budget of 10000000\n")


def test_audit_ptilde_budget_counts_label_free_atoms(capsys):
    # the first law of the default family: 12 slot tuples x 3 covers x (2!)^2 fills,
    # the atoms the law visits; the 120 relabelings are not walked and not charged
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
    real = tradeoff.lower_convex_envelope
    calls = []

    def counting(points):
        calls.append(1)
        return real(points)

    monkeypatch.setattr(tradeoff, "lower_convex_envelope", counting)
    assert run_cli("gap", "--sweep", "N=2..3,K=1..2", "--out", str(tmp_path / "gap.json")) == 0
    assert len(calls) == 2 * len(tradeoff.sweep_triples((2, 3), (1, 2)))


def test_gap_builds_corner_points_once_per_triple(monkeypatch, tmp_path):
    # the corner envelope and the gap certificate share one build of the corners
    for cached in (tradeoff.achievable_envelope, tradeoff.converse_corner_envelope, tradeoff.corner_points):
        cached.cache_clear()
    real = tradeoff.TradeoffPoint
    corners = []

    def counting(m, rate, provenance):
        if provenance.startswith("corner"):
            corners.append(provenance)
        return real(m, rate, provenance)

    monkeypatch.setattr(tradeoff, "TradeoffPoint", counting)
    assert run_cli("gap", "--sweep", "N=2..3,K=1..2", "--out", str(tmp_path / "gap.json")) == 0
    s_maxes = [tradeoff.max_converse_s(*dims) for dims in tradeoff.sweep_triples((2, 3), (1, 2))]
    assert len(corners) == sum(s * (s + 1) // 2 for s in s_maxes)


def test_audit_mi_bad_file_len(capsys):
    code = run_cli("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1",
                   "--q", "2", "--F", "3", "--r", "1")
    assert code == 2


def test_audit_empirical(tmp_path):
    out = tmp_path / "e.json"
    code = run_cli("audit", "--mode", "empirical", "--N", "3", "--K", "2", "--L", "1",
                   "--runs", "2000", "--seed", "5", "--out", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True and rep["dof"] == 11


@pytest.mark.parametrize("argv", [
    ("--mode", "ptilde", "--N", "5", "--K", "2", "--L", "2", "--observer", "5"),
    ("--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800", "--observer", "-1"),
    ("--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800", "--observer", "7"),
])
def test_audit_observer_out_of_range_is_usage_error(argv, capsys):
    assert run_cli("audit", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "observer out of range" in captured.err


def test_audit_empirical_with_several_demand_matrices_is_usage_error(capsys):
    # only one matrix is audited, so a second one is refused rather than dropped
    assert run_cli("audit", "--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800",
                   "--demands", "0;1", "--demands", "0;2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --mode empirical audits one demand matrix, got 2 --demands\n"


def test_audit_empirical_with_one_support_point_is_usage_error(monkeypatch, capsys):
    # (1, 1, 1) has one restricted demand vector: no chi-square test, checked before any draw
    def unexpected(*args, **kwargs):
        raise AssertionError("sampled before the support size was checked")

    monkeypatch.setattr(scheme, "sampler", unexpected)
    assert run_cli("audit", "--mode", "empirical", "--N", "1", "--K", "1", "--L", "1", "--runs", "10") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: the chi-square test needs at least two support points, got 1\n"


@pytest.mark.parametrize("selector", ["0,0", "5"])
@pytest.mark.parametrize("mode", [
    ("--mode", "ptilde"),
    ("--mode", "ptilde", "--budget", "1"),
    ("--mode", "empirical", "--runs", "800"),
], ids=["ptilde", "ptilde-budget1", "empirical"])
def test_audit_bad_selector_is_usage_error(mode, selector, capsys):
    # one slot-tuple check for both modes, ahead of the budget
    assert run_cli("audit", *mode, "--N", "3", "--K", "2", "--L", "1", "--selector", selector) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = "(0, 0)" if selector == "0,0" else "(5,)"
    assert captured.err == f"usage error: slot tuple {shown} of user 0 is not 1 distinct slots in [0, 2)\n"


@pytest.mark.parametrize("argv,unread", [
    (("--mode", "ptilde", "--N", "3", "--K", "2", "--L", "1", "--runs", "5", "--F", "7", "--baseline"),
     "--F, --baseline, --runs"),
    (("--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1",
      "--selector", "0", "--demands", "0;1"), "--selector, --demands"),
    (("--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800", "--budget", "5", "--timings"),
     "--budget, --timings"),
    (("--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--seed", "0"), "--seed"),
], ids=["ptilde", "mi", "empirical", "mi-default-value"])
def test_audit_refuses_options_its_mode_does_not_read(argv, unread, monkeypatch, capsys):
    # refused before any work, even when the given value is the one the mode would use
    def unexpected(*args, **kwargs):
        raise AssertionError("enumerated before the options were checked")

    monkeypatch.setattr(scheme, "realizations", unexpected)
    monkeypatch.setattr(scheme, "sampler", unexpected)
    assert run_cli("audit", *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --mode {argv[1]} does not read {unread}\n"


def test_audit_option_table_covers_the_parser():
    """Lint: every audit option is read by all modes or listed under at least
    one mode, and every listed option is one the parser has, so a mode that
    ignores an option refuses it.  A listed option is found by its name
    (dest "F" for "--F") and defaults to None, how the refusal tells that it
    was given."""
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.option_strings[-1]: a for a in subparsers.choices["audit"]._actions if a.dest != "help"}
    assert tuple(cli._AUDIT_MODES) == tuple(actions["--mode"].choices)
    listed = set().union(*(opts for _, opts in cli._AUDIT_MODES.values()))
    assert not listed & set(cli._AUDIT_SHARED)
    assert set(actions) == listed | set(cli._AUDIT_SHARED)
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
    assert run_cli("gap", "--sweep", "N=1..3,K=1..2", "--threads", "2", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    keys = [(e["N"], e["K"], e["L"]) for e in rep["certificates"]]
    assert keys == sorted(keys)
    assert len(keys) == 12  # L ranges over [1, N]


@pytest.mark.parametrize("threads", ["0", "-4", "two"])
def test_gap_threads_must_be_positive(threads, capsys):
    assert run_cli("gap", "--N", "2", "--K", "1", "--L", "1", "--threads", threads) == 2
    assert "--threads" in capsys.readouterr().err


def test_gap_pool_is_capped_at_task_count(monkeypatch, tmp_path):
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    out = tmp_path / "g.json"
    assert run_cli("gap", "--sweep", "N=2,K=1", "--threads", "1000", "--out", str(out)) == 0
    assert pools == [2]  # (2,1,1) and (2,1,2)
    assert len(json.loads(out.read_text())["certificates"]) == 2
    assert run_cli("gap", "--sweep", "N=2,K=1", "--threads", "1", "--out", str(out)) == 0
    assert run_cli("gap", "--N", "2", "--K", "1", "--L", "1", "--threads", "8", "--out", str(out)) == 0
    assert pools == [2]


@pytest.mark.parametrize("sweep", ["N=3..1", "K=5..2", "N=2..3,L=4..5"])
def test_gap_empty_sweep_is_usage_error(sweep, capsys):
    assert run_cli("gap", "--sweep", sweep) == 2
    assert "no (N, K, L) triple" in capsys.readouterr().err


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
def test_simulate_builds_each_segment_terms_once(monkeypatch, tmp_path, decoder):
    # KV = 12 virtual users, r = 2: the broadcast's table holds the terms of
    # all C(12, 3) = 220 segments, built once and read by every decode
    real = ucc._segment_terms
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ucc, "_segment_terms", counting)
    assert run_cli("simulate", "--N", "6", "--K", "2", "--L", "3", "--r", "2", "--decoder", decoder,
                   "--out", str(tmp_path / "t.json")) == 0
    assert len(calls) == 220


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
    # the same bytes at the default budget: 86,400 label-free atoms per law are charged, not x 5!
    pytest.param(("audit", "--mode", "ptilde", "--N", "5", "--K", "3", "--L", "2"),
                 0, "dea060cab2ca24c85410d3a32d0e0522517eef439997b734f0cd8dcbe410757b", id="audit-ptilde-532-default-budget"),
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
    # 162,000 label-free joint atoms at the default budget; the 5! relabelings are not charged
    pytest.param(("audit", "--mode", "mi", "--N", "5", "--K", "3", "--L", "1", "--F", "36", "--r", "2"),
                 0, "943f93deac44ce5930b6f5114030f0151255f9caa89778bc7ed94c1abe8686fe", id="audit-mi-531-r2"),
    # K = 1, L = N: a slot tuple and a masked demand have the same length
    pytest.param(("audit", "--mode", "mi", "--N", "3", "--K", "1", "--L", "3", "--q", "2", "--F", "1", "--r", "0",
                  "--baseline"),
                 1, "0d965c48009c1f398cbb407d545c2ef790850bbcad367218ed844485a41a8301", id="audit-mi-313-r0-baseline"),
    pytest.param(("audit", "--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800"),
                 0, "63b584c0430f170815facbc693dab7f419d2ba16405740826a8aec7c991a9067", id="audit-empirical"),
    pytest.param(("audit", "--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800",
                  "--variant", "no-relabel"),
                 1, "b92ae66170e05954869adef45ad4daddd95977729849e7525d8f1f8c97228afd", id="audit-empirical-no-relabel"),
    pytest.param(("audit", "--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800",
                  "--observer", "1", "--selector", "1", "--seed", "4"),
                 0, "e1871b9242ece7175c9b7ff4ef53f42f46bf1b388d7af7da4d0f657c28989a41", id="audit-empirical-observer1"),
    pytest.param(("audit", "--mode", "empirical", "--N", "4", "--K", "2", "--L", "2", "--runs", "6000",
                  "--selector", "1,0", "--demands", "0,1;2,3", "--seed", "2"),
                 0, "e29055f85ca0be70965a629b26ef29bc19b1841dda08e5ba1bb2450d7ab75efa", id="audit-empirical-422"),
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


def _replay_digest(name):
    (param,) = [p for p in REPLAY if p.id == name]
    _, code, digest = param.values
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


@pytest.mark.parametrize("argv", [
    ("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--decoder", "structural"),
    ("simulate", "--N", "4", "--K", "3", "--L", "1", "--r", "2", "--format", "csv"),
    ("audit", "--mode", "ptilde", "--N", "4", "--K", "2", "--L", "2", "--selector", "1,0"),
    ("audit", "--mode", "mi", "--N", "2", "--K", "2", "--L", "1", "--q", "2", "--F", "4", "--r", "1"),
    ("audit", "--mode", "empirical", "--N", "3", "--K", "2", "--L", "1", "--runs", "800"),
    ("gap", "--N", "3", "--K", "2", "--L", "1"),
    ("tradeoff", "--N", "3", "--K", "2", "--L", "1"),
], ids=["simulate-json", "simulate-csv", "audit-ptilde", "audit-mi", "audit-empirical", "gap", "tradeoff"])
def test_command_leaves_no_cyclic_garbage(argv, capsys):
    assert run_cli(*argv) == 0  # warm: parser and caches built
    gc.collect()
    gc.disable()
    try:
        assert run_cli(*argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
