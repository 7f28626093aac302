import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nilcert import cli, models
from nilcert.autos import sample_h_element
from nilcert.cli import Config, list_checks, main, run
from nilcert.qlinalg import Matrix

from shared import P_DEPENDENT_SUITE, SAMPLED_CHECKS

FAST_SUITE = ["jacobi.G", "lcs.G-12-7-0", "weights.V", "thm.eigen-relations",
              "oracle.heisenberg-der6"]


def test_registry_contains_required_ids():
    ids = [cid for cid, _, _ in list_checks()]
    assert "thm.stabilizer-dim4" in ids
    assert "n.derivations-nilpotent" in ids
    assert "lcs.G-12-7-0" in ids
    assert len(ids) == len(set(ids))


def test_run_subset_passes():
    report = run(FAST_SUITE, Config())
    assert [r.id for r in report.results] == FAST_SUITE
    assert report.counts["fail"] == 0
    assert all(r.status == "pass" for r in report.results)


def test_check_durations_resolve_below_one_millisecond():
    # nilclass.G-2 reads the lower central series that lcs.G-12-7-0 cached
    report = run(["lcs.G-12-7-0", "nilclass.G-2"], Config())
    assert 0 < report.results[1].duration_ms < 1
    assert "nilclass.G-2: expected 2; got 2  (0." in report.to_text()


def test_model_build_is_not_timed_as_a_check(monkeypatch):
    def slow_model_data(p=None, build=cli.model_data):
        time.sleep(0.05)
        return build(p)

    monkeypatch.setattr(cli, "model_data", slow_model_data)
    report = run(["jacobi.G", "jacobi.N"], Config())
    assert [r.status for r in report.results] == ["pass", "pass"]
    assert report.results[0].duration_ms < 50


def test_model_build_is_not_timed_beside_a_model_free_check(monkeypatch):
    # the build runs inside jacobi.G, the one check here that reads models
    calls = []

    def slow_model_data(p=None, build=cli.model_data):
        calls.append(p)
        time.sleep(0.05)
        return build(p)

    monkeypatch.setattr(cli, "model_data", slow_model_data)
    report = run(["oracle.heisenberg-der6", "jacobi.G"], Config())
    results = {r.id: r for r in report.results}
    assert [r.status for r in results.values()] == ["pass", "pass"]
    assert results["jacobi.G"].duration_ms < 50
    assert len(calls) == 1


#: the registry ids whose checks never read the models, in registry order
MODEL_FREE = ("wedge.commutant-2", "p.sampled-nonfixing",
              "bound.eigenspace-max3", "fixed.sampled-nonzero",
              "fixed.specific-lines", "oracle.heisenberg-der6",
              "oracle.abelian-der-n2")


def test_a_suite_that_reads_no_models_does_not_build_them(monkeypatch):
    calls = []

    def no_models(p=None):
        calls.append(p)
        raise RuntimeError("the models are not available")

    monkeypatch.setattr(cli, "model_data", no_models)
    report = run(["oracle.heisenberg-der6", "oracle.abelian-der-n2"], Config())
    assert [r.status for r in report.results] == ["pass", "pass"]
    # every model-free check runs without the models
    report = run(MODEL_FREE, Config())
    assert [r.id for r in report.results] == list(MODEL_FREE)
    assert not [r.id for r in report.results if r.actual.startswith("error")]
    assert calls == []
    # and every other check reads them, so it meets the build error
    others = [cid for cid, _, _ in list_checks() if cid not in MODEL_FREE]
    report = run(others, Config())
    assert [r.actual for r in report.results] == \
        ["error: the models are not available"] * len(others)


#: sha256 of the JSON report of every check at two hook targets that no
#: model can be built for (p12 != 0, and p = 0): each check that reads the
#: models reports the build error as its own result, with status ``error``.
UNBUILDABLE_P_REPORTS = {
    (1, 0, 0, 0, 0, 0, 0):
        "565a16457464ffa3441aca1d8c7114270cf52b81890535bb38b2333790f13440",
    (0, 0, 0, 0, 0, 0, 0):
        "331594475d32a002b9a3e89fe5ff5b70ebaf0099a24a0351070c506381a509e5",
}

#: the same reports as recorded while a crashed check still read as
#: ``fail``; the models were then built inside the first check that read
#: them, as ``Context.data`` builds them again, so the statuses are all
#: that differ
CRASH_AS_FAIL_REPORTS = {
    (1, 0, 0, 0, 0, 0, 0):
        "67d9174ace684a6baf34f14f4d3a7c4f64806965a57d3ba63ccb7290f4fd77b6",
    (0, 0, 0, 0, 0, 0, 0):
        "17dc0588871349a5da6ef31d53edc5f3e25e0eab1a610681f56e68793ad888e6",
}


@pytest.mark.parametrize("p", sorted(UNBUILDABLE_P_REPORTS))
def test_an_unbuildable_p_errors_each_check_that_reads_the_models(p):
    report = run(None, Config(p=tuple(Fraction(x) for x in p)))
    errors = [r.id for r in report.results if r.actual.startswith("error: p ")]
    assert errors[:2] == ["jacobi.G", "jacobi.N"] and len(errors) >= 23
    assert all(r.status == "error" for r in report.results
               if r.id not in MODEL_FREE)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == UNBUILDABLE_P_REPORTS[p]
    # the statuses are all that moved: read each error as a failure again
    data = report.as_dict()
    for check in data["checks"]:
        if check["status"] == "error":
            check["status"] = "fail"
    data["summary"]["fail"] += data["summary"].pop("error")
    old = json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(old.encode()).hexdigest() == CRASH_AS_FAIL_REPORTS[p]


def _raising(ctx):
    raise RuntimeError("the check crashed")


def test_a_crashed_check_is_an_error_not_a_failure(monkeypatch, capsys):
    check = next(c for c in cli._REGISTRY if c.id == "jacobi.G")
    monkeypatch.setattr(check, "fn", _raising)
    report = run(["jacobi.G", "lcs.G-12-7-0", "n.der-dim-32"], Config())
    assert [r.status for r in report.results] == ["error", "pass", "fail"]
    assert report.results[0].actual == "error: the check crashed"
    assert report.counts == {"pass": 1, "fail": 1, "warn": 0, "error": 1,
                             "total": 3}
    assert json.loads(report.to_json())["summary"]["error"] == 1
    text = report.to_text()
    assert "[ERROR] jacobi.G: expected check to complete; got error: " \
        "the check crashed" in text
    assert text.endswith("3 checks: 1 passed, 1 failed, 0 warnings, "
                         "1 errors\n")
    # an error outranks a failure in the exit code
    assert main(["verify", "--suite", "jacobi.G,n.der-dim-32"]) == 3
    assert main(["verify", "--suite", "jacobi.G", "--json"]) == 3
    capsys.readouterr()
    assert main(["verify", "--suite", "lcs.G-12-7-0,n.der-dim-32"]) == 1
    out = capsys.readouterr().out
    assert "error" not in out


def test_a_report_without_errors_has_no_error_count():
    report = run(["jacobi.G", "n.der-dim-32"], Config())
    assert "error" not in report.counts
    assert "error" not in report.as_dict()["summary"]
    assert report.to_text().endswith(
        "2 checks: 1 passed, 1 failed, 0 warnings\n")


def test_a_model_build_that_raises_errors_every_check_that_reads_it(
        monkeypatch, capsys):
    calls = []

    def broken(p=None):
        calls.append(p)
        raise RuntimeError("no model today")

    monkeypatch.setattr(cli, "model_data", broken)
    report = run(None, Config(trials=5))
    reads = {cid for cid, _, _ in list_checks()} - set(MODEL_FREE)
    for r in report.results:
        if r.id in reads:
            assert (r.status, r.actual) == ("error", "error: no model today")
        else:
            assert r.status != "error"
    assert report.counts["error"] == len(reads)
    # a failed build is not kept: each reading check tries it once
    assert len(calls) == len(reads)
    assert main(["verify", "--suite", "jacobi.N,oracle.heisenberg-der6"]) == 3
    assert "[ERROR] jacobi.N" in capsys.readouterr().out


def test_a_refuting_cross_check_is_a_failure_not_an_error(monkeypatch):
    # an exact guard that refutes what a check builds on answers the check
    def refuted(p=None):
        raise models.CertificationError("3-step model failed the Jacobi "
                                        "identity on [(0, 1, 2)]")

    monkeypatch.setattr(cli, "model_data", refuted)
    report = run(["jacobi.N", "n.der-dim-32"], Config())
    assert [r.status for r in report.results] == ["fail", "fail"]
    assert "error" not in report.counts


def test_an_irrational_spectrum_fails_the_eigenspace_bound(monkeypatch):
    # (2 1; 1 1) has trace 3 and determinant 1: its eigenvalues
    # (3 +- sqrt 5)/2 are irrational, and so are their powers on V'
    element = cli.Context.element

    def irrational_at_4(self, index):
        if index == 4:
            return "hyperbolic", models.SL2Element(2, 1, 1, 1)
        return element(self, index)

    monkeypatch.setattr(cli.Context, "element", irrational_at_4)
    result, = run(["bound.eigenspace-max3"], Config()).results
    assert (result.status, result.expected, result.actual) == (
        "fail", "rational spectra for shipped samples",
        "sample 4 (hyperbolic) has an irrational real eigenvalue")


def test_an_exponential_that_is_not_unipotent_fails_its_check(monkeypatch):
    # der(N) holds derivations that are not nilpotent, so the real
    # exponential raises first; this one is I for the first three samples
    # and 2I, with eigenvalue 2, from the fourth on
    calls = []

    def doubled_from_the_fourth(dm):
        calls.append(dm)
        return Matrix.identity(dm.rows).scale(2 if len(calls) > 3 else 1)

    monkeypatch.setattr(cli, "exp_nilpotent", doubled_from_the_fourth)
    result, = run(["n.exp-unipotent"], Config()).results
    assert len(calls) == 50
    assert (result.status, result.actual) == (
        "fail", "47 failures; first: sample 3: exponential not unipotent")


def test_a_sample_without_a_fixed_vector_fails_its_check(monkeypatch):
    # twice an element of SL2 on V has no eigenvalue 1: a rational
    # hyperbolic element's are the powers a^4, a^2, 1, a^-2, a^-4 of a
    # rational a, and the others' lie on the unit circle
    action = cli.binary_form_action
    doubled = {sample_h_element(0, i)[1] for i in (6, 11)}

    def doubled_at_6_and_11(g, degree):
        m = action(g, degree)
        return m.scale(2) if g in doubled else m

    monkeypatch.setattr(cli, "binary_form_action", doubled_at_6_and_11)
    bad = [(i, sample_h_element(0, i)[0]) for i in (6, 11)]
    result, = run(["fixed.sampled-nonzero"], Config()).results
    assert (result.status, result.actual) == (
        "fail", f"no fixed vector for {bad}")


def test_a_sample_that_fixes_the_line_fails_its_check(monkeypatch):
    # the quarter turn fixes the line through p14 + 2 p25 and moves the
    # one through p14 + p25 + p45; no seeded sample fixes either line
    element = cli.Context.element

    def quarter_turn_at_5(self, index):
        if index == 5:
            return "elliptic", models.SL2Element(0, -1, 1, 0)
        return element(self, index)

    monkeypatch.setattr(cli.Context, "element", quarter_turn_at_5)
    fixed, moved = (
        run(["p.sampled-nonfixing"],
            Config(p=models.validate_p(p.split(",")))).results[0]
        for p in ("0,0,1,0,2,0,0", "0,0,1,0,1,0,1"))
    assert (fixed.status, fixed.expected, fixed.actual) == (
        "fail", "no sampled element fixes the line",
        "fixed by [(5, 'elliptic')]")
    assert (moved.status, moved.actual) == (
        "warn", "none of 100 samples fixes it (sampling cannot exhaust "
        "finite-order elliptic elements)")


def test_plus_and_minus_identity_samples_are_skipped_by_the_line_check(
        monkeypatch):
    # -I acts on the sextics of V' as (-1)^6 = 1, and I as 1: both fix
    # every line, and both act trivially on V, so the check skips them
    element = cli.Context.element
    identities = (models.SL2Element(-1, 0, 0, -1),
                  models.SL2Element(1, 0, 0, 1))

    def identities_first(self, index):
        if index < len(identities):
            return "elliptic", identities[index]
        return element(self, index)

    monkeypatch.setattr(cli.Context, "element", identities_first)
    [result] = run(["p.sampled-nonfixing"], Config()).results
    assert (result.status, result.expected, result.actual) == (
        "warn", "no sampled element fixes the line",
        "none of 100 samples fixes it (sampling cannot exhaust "
        "finite-order elliptic elements)")


def test_an_incomplete_weight_decomposition_fails_weights_v(monkeypatch):
    # s4 and s5 joined in one Jordan block of eigenvalue -2: the weight -4
    # has no eigenvector, and the eigenspaces sum to 4 of V's 5 dimensions
    jordan = Matrix.from_rows([[4, 0, 0, 0, 0], [0, 2, 0, 0, 0],
                               [0, 0, 0, 0, 0], [0, 0, 0, -2, 1],
                               [0, 0, 0, 0, -2]])
    decompose = cli.weight_decomposition
    monkeypatch.setattr(cli, "weight_decomposition",
                        lambda m, candidates: decompose(jordan, candidates))
    [result] = run(["weights.V"], Config()).results
    assert (result.status, result.expected, result.actual) == (
        "fail", "five coordinate lines, direct sum is V",
        "dims [1, 1, 1, 1, 0], complete=False")


def test_a_model_table_that_is_not_alternating_fails_the_model_checks(
        monkeypatch):
    # +h at (p12, s1) passes N's Jacobi scan; the alternation guard in the
    # build refutes it, and every check that reads the models fails
    hook_table = models.hook_table

    def plus_h(scale, hook):
        table = [list(row) for row in hook_table(scale, hook)]
        i, j = models.HOOK
        table[j][i] = table[i][j]
        return tuple(map(tuple, table))

    monkeypatch.setattr(models, "hook_table", plus_h)
    with pytest.raises(models.CertificationError,
                       match=r"3-step model's table is not alternating "
                             r"at basis pair \(0, 5\)"):
        models.build_three_step()
    report = run(None, Config(trials=5))
    reads = {cid for cid, _, _ in list_checks()} - set(MODEL_FREE)
    for r in report.results:
        if r.id in reads:
            assert r.status == "fail" and "not alternating" in r.actual
        else:
            assert r.status != "error"
    assert "error" not in report.counts


def test_run_unknown_id_raises():
    with pytest.raises(KeyError):
        run(["no.such.check"], Config())


def test_registry_order_is_preserved_regardless_of_request_order():
    fwd = run(["jacobi.G", "jacobi.N"], Config())
    rev = run(["jacobi.N", "jacobi.G"], Config())
    assert [r.id for r in fwd.results] == [r.id for r in rev.results]


def test_json_round_trip():
    report = run(FAST_SUITE, Config(trials=10))
    text = report.to_json()
    parsed = json.loads(text)
    assert parsed == report.as_dict()
    assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text


def test_json_is_deterministic_across_runs():
    cfg = Config(seed=3, trials=20)
    suite = ["jacobi.N", "p.sampled-nonfixing", "fixed.sampled-nonzero"]
    first = run(suite, cfg).to_json()
    second = run(suite, cfg).to_json()
    assert first == second


def test_json_schema_fields():
    report = run(["jacobi.G"], Config())
    data = json.loads(report.to_json())
    assert set(data) == {"version", "config", "checks", "summary"}
    assert set(data["config"]) == {"p", "seed", "trials"}
    check = data["checks"][0]
    assert set(check) == {"id", "status", "expected", "actual", "claim"}
    assert data["summary"]["total"] == 1


def test_p_override_reruns_p_dependent_checks():
    # any nonzero p inside L yields a Lie algebra; p15 alone is fine
    report = run(["jacobi.N"], Config(p=tuple(map(int, "0001000"))))
    assert report.results[0].status == "pass"


def test_exit_codes(capsys):
    assert main(["verify", "--suite", "jacobi.G,lcs.G-12-7-0"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "unknown"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "n.der-dim-32"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] n.der-dim-32" in out


def test_warn_does_not_fail_exit_code(capsys):
    assert main(["verify", "--suite", "p.sampled-nonfixing", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "[WARN]" in out


def test_invalid_p_exits_2(capsys):
    assert main(["verify", "--p", "1,0,0,0,0,0,0"]) == 2
    assert "p12" in capsys.readouterr().err
    assert main(["verify", "--p", "0,0,0"]) == 2
    capsys.readouterr()


def test_trials_below_one_exit_2(capsys):
    for trials in ("0", "-3"):
        assert main(["verify", "--suite", "p.sampled-nonfixing",
                     "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "invalid --trials" in captured.err
        assert captured.out == ""
    with pytest.raises(ValueError):
        run(["p.sampled-nonfixing"], Config(trials=0))


def test_empty_overrides_exit_2(capsys):
    # an empty --p is a malformed p, not the default one
    for argv in (["verify", "--p", "", "--suite", "jacobi.G"],
                 ["show", "N", "--p", ""]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid --p" in captured.err and captured.out == ""
    # a suite that names no check id is an error, not "all"
    for suite in (",", " , ", ""):
        assert main(["verify", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert "invalid --suite" in captured.err and "names no check id" \
            in captured.err
        assert captured.out == ""
    # in the library an empty suite still means every check
    assert run([], Config()).counts["total"] == len(list_checks())


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "thm.stabilizer-dim4" in out


#: sha256 of ``nilcert list`` stdout: every id, in registry order, with its
#: description and claim, recorded before the checks that compare one
#: string with its expected value were declared through ``_expect``
LIST_SHA256 = "8a50ec2f50ee1ce4a6f4e4c495927e85fc26cd8f4a65a0aceec3e9b9b2510732"


def test_list_is_byte_identical_to_recorded_digest(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_SHA256


def test_show_models(capsys):
    assert main(["show", "G"]) == 0
    out = capsys.readouterr().out
    assert "[s1, s2] = p12" in out
    assert "lower central series dims: 12, 7, 0" in out
    assert main(["show", "N"]) == 0
    out = capsys.readouterr().out
    assert "[s1, p12] = p13 + p45" in out
    assert "hook target p = p13 + p45" in out


#: sha256 of ``nilcert show G`` and ``nilcert show N`` stdout, recorded
#: while the algebras were still stored as their dense tensors
SHOW_SHA256 = {
    "G": "9dbf4dd4f057446949e6c493242c9563e4d4b192bceb7b8af12f3e7f7fba5e6d",
    "N": "26c8c2f5459bb859b7c58903a4bd3c7e820c4d27c7b635ea76469203cc00d5f8",
}


@pytest.mark.parametrize("name", sorted(SHOW_SHA256))
def test_show_is_byte_identical_to_recorded_digest(capsys, name):
    assert main(["show", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHOW_SHA256[name]


def test_json_flag_round_trips_through_stdout(capsys):
    assert main(["verify", "--suite", "jacobi.G", "--json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["checks"][0]["id"] == "jacobi.G"
    assert parsed["checks"][0]["status"] == "pass"


# the 30 registry ids pinned by the benchmark's verify workload, in registry
# order; copied here so that the test suite does not import the benchmark.
PINNED_SUITE = (
    "jacobi.G", "jacobi.N", "lcs.G-12-7-0", "lcs.N-12-7-1-0",
    "nilclass.G-2", "nilclass.N-3", "weights.V", "weights.Vprime",
    "ident.G", "w.invariant", "irred.V-commutant-1", "wedge.commutant-2",
    "wedge.W-Wprime-decomp", "thm.stabilizer-dim4", "thm.no-open-orbit",
    "thm.stabilizer-Wprime", "thm.eigen-relations", "der.G-dim-39",
    "der.G-decomposition", "n.der-dim-32", "n.der-decomposition",
    "n.derivations-nilpotent", "n.exp-unipotent", "p.line-stabilizer-zero",
    "p.sampled-nonfixing", "bound.eigenspace-max3", "fixed.sampled-nonzero",
    "fixed.specific-lines", "oracle.heisenberg-der6", "oracle.abelian-der-n2",
)

#: sha256 of ``verify --json`` stdout over PINNED_SUITE at seed 0, recorded
#: before the integer kernels of char_poly and rational_roots went in.  A
#: speed-up must not change a single byte of the report.
PINNED_REPORT_SHA256 = (
    "7b485556d05b271f24c650862669a86c5a674c6f49907f220b5c509781adc7c0")


def test_verify_json_is_byte_identical_to_recorded_digest(capsys):
    main(["verify", "--json", "--suite", ",".join(PINNED_SUITE), "--seed", "0"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORT_SHA256


#: sha256 of ``verify --json --suite PINNED_SUITE --seed 0 --p P`` stdout at
#: p14 + p25 + p45 (p13 = 0) and a p with both p13 and p15 nonzero, over
#: the whole suite (the p-independent checks too), recorded before
#: ``models.hook_table`` became the one writer of N's table
PINNED_SUITE_P_REPORTS = {
    "0,0,1,0,1,0,1":
        "f9c05329019cc823f850c4e8e31d4cad5daf4a6bb92b82afc3102f6c8e9180a9",
    "0,1/2,0,-2,0,3/2,0":
        "7b2f0dff9b62bae90f51e469482eee46b06545cfda12443dec81d24c5c0158e0",
}


@pytest.mark.parametrize("p", sorted(PINNED_SUITE_P_REPORTS))
def test_verify_json_over_the_pinned_suite_at_non_default_p(capsys, p):
    main(["verify", "--json", "--suite", ",".join(PINNED_SUITE), "--seed", "0",
          "--p", p])
    out = capsys.readouterr().out
    assert (hashlib.sha256(out.encode()).hexdigest()
            == PINNED_SUITE_P_REPORTS[p])


#: sha256 of ``verify --json --suite P_DEPENDENT_SUITE --p P`` stdout at a
#: sparse p (p13/2 - 2 p45), a dense p and a p with p13 = 0 (p14 + p25,
#: where every abelianization factor vanishes), recorded before the
#: structure-constant computations moved to integers.
PINNED_P_REPORTS = {
    "0,1/2,0,0,0,0,-2":
        "fe3c5ed66a0c78436f509cb1ee151e8b5ca0f6e779403fe18326846d5f47e8b7",
    "0,1,-1/2,2,-3/2,1,1/2":
        "5b46aea9954cf4634bb76ef18851e84205da534ae96fc1df940a319e2b714172",
    "0,0,1,0,1,0,0":
        "2eb6ab5249fbeb0de91af50adef15c79fd7b9561ccec64635ec619af4a5f8441",
}


@pytest.mark.parametrize("p", sorted(PINNED_P_REPORTS))
def test_verify_json_at_non_default_p_is_byte_identical(capsys, p):
    main(["verify", "--json", "--suite", ",".join(P_DEPENDENT_SUITE),
          "--p", p])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_P_REPORTS[p]


def test_sampled_checks_agree_alone_together_and_out_of_order():
    """The sampled checks share each seeded element through the context;
    a check sees the same element whichever checks ran before it."""
    from nilcert.autos import sample_action_on_V
    from nilcert.cli import _REGISTRY, Context
    from nilcert.wedgerep import induced_group_action, quotient_action

    config = Config(seed=5, trials=20)
    together = {r.id: r.as_dict() for r in run(SAMPLED_CHECKS, config).results}
    for cid in SAMPLED_CHECKS:
        assert run([cid], config).results[0].as_dict() == together[cid]
    ctx = Context(config)
    fns = {c.id: c.fn for c in _REGISTRY}
    for cid in reversed(SAMPLED_CHECKS):
        status, expected, actual = fns[cid](ctx)
        assert [status, expected, actual] == [
            together[cid][k] for k in ("status", "expected", "actual")]
    fresh = Context(config)
    kind, g = fresh.element(7)
    assert (kind, models.binary_form_action(g, 4)) == sample_action_on_V(5, 7)
    assert models.binary_form_action(g, 6) == quotient_action(
        induced_group_action(sample_action_on_V(5, 7)[1]), fresh.data.W)
    assert fresh.element(7) is fresh.element(7)


#: sha256 of ``verify --json --suite PINNED_SUITE --seed S`` stdout at two
#: nonzero seeds, recorded before sampled elements were built as binary
#: forms: the sampled checks draw different elements at every seed.
PINNED_SEED_REPORTS = {
    7: "cdaff3dfefbd30fda1fd1919a6bc204ec73c6af73b2e901c19b4755e3dd3a194",
    12345: "065bbdf8509f7cd61f3f41b1b26e4c12064437e073d58a68821177c95705e3fb",
}


@pytest.mark.parametrize("seed", sorted(PINNED_SEED_REPORTS))
def test_verify_json_at_non_default_seed_is_byte_identical(capsys, seed):
    main(["verify", "--json", "--suite", ",".join(PINNED_SUITE),
          "--seed", str(seed)])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SEED_REPORTS[seed]


#: each rejected --p is also given to ``models.validate_p`` as text
P_READERS = pytest.mark.parametrize("reader", ["cli", "validate_p"])


@P_READERS
@pytest.mark.parametrize("p, message", [
    ("0,1,0,0,0,0,1,", "p needs 7 coordinates"),
    ("0,1,0,0,0,0", "p needs 7 coordinates"),
    (",0,1,0,0,0,0,1", "p needs 7 coordinates"),
    ("0,1,,0,0,0,1", "the p14 coordinate is empty"),
    ("0,1,0,0,0,0, ", "the p45 coordinate is empty"),
])
def test_p_with_a_wrong_count_or_an_empty_part_exits_2(capsys, p, message,
                                                       reader):
    assert_p_rejected(capsys, p, message, reader)


@P_READERS
@pytest.mark.parametrize("p, message", [
    ("0,1/0,0,0,0,0,0", "the p13 coordinate '1/0' has a zero denominator"),
    ("0,1,0,0,0,0,-3/0", "the p45 coordinate '-3/0' has a zero denominator"),
    ("0,nan,0,0,0,0,0", "the p13 coordinate 'nan' is not a rational number"),
    ("0,1,0,inf,0,0,1", "the p15 coordinate 'inf' is not a rational number"),
    ("0,1,0,0,1 / 2,0,1", "the p25 coordinate '1 / 2' is not a rational"),
    ("0,1,x,0,0,1/0,1", "the p14 coordinate 'x' is not a rational number"),
    # outside the JSON loader's grammar, although Fraction() reads them
    ("0,1_0,0,0,0,0,1", "the p13 coordinate '1_0' is not a rational number"),
    ("0,\u0663,0,0,0,0,1",
     "the p13 coordinate '\u0663' is not a rational number"),
    ("0,1,0,0,0,0,1e3", "the p45 coordinate '1e3' is not a rational number"),
    ("0,+1,0,0,0,0,1", "the p13 coordinate '+1' is not a rational number"),
    ("0,1,0,0.5,0,0,1", "the p15 coordinate '0.5' is not a rational number"),
])
def test_p_with_a_coordinate_that_is_not_rational_exits_2(capsys, p, message,
                                                          reader):
    assert_p_rejected(capsys, p, message, reader)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit bound before Python 3.10.7")
def test_p_with_more_digits_than_int_reads_exits_2(capsys):
    bound = sys.get_int_max_str_digits()
    digits = "1" * (bound + 700)
    for reader in ("cli", "validate_p"):
        assert_p_rejected(capsys, f"0,{digits},0,0,0,0,1",
                          f"the p13 coordinate '1111111111111111'... "
                          f"({bound + 700} characters) has a part of "
                          f"{bound + 700} digits, more than the {bound} that "
                          f"sys.get_int_max_str_digits() lets int() read",
                          reader)
    for argv in (["show", "N", "--p", f"0,1/{digits},0,0,0,0,1"],
                 ["verify", "--suite", "jacobi.N", "--p",
                  f"0,1,-{digits},0,0,0,1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "digits, more than the" in err and len(err) < 300


def assert_p_rejected(capsys, p, message, reader):
    if reader == "validate_p":
        # the library reads the split text as --p does: the same message,
        # and only through a ValueError
        with pytest.raises(ValueError) as caught:
            models.validate_p(p.split(","))
        assert message in str(caught.value)
        assert "Fraction" not in str(caught.value)
        return
    for argv in (["verify", "--p", p, "--suite", "jacobi.N"],
                 ["show", "N", "--p", p]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid --p: ")
        assert message in captured.err and "Fraction" not in captured.err
        assert captured.out == ""


def test_python_m_nilcert_is_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    args = ["verify", "--json", "--suite", "oracle.heisenberg-der6"]
    procs = [subprocess.run([sys.executable, "-m", module, *args],
                            capture_output=True, timeout=60, env=env)
             for module in ("nilcert", "nilcert.cli")]
    assert procs[0].returncode == procs[1].returncode == 0, procs[0].stderr
    assert procs[0].stdout == procs[1].stdout
    assert b'"oracle.heisenberg-der6"' in procs[0].stdout
    # importing the package does not run, or load, the entry point
    code = "import sys, nilcert; print('nilcert.__main__' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.stdout.strip() == "False", proc.stderr


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this tree's ``src`` on its path; its
    output as text."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})


def test_cli_import_loads_neither_dataclasses_nor_typing():
    """Each verify is a fresh process: the start-up of ``nilcert.cli``
    pulls in no stdlib machinery that no check uses.  ``-S`` keeps site
    hooks, which may import typing themselves, out of the measurement."""
    code = ("import sys, nilcert.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    proc = fresh_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: a probe registered before ``main`` runs after ``main``'s exit hook, since
#: exit hooks run last in, first out; it prints ``report()`` to stderr
EXIT_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print(report(), file=sys.stderr))
from nilcert.cli import main
"""


def test_main_freezes_the_heap_at_exit():
    """A fresh process ends with every object in the permanent
    generation, which CPython's shutdown collections skip."""
    proc = fresh_python("-c", EXIT_PROBE + "report = gc.get_freeze_count\n"
                        "main(['list'])")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) > 0


def test_main_freezes_nothing_while_it_runs_or_after(capsys):
    before = gc.get_freeze_count()
    main(["list"])
    main(["verify", "--json", "--suite", "jacobi.G"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_main_registers_its_exit_hook_once_per_process():
    """``atexit._ncallbacks()`` also counts hooks unregistered since, so a
    stand-in for ``gc.freeze`` counts the hook's calls at exit instead."""
    code = EXIT_PROBE + """\
calls = []
freeze = gc.freeze
gc.freeze = lambda: calls.append(freeze())
report = calls.__len__
main(['list'])
main(['list'])
"""
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) == 1


def test_the_report_is_complete_before_the_exit_hook_runs():
    proc = fresh_python("-m", "nilcert", "verify", "--json", "--suite",
                        ",".join(PINNED_SUITE), "--seed", "0")
    assert proc.returncode == 1, proc.stderr  # the n.* checks fail by design
    assert (hashlib.sha256(proc.stdout.encode()).hexdigest()
            == PINNED_REPORT_SHA256)
