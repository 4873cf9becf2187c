"""Dispatch layer and command-line front end, exercised in process."""

import argparse
import io
import json

import numpy as np
import pytest

from aarlcp import (
    AffineSolutionQ,
    DispatchError,
    MarketModel,
    UncertainLcpM,
    UncertainLcpQ,
    auto_pathway,
    dispatch_solve,
    generate_random,
    parse_instance,
    serialize_instance,
    solve_enumeration,
)
from aarlcp import mip, reporting
from aarlcp.cli import _build_parser, main
from aarlcp.instances import GENERATOR_KINDS, KINDS, REGIMES
from aarlcp.reporting import PATHWAYS, SCHEMA_VERSION
from test_robust_q import _lemke_recheck_fails

MULTI = UncertainLcpQ(m=np.array([[4.0, 10.0], [1.0, 2.0]]),
                      qbar=np.array([-100.0, -22.0]),
                      ubar=np.array([1.0, 1.0]), h=0)

WORKED_M = UncertainLcpM(m0=np.array([[4.0, 1.0], [0.0, 4.0]]),
                         perturbations=[np.array([[0.0, 1.0], [0.0, 0.0]])],
                         q=np.array([-8.0, -16.0]), h=0)

MARKET = MarketModel(
    costs=[1.0, 2.0], technology=[[1.0, 1.0]], capacity=[-10.0],
    demand_matrix=[[1.0, 1.0]], sensitivity=[[-1.0]], demand=[5.0],
    demand_halfwidth=[0.5])

# mip route with no exact fallback: one certain coordinate, indefinite m
BIG_M_CAVEAT = UncertainLcpQ(m=np.array([[0.0, -1.0], [-1.0, 0.0]]),
                             qbar=np.array([-1.0, -1.0]),
                             ubar=np.array([1.0, 0.0]), h=0)


# ---------------------------------------------------------------- dispatch


def test_auto_pathway_selection():
    psd = UncertainLcpQ(m=np.eye(2), qbar=np.zeros(2),
                        ubar=np.array([1.0, 0.0]), h=0)
    assert auto_pathway(psd) == "psd-lp"  # psd wins even with certain rows
    assert auto_pathway(MULTI) == "enumeration"
    assert auto_pathway(BIG_M_CAVEAT) == "mip"
    wide = UncertainLcpQ(m=np.eye(25) - 2 * np.ones((25, 25)),
                         qbar=np.zeros(25), ubar=np.ones(25), h=2)
    assert auto_pathway(wide) == "mip"  # 23 adjustable coordinates


def test_dispatch_enumeration_report():
    report = dispatch_solve(MULTI)
    assert report.kind == "uncertain-q"
    assert report.pathway == "enumeration"
    assert report.status == "solution"
    assert report.uniqueness == "multiple"
    assert report.exit_code() == 0
    assert report.timing_seconds >= 0
    for rec in report.solutions:
        assert rec.verification.overall
    supports = {tuple(rec.index_sets["J"]) for rec in report.solutions}
    assert (1,) in supports and (2,) in supports  # reported 1-based


def test_report_json_schema():
    doc = dispatch_solve(MULTI).to_json()
    assert doc["schema"] == 1
    assert doc["status"] == "solution"
    text = json.dumps(doc)  # must be plain-JSON serializable
    assert json.loads(text)["pathway"] == "enumeration"
    sol = doc["solutions"][0]
    assert set(sol) >= {"r", "d", "index_sets", "verification"}
    assert isinstance(sol["d"][0], list)
    assert all(c["passed"] for c in sol["verification"]["checks"])


def test_dispatch_market_report():
    report = dispatch_solve(MARKET)
    assert report.kind == "market"
    assert report.pathway == "psd-lp"  # nsd sensitivity makes the lcp psd
    assert report.status == "solution"
    info = report.market_info
    assert info["h"] == 0 and info["n_producers"] == 2
    assert info["permutation"] == [1, 2, 3, 4]
    doc, text = report.to_json(), report.to_text()
    assert doc["market"]["h"] == 0
    assert doc["market"]["permutation"] == [1, 2, 3, 4]
    assert "market:    h=0 permutation=[1, 2, 3, 4]" in text
    assert doc["psd"] == {"P": [1, 4], "L": [2, 3]}  # 1-based
    assert "psd:       P=[1, 4] L=[2, 3]" in text


def test_dispatch_uncertain_m_report():
    report = dispatch_solve(WORKED_M)
    assert report.kind == "uncertain-m"
    assert report.pathway == "uncertain-m"
    assert report.status == "solution"
    rec = report.solutions[0]
    assert rec.solution.r == pytest.approx([1.0, 4.0], abs=1e-9)
    assert rec.solution.d == pytest.approx(np.array([[-1.0], [0.0]]), abs=1e-9)


def test_dispatch_singular_support_caveat():
    inst = UncertainLcpM(m0=np.array([[0.0, 0.0], [0.0, 1.0]]),
                         perturbations=[np.zeros((2, 2))],
                         q=np.array([-1.0, -1.0]), h=0)
    report = dispatch_solve(inst)
    assert report.singular_supports  # 1-based supports that were skipped
    assert [1] in report.singular_supports
    assert report.to_json()["singular_supports"] == report.singular_supports
    assert (f"singular supports (characterization unavailable): "
            f"{report.singular_supports}") in report.to_text()
    assert report.caveat is not None
    assert report.status == "no-solution"
    assert report.exit_code() == 2


def test_dispatch_big_m_caveat_exit_two():
    report = dispatch_solve(BIG_M_CAVEAT)
    assert report.status == "no-solution"
    assert report.caveat is not None
    assert report.exit_code() == 2


def test_dispatch_pathway_override_rejected():
    with pytest.raises(DispatchError) as err:
        dispatch_solve(MULTI, "psd-lp")
    assert err.value.is_input and not err.value.is_limit


@pytest.mark.parametrize("inst, pathway", [
    (MULTI, "uncertain-m"),
    *((WORKED_M, p) for p in ("enumeration", "psd-lp", "mip")),
])
def test_dispatch_rejects_the_other_kinds_pathway(inst, pathway):
    with pytest.raises(DispatchError) as err:
        dispatch_solve(inst, pathway)
    assert err.value.is_input and err.value.pathway == pathway


def test_dispatch_node_limit_is_limit_error(monkeypatch):
    text = generate_random("uncertain-q", n=6, seed=0)
    inst = parse_instance(text)
    inst.ubar[0] = 0.0  # keeps the exact fallback out of reach
    monkeypatch.setattr(mip, "NODE_LIMIT", 1)
    with pytest.raises(DispatchError) as err:
        dispatch_solve(inst)
    assert err.value.is_limit


def test_options_validate_pathway():
    with pytest.raises(DispatchError) as err:
        dispatch_solve(MULTI, "simplex")
    assert err.value.is_input and isinstance(err.value.cause, ValueError)
    assert "unknown pathway 'simplex'" in str(err.value)


def test_dispatch_unverified_rule_is_limit_error(tmp_path, capsys, monkeypatch):
    # a pathway that hands back a rule failing verification is a solver
    # fault: dispatch refuses to report it
    bad = AffineSolutionQ(d=np.zeros((2, 2)), r=np.zeros(2))  # w(0) = qbar < 0
    monkeypatch.setattr(reporting, "solve_enumeration", lambda inst: [bad])
    with pytest.raises(DispatchError) as err:
        dispatch_solve(MULTI, "enumeration")
    assert err.value.is_limit and err.value.pathway == "enumeration"
    path = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    assert main(["solve", path]) == 4
    assert "fails verification" in capsys.readouterr().err


# --------------------------------------------------------------------- cli


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_solve_text(tmp_path, capsys):
    path = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "status:" in out and "solution" in out
    assert "enumeration" in out
    assert "J=[1]" in out and "J=[2]" in out


def test_cli_solve_json(tmp_path, capsys):
    path = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    assert main(["solve", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1 and doc["status"] == "solution"


def test_cli_report_subcommand(tmp_path, capsys):
    # the JSON report is solve --json; there is no report subcommand
    path = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    assert main(["solve", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pathway"] == "enumeration"
    assert main(["report", path]) == 3
    assert "invalid choice: 'report'" in capsys.readouterr().err


def test_cli_solve_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(MULTI)))
    assert main(["solve", "-", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "solution"


def test_cli_solve_no_solution_exit_one(tmp_path, capsys):
    pd = UncertainLcpQ(m=np.array([[1.0, 0.5], [0.5, 1.0]]),
                       qbar=np.array([-5.0, -3.0]),
                       ubar=np.array([1.0, 1.0]), h=0)
    path = _write(tmp_path, "pd.txt", serialize_instance(pd))
    assert main(["solve", path]) == 1
    assert "no-solution" in capsys.readouterr().out


def test_cli_uncertain_m_near_threshold_exit_one(tmp_path, capsys):
    # the full-support rule dips to z_0 = -1.5e-8 on the box: the sweep
    # must reject it rather than hand dispatch a rule that fails
    # verification
    inst = UncertainLcpM(m0=np.eye(2),
                         perturbations=[np.array([[0.0, 1.0], [0.0, 0.0]])],
                         q=np.array([-1.0, -1.000000015]), h=0)
    path = _write(tmp_path, "near.txt", serialize_instance(inst))
    assert main(["solve", path]) == 1
    assert "no-solution" in capsys.readouterr().out


def test_cli_big_m_caveat_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "caveat.txt", serialize_instance(BIG_M_CAVEAT))
    assert main(["solve", path]) == 2
    assert "big-M" in capsys.readouterr().out


def test_cli_input_errors_exit_three(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.txt")]) == 3
    bad = _write(tmp_path, "bad.txt", "kind mystery\n")
    assert main(["solve", bad]) == 3
    multi = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    assert main(["solve", multi, "--pathway", "psd-lp"]) == 3
    # the node budget is mip.NODE_LIMIT, not a flag
    assert main(["solve", multi, "--pathway", "mip", "--node-limit", "1"]) == 3
    assert main(["solve", multi, "--json", "--pathway", "simplex"]) == 3
    assert main(["market-build", multi, "--artificial-halfwidth", "1"]) == 3
    nan_sol = _write(tmp_path, "nan.txt", "kind solution-q\nn 1\nr\nnan\nd\n1\n")
    assert main(["verify", multi, nan_sol]) == 3
    assert main(["nonsense"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err and "non-finite" in err


def test_cli_node_limit_exit_four(tmp_path, capsys, monkeypatch):
    inst = parse_instance(generate_random("uncertain-q", n=6, seed=0))
    inst.ubar[0] = 0.0
    path = _write(tmp_path, "limit.txt", serialize_instance(inst))
    monkeypatch.setattr(mip, "NODE_LIMIT", 1)
    assert main(["solve", path]) == 4
    assert "limit" in capsys.readouterr().err


def _assert_mip_falls_back(tmp_path, capsys, inst):
    # the nominal rule fails, the big-M search finds nothing, and the
    # enumeration fallback answers with enumeration's first rule
    path = _write(tmp_path, "inst.txt", serialize_instance(inst))
    assert main(["solve", path, "--pathway", "mip", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mip"]["fallback_used"] is True and doc["mip"]["nodes"] >= 1
    rule = doc["solutions"][0]
    expected = solve_enumeration(inst)[0]
    np.testing.assert_allclose(rule["d"], expected.d, rtol=1e-12)
    np.testing.assert_allclose(rule["r"], expected.r, rtol=1e-12)


def test_cli_scaled_worked_example_mip_falls_back(tmp_path, capsys):
    # (qbar, ubar) scaled by 1e9: the search spends 8 nodes in vain
    inst = parse_instance(generate_random("uncertain-q", 2, seed=21))
    scaled = UncertainLcpQ(m=inst.m, qbar=1e9 * inst.qbar,
                           ubar=1e9 * inst.ubar, h=inst.h)
    _assert_mip_falls_back(tmp_path, capsys, scaled)


def test_cli_default_big_m_misses_a_rule_mip_falls_back(tmp_path, capsys):
    # unit-scale data: default_big_m (about 2412) cuts off the one rule
    # that enumeration finds, and the root LP is already infeasible
    inst = parse_instance(generate_random("uncertain-q", 4, seed=103))
    _assert_mip_falls_back(tmp_path, capsys, inst)


def test_cli_numerical_trouble_exit_four(tmp_path, capsys, monkeypatch):
    # a stalled simplex is a limit of the solver, not a fault in the input
    def stalled(*args, **kwargs):
        raise RuntimeError("phase-1 simplex stalled numerically")

    monkeypatch.setattr("aarlcp.mip.check_feasibility", stalled)
    # the rule its nominal solution names fails, so the search runs
    path = _write(tmp_path, "search.txt", generate_random("uncertain-q", 3, seed=4))
    assert main(["solve", path, "--pathway", "mip"]) == 4
    assert "phase-1 simplex stalled numerically" in capsys.readouterr().err


def test_cli_failed_lemke_recheck_exit_four(tmp_path, capsys):
    # Lemke solves the singular instance's nominal LCP, and its point
    # fails its own recheck: numerical trouble reported as a limit with
    # its reason
    singular, scaled = _lemke_recheck_fails()
    path = _write(tmp_path, "singular.txt", serialize_instance(singular))
    assert main(["solve", path, "--pathway", "psd-lp"]) == 4
    assert "pivoting produced M z + q with entry" in capsys.readouterr().err
    # the positive definite instance alone: block pivoting's point passes
    # the recheck, and the verdict is the unit-scale one, no-solution
    path = _write(tmp_path, "scaled.txt", serialize_instance(scaled))
    assert main(["solve", path, "--pathway", "psd-lp"]) == 1


def test_cli_overflowed_lemke_ray_exit_four(tmp_path, capsys):
    # PSD by is_psd, but Lemke's tableau overflows before it reaches a
    # ray: that ray proves nothing, so the solve is a limit, not a
    # nonexistence verdict
    inst = UncertainLcpQ(m=np.array([[9e278, -0.02, -2e214],
                                     [-0.02, 8e-282, 0.0],
                                     [-2e214, 0.0, 1.2e151]]),
                         qbar=np.array([-4e78, -2e243, 3e54]), ubar=np.ones(3))
    path = _write(tmp_path, "overflow.txt", serialize_instance(inst))
    with np.errstate(all="ignore"):
        assert main(["solve", path]) == 4
    assert "psd-lp: lemke tableau holds inf or NaN at a ray" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_cli_big_m_overflow_exit_four(tmp_path, capsys):
    # the overflowed-ray instance on the mip pathway: the nominal rule
    # proves nothing, and the big-M of its scale exceeds the float range,
    # a limit with its reason and no numpy warning
    inst = UncertainLcpQ(m=np.array([[9e278, -0.02, -2e214],
                                     [-0.02, 8e-282, 0.0],
                                     [-2e214, 0.0, 1.2e151]]),
                         qbar=np.array([-4e78, -2e243, 3e54]), ubar=np.ones(3))
    path = _write(tmp_path, "overflow.txt", serialize_instance(inst))
    assert main(["solve", path, "--pathway", "mip"]) == 4
    assert "mip: default big-M overflows" in capsys.readouterr().err


def test_cli_choices_come_from_their_owners():
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, dest):
        return next(a.choices for a in commands[command]._actions if a.dest == dest)

    assert choices("gen", "kind") == GENERATOR_KINDS
    assert set(GENERATOR_KINDS) <= set(KINDS)
    assert choices("gen", "regime") == REGIMES
    assert choices("solve", "pathway") == PATHWAYS
    assert set(commands) == {"solve", "verify", "gen", "market-build"}


def test_cli_gen_deterministic(capsys):
    assert main(["gen", "uncertain-q", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "uncertain-q", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert first == generate_random("uncertain-q", n=3, seed=7)
    parse_instance(first)


def test_cli_gen_to_file(tmp_path, capsys):
    out = str(tmp_path / "gen.txt")
    assert main(["gen", "market", "4", "--k", "2", "--seed", "3",
                 "-o", out]) == 0
    capsys.readouterr()
    inst = parse_instance(open(out).read())
    assert isinstance(inst, MarketModel)


def test_cli_verify_round_trip(tmp_path, capsys):
    inst_path = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    sol = solve_enumeration(MULTI)[0]
    sol_path = _write(tmp_path, "sol.txt", serialize_instance(sol))
    assert main(["verify", inst_path, sol_path]) == 0
    assert "verified" in capsys.readouterr().out

    sol.r[0] += 0.1  # break the active row identity
    bad_path = _write(tmp_path, "bad_sol.txt", serialize_instance(sol))
    assert main(["verify", inst_path, bad_path]) == 1
    assert "NOT verified" in capsys.readouterr().out


def test_cli_verify_json(tmp_path, capsys):
    inst_path = _write(tmp_path, "m.txt", serialize_instance(WORKED_M))
    sol_path = _write(tmp_path, "s.txt", serialize_instance(
        solve_enumeration_m_first()))
    assert main(["verify", inst_path, sol_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] is True
    assert all(c["passed"] for c in doc["checks"])
    # the verify document is the schema header plus the block a solve
    # report writes for the same rule
    assert (doc.pop("schema"), doc.pop("kind")) == (SCHEMA_VERSION, "verification")
    rec = dispatch_solve(WORKED_M).solutions[0]
    assert np.array_equal(rec.solution.d, solve_enumeration_m_first().d)
    assert doc == json.loads(json.dumps(rec.to_json()["verification"]))
    assert all("worst_point" in c for c in doc["checks"])


def solve_enumeration_m_first():
    from aarlcp import solve_enumeration_m
    return solve_enumeration_m(WORKED_M)[0]


def test_cli_verify_kind_mismatch(tmp_path, capsys):
    inst_path = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    sol_path = _write(tmp_path, "s.txt", serialize_instance(
        solve_enumeration_m_first()))
    assert main(["verify", inst_path, sol_path]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_market_build(tmp_path, capsys):
    mk_path = _write(tmp_path, "mk.txt", serialize_instance(MARKET))
    out = str(tmp_path / "uq.txt")
    assert main(["market-build", mk_path, "-o", out]) == 0
    assert "wrote" in capsys.readouterr().out
    built = parse_instance(open(out).read())
    assert isinstance(built, UncertainLcpQ)
    assert built.n == 4

    # without -o the instance text itself lands on stdout
    assert main(["market-build", mk_path]) == 0
    streamed = capsys.readouterr().out
    assert isinstance(parse_instance(streamed), UncertainLcpQ)


def test_cli_verify_market_rule_in_permuted_coordinates(tmp_path, capsys):
    # a market's rule lives in the LCP that market-build writes
    mk_path = _write(tmp_path, "mk.txt", serialize_instance(MARKET))
    rule = dispatch_solve(MARKET).solutions[0].solution
    sol_path = _write(tmp_path, "sol.txt", serialize_instance(rule))
    assert main(["verify", mk_path, sol_path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verified"


def test_cli_market_build_rejects_other_kinds(tmp_path, capsys):
    path = _write(tmp_path, "multi.txt", serialize_instance(MULTI))
    assert main(["market-build", path]) == 3
    assert "market-build expects a market instance file" in capsys.readouterr().err


def test_cli_solve_rejects_solution_file(tmp_path, capsys):
    sol_path = _write(tmp_path, "sol.txt",
                      serialize_instance(solve_enumeration(MULTI)[0]))
    assert main(["solve", sol_path]) == 3
