"""Command line: exit codes, artifact schemas, determinism, worked values."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from clawlab import cli
from clawlab.cli import main


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main(args)


def read_csv_rows(path):
    """Comment header lines, then the column header, then data rows."""
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return comments, header, rows


def test_riemann_writes_valid_fan(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"u_l": -1.0, "u_r": 1.0})
    assert run(["riemann", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    fan = json.loads((tmp_path / "o" / "fan.json").read_text())
    assert fan["left_state"] == -1.0
    assert fan["right_state"] == 1.0
    assert [w["kind"] for w in fan["waves"]] == ["rarefaction"]


def test_flux_flag_reaches_artifacts(tmp_path):
    out = tmp_path / "o"
    assert run(["delta-audit", "--out", str(out), "--flux", "cosh"]) == 0
    comments, _, _ = read_csv_rows(out / "delta_audit.csv")
    assert "# flux=cosh" in comments


def test_missing_required_field_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"u_l": 1.0})
    assert run(["riemann", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_key_exits_2_and_names_the_path(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {"initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0, "bogus": 1}},
    )
    assert run(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "initial" in err


def test_config_file_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["riemann", "--config", str(bad)]) == 2
    assert run(["riemann", "--config", str(tmp_path / "absent.json")]) == 2
    arr = write_cfg(tmp_path, "arr.json", [1, 2])
    assert run(["riemann", "--config", arr]) == 2


def test_unknown_flux_and_fixture_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"u_l": 1.0, "u_r": 0.0})
    assert run(["riemann", "--config", cfg, "--flux", "quartic"]) == 2
    fix = write_cfg(
        tmp_path, "f.json", {"initial": {"kind": "fixture", "name": "nope"}}
    )
    assert run(["evolve", "--config", fix, "--out", str(tmp_path / "o")]) == 2


def test_nan_state_exits_2(tmp_path, capsys):
    # json reads NaN; the band check must reject it like any other bad state
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {"initial": {"kind": "piecewise", "xs": [-0.5, 0.5], "us": [0.0, float("nan"), 0.0]},
         "t_end": 0.5},
    )
    assert run(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "nan" in capsys.readouterr().err


@pytest.mark.parametrize("us", [[0.0, float("nan"), 0.0], [float("nan"), 1.0, 0.0]])
def test_nan_state_gives_one_message_wherever_it_sits(tmp_path, capsys, us):
    # the band radius used to skip or keep the NaN depending on its position
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {"initial": {"kind": "piecewise", "xs": [-0.5, 0.5], "us": us}, "t_end": 0.5},
    )
    assert run(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: state nan is not a finite number\n"


RIEMANN_01 = {"kind": "riemann", "u_l": 0.0, "u_r": 1.0}
SHOCK_10 = {"kind": "riemann", "u_l": 1.0, "u_r": 0.0}

# one passing config per subcommand, and one check that fails
CONTRACT_RUNS = [
    ("riemann", {"u_l": 1.0, "u_r": 0.0}, [], 0),
    ("family", {"u_l": -1.0, "u_r": 1.0, "members": 4}, [], 0),
    ("evolve", {"initial": RIEMANN_01, "t_end": 1.0, "delta_u": 0.5}, [], 0),
    ("ep", {"initial": {"kind": "fixture", "name": "two_shock_merge"}}, [], 0),
    ("rate-compare", {"u_l": -1.0, "u_r": 1.0, "members": 4}, [], 0),
    ("econd", {"initial": RIEMANN_01, "t_end": 1.0}, [], 0),
    ("hopflax", {"initial": SHOCK_10, "t": 0.5, "n_samples": 5}, [], 0),
    (
        "fv",
        {"initial": {"kind": "fixture", "name": "single_shock"}, "n_cells": 120,
         "n_list": [50, 100, 200], "delta_u": 0.002},
        [],
        0,
    ),
    (
        "splice",
        {"initial": RIEMANN_01, "mode": "as_given", "t_end": 1.0,
         "domain": {"t1": 0.25, "t2": 1.0, "delta": 0.3}},
        [],
        0,
    ),
    ("delta-audit", {"count": 3}, [], 0),
    ("ep", {"initial": SHOCK_10, "t_end": 1.0}, ["--tol-ep", "1e-30"], 3),
]


@pytest.mark.parametrize(
    "command, payload, extra, code",
    CONTRACT_RUNS,
    ids=[f"{c}-exit{code}" for c, _, _, code in CONTRACT_RUNS],
)
def test_output_contract(tmp_path, capsys, command, payload, extra, code):
    """stdout announces each artifact once, in write order, and reports checks."""
    cfg = write_cfg(tmp_path, "c.json", payload)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)] + extra) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    announced = [ln[len("wrote "):] for ln in lines if ln.startswith("wrote ")]
    assert sorted(announced) == sorted(str(p) for p in out.iterdir())
    assert len(set(announced)) == len(announced)
    mtimes = [Path(p).stat().st_mtime_ns for p in announced]
    assert mtimes == sorted(mtimes)
    others = [ln for ln in lines if not ln.startswith("wrote ")]
    assert others
    for ln in others:
        assert re.fullmatch(r"\[(PASS|FAIL)\] [a-z0-9_]+: .+|events=\d+", ln), ln
    failed = any(ln.startswith("[FAIL]") for ln in others)
    assert (code == 0) == (not failed)
    if code == 3:
        assert captured.err == "check failed: ep_dual_evaluation\n"
    else:
        assert captured.err == ""


def test_unknown_command_raises_parser_exit():
    with pytest.raises(SystemExit):
        run(["transmogrify"])


def test_ep_two_shock_merge_worked_value(tmp_path):
    cfg = write_cfg(
        tmp_path, "c.json", {"initial": {"kind": "fixture", "name": "two_shock_merge"}}
    )
    out = tmp_path / "o"
    assert run(["ep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "ep_summary.json").read_text())
    assert summary["total_abs"] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert summary["total_kinetic"] == pytest.approx(5.0 / 6.0, abs=1e-10)
    assert summary["total_delta_h1"] == pytest.approx(5.0 / 6.0, abs=1e-10)
    comments, header, rows = read_csv_rows(out / "ledger.csv")
    assert header == [
        "front_id", "t_start", "t_end", "u_minus", "u_plus", "sigma",
        "D", "absD", "Delta",
    ]
    assert len(rows) == 3  # two shocks to the merge, one after
    assert any(c.startswith("# flux=") for c in comments)


def test_ep_window_restricts_the_ledger(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "fixture", "name": "two_shock_merge"},
            "window": {"t_hi": 1.0},
        },
    )
    out = tmp_path / "o"
    assert run(["ep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "ep_summary.json").read_text())
    assert summary["total_abs"] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_ep_tolerance_flag_can_force_failure(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {"initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0}, "t_end": 1.0},
    )
    args = ["ep", "--config", cfg, "--out", str(tmp_path / "o")]
    assert run(args) == 0
    assert run(args + ["--tol-ep", "1e-30"]) == 3


def test_family_artifacts_are_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"u_l": -1.0, "u_r": 1.0, "members": 8})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["family", "--config", cfg, "--out", str(a), "--seed", "3"]) == 0
    assert run(["family", "--config", cfg, "--out", str(b), "--seed", "3"]) == 0
    for name in ("family.json", "family_ep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c"
    assert run(["family", "--config", cfg, "--out", str(c), "--seed", "4"]) == 0
    assert (a / "family.json").read_bytes() != (c / "family.json").read_bytes()


def test_family_roster_labels(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"u_l": 0.0, "u_r": 2.0, "members": 6})
    out = tmp_path / "o"
    assert run(["family", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "family.json").read_text())
    labels = [m["label"] for m in payload]
    assert labels[0] == "entropic"
    assert payload[0]["ep_rate"] == 0.0
    assert all(m["ep_rate"] > 0.0 for m in payload[1:])


def test_rate_compare_selects_entropic(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"u_l": -1.0, "u_r": 1.0, "members": 10})
    out = tmp_path / "o"
    assert run(["rate-compare", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "rate_summary.json").read_text())
    assert summary["minimizer"]["label"] == "entropic"
    assert summary["minimizer"]["ep_rate"] == 0.0
    assert summary["identical_ranking"] is True
    _, header, rows = read_csv_rows(out / "rate_table.csv")
    assert header == ["label", "ep_rate", "P", "Hdot", "is_minimizer"]
    flags = [r[-1] for r in rows]
    assert flags.count("true") == 1


def test_evolve_writes_trajectory_and_fronts(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0},
            "t_end": 1.0,
            "delta_u": 0.5,
        },
    )
    out = tmp_path / "o"
    assert run(["evolve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trajectory.jsonl").read_text().splitlines()
    snaps = [json.loads(ln) for ln in lines]
    assert snaps[0]["time"] == 0.0
    assert len(snaps[0]["positions"]) == 2  # two staircase fragments
    _, header, rows = read_csv_rows(out / "fronts.csv")
    assert header == ["t", "x", "u_left", "u_right", "sigma", "kind"]
    t0_rows = [r for r in rows if float(r[0]) == 0.0]
    assert len(t0_rows) == 2
    assert all(r[5] == "rarefaction_fragment" for r in t0_rows)


def test_evolve_rejects_non_weak_expansion_hold(tmp_path):
    # held expansion shock is a weak solution, so as_given passes
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "riemann", "u_l": -0.5, "u_r": 0.5},
            "mode": "as_given",
            "t_end": 1.0,
        },
    )
    assert run(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_evolve_over_zero_time_exits_2_naming_the_span(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "c.json", {"initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0}, "t_end": 0.0}
    )
    assert run(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "spanning positive time, got [0.0, 0.0]" in err
    assert "bt" not in err


def test_econd_expectation_semantics(tmp_path):
    ent = write_cfg(
        tmp_path,
        "ent.json",
        {"initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0}, "t_end": 1.0},
    )
    held = write_cfg(
        tmp_path,
        "held.json",
        {
            "initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0},
            "t_end": 1.0,
            "mode": "as_given",
        },
    )
    out = str(tmp_path / "o")
    assert run(["econd", "--config", ent, "--out", out]) == 0
    assert run(["econd", "--config", held, "--out", out]) == 3
    bad = write_cfg(
        tmp_path,
        "bad.json",
        {
            "initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0},
            "t_end": 1.0,
            "expect": "maybe",
        },
    )
    assert run(["econd", "--config", bad, "--out", out]) == 2
    report = json.loads((tmp_path / "o" / "econd.json").read_text())
    assert report["expect"] in ("pass", "fail")
    assert report["reports"][0]["holds"] in (True, False)


def test_econd_expect_fail_on_violator_passes(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0},
            "t_end": 1.0,
            "mode": "as_given",
            "expect": "fail",
        },
    )
    assert run(["econd", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_splice_reduces_ep_and_stays_weak(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0},
            "mode": "as_given",
            "t_end": 1.0,
            "domain": {"t1": 0.25, "t2": 1.0, "delta": 0.3},
        },
    )
    out = tmp_path / "o"
    assert run(["splice", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "splice_summary.json").read_text())
    assert summary["ep_after"] < summary["ep_before"]
    assert summary["weak_residual"] <= 1e-7
    assert (out / "trajectory.jsonl").exists()
    assert (out / "fronts.csv").exists()


def test_out_of_memory_exits_1_with_one_line_and_no_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._DISPATCH, "evolve", exhausted)
    cfg = write_cfg(tmp_path, "c.json", {"initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0}})
    assert run(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "out of memory: evolve\n"
    assert "Traceback" not in captured.out + captured.err


def test_splice_domain_validation(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0},
            "t_end": 1.0,
            "domain": {"t1": 0.25, "t2": 2.0, "delta": 0.3},
        },
    )
    assert run(["splice", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    missing = write_cfg(
        tmp_path,
        "m.json",
        {"initial": {"kind": "riemann", "u_l": 0.0, "u_r": 1.0}, "t_end": 1.0},
    )
    assert run(["splice", "--config", missing, "--out", str(tmp_path / "o")]) == 2


def test_fv_checks_and_convergence(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "fixture", "name": "single_shock"},
            "n_cells": 120,
            "n_list": [50, 100, 200],
            "delta_u": 0.002,
        },
    )
    out = tmp_path / "o"
    assert run(["fv", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "fv_summary.json").read_text())
    assert summary["mass_drift"] <= 1e-9
    assert summary["total_numerical_ep"] < 0.0
    assert summary["fitted_order"] >= 0.5
    study = json.loads((out / "fv_convergence.json").read_text())
    assert study["n_cells"] == [50, 100, 200]
    assert len(study["l1_error"]) == 3
    _, header, rows = read_csv_rows(out / "fv_snapshots.csv")
    assert header == ["t", "x_center", "u"]
    assert len(rows) == 120


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fv_over_zero_time_runs_no_step(tmp_path):
    cfg = write_cfg(
        tmp_path, "c.json", {"initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0}, "t_end": 0.0}
    )
    out = tmp_path / "o"
    assert run(["fv", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "fv_summary.json").read_text())
    assert summary["steps"] == 0
    assert summary["mass_drift"] == 0.0


def test_delta_audit_default_pair(tmp_path):
    out = tmp_path / "o"
    assert run(["delta-audit", "--out", str(out)]) == 0
    _, header, rows = read_csv_rows(out / "delta_audit.csv")
    assert header == [
        "u_minus", "u_plus", "sigma", "D", "delta_kinetic", "delta_chord", "ratio",
    ]
    assert len(rows) == 1
    assert float(rows[0][0]) == 1.0 and float(rows[0][1]) == 0.0
    assert float(rows[0][4]) == pytest.approx(1.0 / (6.0 * np.sqrt(5.0)), abs=1e-12)
    assert float(rows[0][6]) == pytest.approx(5.0, abs=1e-12)
    info = json.loads((out / "delta_audit.json").read_text())
    assert info["n_pairs"] == 1


def test_delta_audit_seeded_pairs_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"count": 7})
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["delta-audit", "--config", cfg, "--out", str(a), "--seed", "9"]) == 0
    assert run(["delta-audit", "--config", cfg, "--out", str(b), "--seed", "9"]) == 0
    assert (a / "delta_audit.csv").read_bytes() == (b / "delta_audit.csv").read_bytes()
    _, _, rows = read_csv_rows(a / "delta_audit.csv")
    assert len(rows) == 7


def test_delta_audit_rejects_half_pair(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"u_l": 1.0})
    assert run(["delta-audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_hopflax_shock_compare(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "c.json",
        {
            "initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0},
            "t": 0.5,
            "n_samples": 5,
            "x_lo": -1.0,
            "x_hi": 1.0,
        },
    )
    out = tmp_path / "o"
    assert run(["hopflax", "--config", cfg, "--out", str(out)]) == 0
    compare = json.loads((out / "hopflax_compare.json").read_text())
    assert compare["l1_distance"] <= 5e-3
    _, header, rows = read_csv_rows(out / "hopflax_samples.csv")
    assert header == ["x", "t", "g", "u"]
    assert len(rows) == 5


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("evolve", {"initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0}, "t_end": float("nan")},
         "t_end"),
        ("ep", {"initial": {"kind": "fixture", "name": "two_shock_merge"},
                "window": {"t_lo": float("nan"), "t_hi": 1.0}}, "window.t_lo"),
        ("ep", {"initial": {"kind": "fixture", "name": "two_shock_merge"},
                "window": {"x_hi": float("inf")}}, "window.x_hi"),
        ("riemann", {"u_l": float("-inf"), "u_r": 0.0}, "u_l"),
        ("riemann", {"u_l": 1.0, "u_r": 0.0, "tolerances": {"ep": float("nan")}},
         "tolerances.ep"),
        ("evolve", {"initial": {"kind": "riemann", "u_l": 1.0, "u_r": 0.0}, "t_end": 10**400},
         "t_end"),
    ],
)
def test_non_finite_float_key_exits_2_with_one_message(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: config key '{key}' must be a finite number\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag, key", [("--tol-ep", "tolerances.ep"), ("--delta-u", "delta_u")])
def test_non_finite_flag_exits_2_with_the_config_key_message(tmp_path, capsys, flag, key, value):
    # --tol-ep inf used to pass every EP check, and --tol-ep nan to fail them all
    cfg = write_cfg(tmp_path, "c.json", {"initial": {"kind": "fixture", "name": "two_shock_merge"}})
    assert run(["ep", "--config", cfg, "--out", str(tmp_path / "o"), flag, value]) == 2
    assert capsys.readouterr().err == f"config error: config key '{key}' must be a finite number\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("econd", {"initial": RIEMANN_01, "t_end": 1.0, "times": [0.5, float("nan")]},
         "times[1]"),
        ("fv", {"initial": SHOCK_10, "t_end": 0.5, "n_cells": 50,
                "snapshot_times": [float("nan")]}, "snapshot_times[0]"),
        ("delta-audit", {"pairs": [[1.0, 0.0], [0.5, float("nan")]]}, "pairs[1][1]"),
    ],
)
def test_non_finite_list_entry_exits_2_with_one_message(tmp_path, capsys, command, cfg, key):
    path = write_cfg(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: config key '{key}' must be a finite number\n"
    assert not (tmp_path / "o").exists()


UNSORTED = {"kind": "piecewise", "xs": [1.0, -1.0, 2.0], "us": [0.0, 0.5, -0.5, 0.0]}


@pytest.mark.parametrize(
    "command, extra",
    [
        ("evolve", {"t_end": 0.5}),
        ("ep", {"t_end": 0.5}),
        ("econd", {"t_end": 0.5}),
        ("fv", {"t_end": 0.5, "n_cells": 50}),
        ("hopflax", {"t": 0.5}),
        ("splice", {"t_end": 1.0, "domain": {"t1": 0.25, "t2": 1.0, "delta": 0.3}}),
    ],
)
def test_unsorted_breakpoints_exit_2_with_one_message(tmp_path, capsys, command, extra):
    # evolve used to name the front positions, and fv reported a CFL error
    cfg = write_cfg(tmp_path, "c.json", {"initial": UNSORTED, **extra})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: breakpoints must be non-decreasing\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        ("fv", {"initial": SHOCK_10, "t_end": 0.5, "n_list": [50, float("nan")]},
         "config key 'n_list[1]' must be an integer"),
        ("fv", {"initial": SHOCK_10, "t_end": 0.5, "n_list": [50, 100.7]},
         "config key 'n_list[1]' must be an integer"),
        ("evolve", {"initial": {"kind": "piecewise", "xs": [float("nan"), 1.0],
                                "us": [0.0, 1.0, 0.0]}, "t_end": 0.5},
         "config key 'initial.xs[0]' must be a finite number"),
        ("fv", {"initial": {"kind": "piecewise", "xs": [0.0, float("inf")],
                            "us": [0.0, 1.0, 0.0]}, "t_end": 0.5},
         "config key 'initial.xs[1]' must be a finite number"),
        ("evolve", {"initial": {"kind": "piecewise", "xs": [0.0], "us": ["a", 0.0]},
                    "t_end": 0.5},
         "config key 'initial.us[0]' must be a finite number"),
        ("hopflax", {"initial": {"kind": "piecewise", "xs": [0.0], "us": [1.0, True]}},
         "config key 'initial.us[1]' must be a finite number"),
    ],
    ids=["n_list-nan", "n_list-fraction", "xs-nan", "xs-inf", "us-string", "us-bool"],
)
def test_step_data_and_cell_lists_fail_the_config_check(tmp_path, capsys, command, cfg, message):
    # n_list [50, NaN] was a traceback and [50, 100.7] ran 100 cells; NaN xs
    # wrote artifacts and exited 3; a string state was a traceback
    path = write_cfg(tmp_path, "c.json", cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["family", "rate-compare"])
def test_negative_max_intermediates_exits_2_with_one_line(tmp_path, capsys, command):
    # once a numpy "high <= 0" traceback from the random members
    cfg = write_cfg(tmp_path, "c.json", {"u_l": -1.0, "u_r": 1.0, "max_intermediates": -1})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: max_intermediates must be at least 0, got -1\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()
