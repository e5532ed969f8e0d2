"""Command line round trips: exit codes, JSON output, CSV output."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relpack
from relpack import cli, make_params
from relpack.cli import main


def test_cold_start_imports_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the package and its command line has loaded no scipy module
    src = str(Path(relpack.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, relpack, relpack.cli; print(relpack.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(relpack.__file__).resolve()
    assert out[1] == "[]"


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(
        ["verify", "--n", "2", "--r", "0.8", "--samples", "800", "--seed", "5",
         "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["overall"] is True
    assert doc["params"]["seed"] == 5
    # the human summary goes to stdout when a file sink is given
    text = capsys.readouterr().out
    assert "overall: PASS" in text


def test_verify_stdout_json(capsys):
    rc = main(["verify", "--samples", "600", "--seed", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["n"] == 2 and doc["params"]["r"] == 0.8


def test_verify_exit_one_on_failed_check(capsys):
    rc = main(
        ["verify", "--samples", "500", "--seed", "5", "--tol",
         "area_preservation=1e-18"]
    )
    assert rc == 1


def test_verify_rejects_radius_at_bound(capsys):
    rc = main(["verify", "--n", "2", "--r", "0.8165", "--samples", "100"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_bad_tolerance_syntax(capsys):
    rc = main(["verify", "--samples", "100", "--tol", "area_preservation"])
    assert rc == 2
    rc = main(["verify", "--samples", "100", "--tol", "nope=1e-6"])
    assert rc == 2


@pytest.mark.parametrize("entry", ["round_trip=nan", "curve_areas=inf",
                                   "containment=-1"])
def test_non_finite_or_negative_tolerance_exits_two(entry, capsys):
    rc = main(["verify", "--samples", "100", "--tol", entry])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_repeated_calls_share_no_state(monkeypatch):
    # the parser is built once per process, but no call may see another's --tol
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    seen = []
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: seen.append(args.tol) or 0)
    for argv in (["--tol", "x=1"], [], ["--tol", "y=2"]):
        assert main(["verify", *argv]) == 0
        seen.append(parser.parse_args(["verify", *argv]).tol)
    assert seen == [["x=1"]] * 2 + [[]] * 2 + [["y=2"]] * 2


def test_unknown_flag_or_command(capsys):
    assert main(["verify", "--frobnicate"]) == 2
    assert main(["transmogrify"]) == 2
    assert main([]) == 2


def _read_figure(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("t", "q", "p", "Q", "P"):
            row[key] = float(row[key])
        row["curve_id"] = int(row["curve_id"])
    return rows


def test_figure_csv_structure(tmp_path):
    out = tmp_path / "fig.csv"
    rc = main(
        ["figure", "--r", "0.8", "--circles", "4", "--points-per-curve", "64",
         "--out", str(out)]
    )
    assert rc == 0
    rows = _read_figure(out)
    assert len(rows) == 5 * 65  # 4 circles + diameter, inclusive endpoints
    p = make_params(2, 0.8)
    for cid in range(1, 5):
        curve = [r for r in rows if r["curve_id"] == cid]
        assert all(r["kind"] == "circle" for r in curve)
        # closed to tight tolerance
        assert abs(curve[0]["Q"] - curve[-1]["Q"]) <= 1e-9
        assert abs(curve[0]["P"] - curve[-1]["P"]) <= 1e-9
        # band bound with the nominal source radius
        u = (cid / 4.0) ** 2 * p.r**2
        worst = max(abs(r["P"] - p.c) for r in curve)
        assert worst <= u / 2.0 + p.epsilon
    diam = [r for r in rows if r["curve_id"] == 0]
    assert all(r["kind"] == "diameter" for r in diam)
    assert max(abs(r["P"] - p.c) for r in diam) <= 1e-12
    Qs = [r["Q"] for r in diam]
    assert all(b > a for a, b in zip(Qs, Qs[1:]))  # rightward sweep


def test_figure_stdout(capsys):
    rc = main(["figure", "--circles", "2", "--points-per-curve", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "curve_id,kind,t,q,p,Q,P"


def test_figure_flag_validation(capsys):
    assert main(["figure", "--circles", "0"]) == 2
    assert main(["figure", "--points-per-curve", "4"]) == 2


def test_embed_basepoint(capsys):
    rc = main(["embed", "--point", "0,0,0,0"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("phi = (")
    assert lines[1].startswith("z = (")
    assert lines[2].startswith("clifford_distance = ")
    assert float(lines[2].split("=")[1]) == 0.0
    vals = [float(v) for v in lines[0][7:-1].split(",")]
    assert vals[0] == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert vals[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_embed_input_validation(capsys):
    assert main(["embed", "--point", "0,0"]) == 2  # wrong arity for n=2
    assert main(["embed", "--point", "a,b,c,d"]) == 2
    assert main(["embed", "--point", "0.9,0,0,0"]) == 2  # outside the ball
    err = capsys.readouterr().err
    assert "error:" in err


def test_embed_negative_leading_coordinate(capsys):
    # "--point -0.3,..." must not be read as an option; "--point=" still works
    assert main(["embed", "--point", "-0.3,0.1,0.2,-0.1"]) == 0
    spaced = capsys.readouterr().out
    assert main(["embed", "--point=-0.3,0.1,0.2,-0.1"]) == 0
    assert capsys.readouterr().out == spaced
    assert spaced.startswith("phi = (")
    assert main(["embed", "--point"]) == 2


def test_embed_three_factors(capsys):
    rc = main(["embed", "--n", "3", "--r", "0.7", "--point", "0.1,0,0.1,0,0.1,0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[2].split("=")[1]) <= 1e-12
