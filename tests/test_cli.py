"""End-to-end command line behavior: output shapes and exit codes."""

import json
import os

import pytest

from toeplitzlab import SymbolWindow, density, materialize_window, measures
from toeplitzlab.cli import main


def test_eval_prints_symbol(capsys):
    assert main(["eta", "eval", "--preset", "threeadic", "--depth", "4",
                 "-g", "14"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_json(capsys):
    assert main(["eta", "eval", "--preset", "threeadic", "--depth", "4",
                 "-g", "14", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"g": "14", "value": 1}


def test_eval_undefined(capsys):
    assert main(["eta", "eval", "--preset", "threeadic", "--depth", "3",
                 "-g", "13"]) == 0
    assert capsys.readouterr().out.strip() == "undefined"


def test_tower_validate(capsys):
    assert main(["tower", "validate", "--preset", "irregular-demo"]) == 0
    assert "Pass" in capsys.readouterr().out


def test_build_and_reload(tmp_path, capsys):
    out = tmp_path / "sk.json"
    assert main(["eta", "build", "--preset", "threeadic", "--depth", "4",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "m_k: [2]" in text or "m_k: [2," in text
    assert main(["eta", "eval", "--config", str(out), "-g", "14"]) == 2
    # a skeleton dump is not a tower config; the saved file reloads via the api
    from toeplitzlab import load_skeleton
    assert load_skeleton(out).eval(14) == 1


def test_build_json_is_the_skeleton_record(tmp_path, capsys, threeadic5):
    out = tmp_path / "sk.json"
    assert main(["eta", "build", "--preset", "threeadic", "--depth", "5",
                 "--json", "--out", str(out)]) == 0
    want = threeadic5.to_json()
    assert json.loads(capsys.readouterr().out) == want
    saved = json.loads(out.read_text())
    assert saved == want
    from toeplitzlab import load_skeleton
    assert load_skeleton(out).to_json() == want
    # the stored tower config rebuilds the same record through --config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(saved["config"]))
    assert main(["eta", "build", "--config", str(cfg), "--depth", "5",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_window_text_and_bits(tmp_path, capsys, threeadic):
    out = tmp_path / "w.bits"
    assert main(["eta", "window", "--preset", "threeadic", "--depth", "4",
                 "--level", "2", "--format", "bits", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "9 cells" in text
    assert "100110100" in text
    assert SymbolWindow.from_bits(out) == materialize_window(threeadic, 2)


def test_window_csv_round_trip(tmp_path, capsys, threeadic):
    out = tmp_path / "w.csv"
    assert main(["eta", "window", "--preset", "threeadic", "--depth", "5",
                 "--level", "4", "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    back = SymbolWindow.from_csv(threeadic.tower, out)
    assert back == materialize_window(threeadic, 4)


def test_periods_show_and_check(capsys):
    assert main(["periods", "show", "--preset", "threeadic", "--depth", "5",
                 "--level", "2"]) == 0
    text = capsys.readouterr().out
    assert "Per(,1) cells: 3" in text
    assert main(["periods", "check", "per-eq", "--preset", "threeadic",
                 "--depth", "5", "--level", "2"]) == 0
    assert main(["periods", "check", "partitions-c", "--preset", "threeadic",
                 "--depth", "5", "--level", "1", "--samples", "200"]) == 0


def test_analyze_density_json(capsys):
    assert main(["analyze", "density", "--preset", "irregular-demo",
                 "--levels", "4", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "Irregular"
    assert obj["d_interval"][1]["approx"] < 0.25
    assert obj["methods"]


def test_analyze_measures_with_cylinders(tmp_path, capsys):
    pat = tmp_path / "pat.json"
    pat.write_text(json.dumps([{"support": [0], "values": [1]},
                               {"support": [0, 4], "values": [1, 1]}]))
    assert main(["analyze", "measures", "--preset", "threeadic", "--depth", "5",
                 "--level", "4", "--cylinders", str(pat), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "Regular"
    assert obj["cylinders"][0]["mass"] == "31/81"


def test_factor_pi(capsys):
    assert main(["factor", "pi", "--preset", "threeadic", "--depth", "4",
                 "-g", "14", "--level", "4"]) == 0
    assert capsys.readouterr().out.strip() == "2 -> 5 -> 14 -> 14"


def test_factor_fibers_csv(tmp_path, capsys):
    out = tmp_path / "fibers.csv"
    assert main(["factor", "fibers", "--preset", "threeadic", "--depth", "4",
                 "--level", "1", "--csv", str(out)]) == 0
    assert "2 distinct windows" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "coset,distinct_windows,partial_lifts"
    assert len(lines) == 4


def test_verify_single_and_all(capsys):
    assert main(["verify", "per-eq", "--preset", "threeadic",
                 "--depth", "4"]) == 0
    capsys.readouterr()
    assert main(["verify", "all", "--preset", "threeadic", "--depth", "4"]) == 0
    text = capsys.readouterr().out
    assert "registry" in text


def test_verify_unknown_check_is_usage_error(capsys):
    assert main(["verify", "nope", "--preset", "threeadic", "--depth", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors(capsys, tmp_path):
    assert main(["eta", "eval", "--preset", "threeadic"]) == 2  # missing -g
    capsys.readouterr()
    assert main(["eta", "eval", "--config", str(tmp_path / "absent.json"),
                 "-g", "0"]) == 2
    capsys.readouterr()
    assert main(["eta", "eval", "-g", "0"]) == 2  # neither preset nor config
    assert main(["--help"]) == 0


def test_analyze_density_flags_disagreeing_routes(capsys, monkeypatch):
    real = density.d_recursion
    monkeypatch.setattr(density, "d_recursion",
                        lambda tower, n: real(tower, n) + (n == 2))
    assert main(["analyze", "density", "--preset", "threeadic", "--depth", "5",
                 "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert [m["agree"] for m in obj["methods"]] == [True, False, True, True]


@pytest.mark.parametrize("flag", ["--enum-budget", "--window-budget"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_budget_is_rejected(capsys, monkeypatch, flag, value):
    # a private environment, so that a leaked budget cannot reach other tests
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TOEPLITZLAB_")}
    monkeypatch.setattr(os, "environ", env)
    assert main(["eta", "eval", "--preset", "threeadic", "--depth", "4",
                 "-g", "14", flag, value]) == 2
    assert "must be positive" in capsys.readouterr().err
    assert not [k for k in env if k.startswith("TOEPLITZLAB_")]


def test_disagreeing_routes_exit_1_without_traceback(capsys, monkeypatch):
    # a step log that miscounts J-cells disagrees with the window's count
    real = measures.j_size
    monkeypatch.setattr(measures, "j_size", lambda tower, n: real(tower, n) + 1)
    assert main(["analyze", "measures", "--preset", "threeadic", "--depth", "5",
                 "--level", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("inconsistent: a_counts mismatch at level 4")
    assert "Traceback" not in err
