"""End-to-end command line behavior: output shapes and exit codes."""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import cyclic_generic
from test_chunks import BROKEN
from toeplitzlab import (REGISTRY_NAMES, DepthExceeded, SymbolWindow,
                         ToeplitzSkeleton, build_skeleton, build_tower, cli,
                         density, materialize_window, preset_config,
                         run_check, verify, window_values)
from toeplitzlab.cells import mu_zero_set
from toeplitzlab.cli import main
from toeplitzlab.result import jsonable


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


def test_eval_under_a_one_cell_window_cap_gives_the_default_answer(capsys):
    # the eval table obeys the window cap, which picks a route and changes
    # no value
    argv = ["eta", "eval", "--preset", "threeadic", "--depth", "4", "--json"]
    values = set()
    for g in range(-81, 162, 5):
        outs = []
        for cap in ([], ["--window-budget", "1"]):
            assert main([*argv, *cap, "-g", str(g)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], g
        values.add(json.loads(outs[0])["value"])
    assert values == {0, 1, None}


def test_build_and_verify_all_never_build_the_eval_table(monkeypatch,
                                                        capsys):
    monkeypatch.setattr(ToeplitzSkeleton, "_eval_table",
                        lambda self: pytest.fail("built the eval table"))
    for preset in ("threeadic", "irregular-demo"):
        assert main(["eta", "build", "--preset", preset]) == 0
        assert main(["verify", "all", "--preset", preset]) == 0
    with pytest.raises(pytest.fail.Exception, match="built the eval table"):
        main(["eta", "eval", "--preset", "threeadic", "-g", "14"])


def test_tower_validate(capsys):
    assert main(["tower", "validate", "--preset", "irregular-demo"]) == 0
    assert "Pass" in capsys.readouterr().out


def test_tower_validate_reports_its_time(capsys):
    assert main(["tower", "validate", "--preset", "threeadic", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["name"] == "decom" and obj["status"] == "Pass"
    assert obj["millis"] > 0


def _decom_run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, re.sub(r'"millis": [0-9.e+-]+', "", out), err


@pytest.mark.parametrize("config, code", [
    (None, 0),
    (BROKEN["domains not nested"]().config().to_json(), 1),
    ({"kind": "IntegerLine", "indices": 5}, 2),
], ids=["presets", "domains-not-nested", "malformed"])
def test_tower_validate_is_verify_decom(config, code, tmp_path, capsys):
    if config is None:
        sources = [["--preset", "threeadic"], ["--preset", "irregular-demo"]]
    else:
        path = tmp_path / "tower.json"
        path.write_text(json.dumps(config))
        sources = [["--config", str(path)]]
    for source in sources:
        for fmt in ([], ["--json"]):
            got = _decom_run(["tower", "validate", *source, *fmt], capsys)
            assert got == _decom_run(["verify", "decom", *source, *fmt],
                                     capsys)
            assert got[0] == code


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


def test_a_lattice_build_record_round_trips(tmp_path, capsys):
    cfg, out = tmp_path / "lattice.json", tmp_path / "sk.json"
    lattice = {"kind": "IntegerLattice", "style": "NonNegative",
               "indices": [[3, 3], [2, 2]], "tail": {"kind": "divergent"}}
    cfg.write_text(json.dumps(lattice))
    assert main(["eta", "build", "--config", str(cfg), "--json",
                 "--out", str(out)]) == 0
    want = json.loads(capsys.readouterr().out)
    assert want["config"] == lattice
    from toeplitzlab import load_skeleton
    back = load_skeleton(out)
    assert back.to_json() == want
    assert back.tower.config().to_json() == lattice


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
    # the period checks run through verify only
    for which in ("per-eq", "essential", "periodo1", "partitions-c"):
        assert main(["periods", "check", which, "--preset", "threeadic",
                     "--depth", "5", "--level", "2"]) == 2
    assert "invalid choice: 'check'" in capsys.readouterr().err


@pytest.mark.parametrize("preset, depth, level", [("threeadic", 4, 5),
                                                  ("irregular-demo", 2, 3)])
def test_periods_show_refuses_a_level_past_the_depth(capsys, preset, depth,
                                                     level):
    # Per(n, .) needs the levels below n: these printed 102 of the 118
    # Per(,0) cells of threeadic's D_5 and 882 of irregular-demo's 1301 in
    # D_3, with 1953 of its 1954 Per(,1) cells
    assert main(["periods", "show", "--preset", preset, "--depth",
                 str(depth), "--level", str(level)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: Per({level}, .) needs depth >= {level}, "
                   f"have {depth}\n")


def test_analyze_density_json(capsys):
    assert main(["analyze", "density", "--preset", "irregular-demo",
                 "--levels", "4", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "Irregular"
    assert obj["d_interval"][1]["approx"] < 0.25
    assert obj["methods"]


def test_analyze_density_rejects_a_negative_levels(capsys):
    assert main(["analyze", "density", "--preset", "threeadic", "--depth",
                 "4", "--levels", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: levels must be nonnegative, got -1\n"


def test_analyze_density_json_honours_the_window_budget(capsys):
    # the D_3 window, 29295 cells, is over a cap of 1000, so the routes
    # stop at n = 2
    assert main(["analyze", "density", "--preset", "irregular-demo",
                 "--json", "--window-budget", "1000"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [m["n"] for m in obj["methods"]] == [1, 2]


def test_analyze_density_enumerates_under_an_enum_cap(capsys):
    # the enumeration route reads the D_n window and level map alone, which
    # the window cap charges
    assert main(["analyze", "density", "--preset", "irregular-demo",
                 "--json", "--enum-budget", "1000"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [m["n"] for m in obj["methods"]] == [1, 2, 3, 4]


def test_analyze_measures_computes_mu_z1_at_the_default_level(capsys):
    # its probe cost, |D_4| x |J(1)| = 52086510, is within the window cap
    assert main(["analyze", "measures", "--preset", "irregular-demo"]) == 0
    assert "  mu_4(Z_1) = 82634/82677 ~ " in capsys.readouterr().out


def test_analyze_measures_reports_a_refused_mu_z1(capsys):
    assert main(["analyze", "measures", "--preset", "irregular-demo",
                 "--window-budget", "1000000"]) == 0
    out = capsys.readouterr().out
    assert "  mu[0] in [" in out
    assert ("  mu_4(Z_1): over budget (window D_4 needs 3720465 cells, "
            "budget is 1000000)") in out


def test_analyze_measures_json_carries_mu_z1(capsys):
    argv = ["analyze", "measures", *_THREEADIC, "--level", "4", "--json"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mu_z1"] == jsonable(mu_zero_set(
        build_skeleton(preset_config("threeadic"), 5), 1, 4))
    assert obj["one"][0] == {"num": "31", "den": "81", "approx": 31 / 81}
    assert main(["analyze", "measures", "--preset", "irregular-demo",
                 "--window-budget", "1000000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mu_z1"] == (
        "over budget (window D_4 needs 3720465 cells, budget is 1000000)")


def test_budget_flags_end_with_the_call(capsys):
    # the caps live on the skeleton main builds, so a skeleton built later
    # works under the defaults again
    assert main(["eta", "eval", "--preset", "threeadic", "--depth", "4",
                 "-g", "14", "--window-budget", "100"]) == 0
    sk = build_skeleton(preset_config("threeadic"), 10)
    assert run_check(sk, "good-relation").scope.startswith("36 pairs")


def test_analyze_measures_with_cylinders(tmp_path, capsys):
    pat = tmp_path / "pat.json"
    pat.write_text(json.dumps([{"support": [0], "values": [1]},
                               {"support": [0, 4], "values": [1, 1]}]))
    assert main(["analyze", "measures", "--preset", "threeadic", "--depth", "5",
                 "--level", "4", "--cylinders", str(pat), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "Regular"
    assert obj["cylinders"][0]["mass"] == {"num": "31", "den": "81",
                                           "approx": 31 / 81}


# case -> argv ({tmp} is the test's tmp_path), then the JSON keys, or the
# first line, that stdout starts with
OUTPUT_PATHS = {
    "window-json": (["eta", "window", "--preset", "threeadic", "--depth", "4",
                     "--level", "2", "--json"],
                    {"level", "cells", "counts", "out", "format"}),
    "window-pgm": (["eta", "window", "--config", "{tmp}/lattice.json",
                    "--depth", "2", "--level", "2", "--format", "pgm",
                    "--out", "{tmp}/w.pgm"],
                   "window D_2: 36 cells, 6 ones, 5 zeros, 25 undecided"),
    "periods-json": (["periods", "show", "--preset", "threeadic", "--depth",
                      "4", "--level", "2", "--json"],
                     {"level", "per0", "per1", "jset"}),
    "density-text": (["analyze", "density", "--preset", "threeadic",
                      "--depth", "5"], "verdict: Regular"),
    "cylinders-text": (["analyze", "measures", "--preset", "threeadic",
                        "--depth", "5", "--level", "4", "--cylinders",
                        "{tmp}/pattern.json"], "level 4 cylinder masses:"),
    "pi-json": (["factor", "pi", "--preset", "threeadic", "--depth", "4",
                 "-g", "14", "--level", "4", "--json"], {"depth", "cosets"}),
    "fibers-json": (["factor", "fibers", "--preset", "threeadic", "--depth",
                     "4", "--level", "1", "--json"],
                    {"level", "counts", "partial"}),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_PATHS))
def test_each_output_path_prints_its_shape(tmp_path, capsys, case):
    argv, head = OUTPUT_PATHS[case]
    lattice = {"kind": "IntegerLattice", "indices": [[3, 3], [2, 2]]}
    (tmp_path / "lattice.json").write_text(json.dumps(lattice))
    (tmp_path / "pattern.json").write_text(json.dumps(
        [{"support": [0], "values": [1]}]))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 0
    out = capsys.readouterr().out
    if isinstance(head, set):
        assert set(json.loads(out)) == head
        return
    assert out.splitlines()[0] == head
    if "--cylinders" in argv:
        assert "  cylinder 0: mu = 31/81 ~ 0.382716049" in out.splitlines()
    if "pgm" in argv:
        # D_2 of [[3, 3], [2, 2]] is a 9 x 4 grid: 9 rows of width 4
        height, width = build_tower(lattice).shape(2)
        header = f"P5\n{width} {height}\n255\n".encode()
        assert header == b"P5\n4 9\n255\n"
        data = (tmp_path / "w.pgm").read_bytes()
        assert data.startswith(header) and len(data) == len(header) + 36


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


# the rows three user caps touch: a check skips each unit a cap refuses
# and names it after its scope, so no check loses the units that fit
_CAPPED = {
    "threeadic-window": (
        ["--preset", "threeadic", "--window-budget", "20000"], {
            "j-recursion": ("Pass", "n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
            # n = 9 reads the D_10 window, which the cap refuses
            "per-eq": ("Pass", "n in [1, 2, 3, 4, 5, 6, 7, 8], window "
                               "saturation + step-log rebuild + "
                               "J-membership + essential; over budget: [9]"),
            "good-ds": ("Pass", "n_k in [4], every w in D_{n_k-1} minus "
                                "identity; over budget: [9]"),
            # a unit holds only its base D_(n_k+2): 729 cells at n_k = 4
            "u-in-y": ("Vacated", "n_k in [1, 4], reps over D_(n_k+2); "
                                  "linking fails on some blocks (observed "
                                  "outcomes in witnesses)"),
            "containings": ("Pass", "pointwise parent rule, n up to 8"),
            "an-det": ("Pass", "n = 1..9, det equals |D_n|; over budget: "
                               "[10]"),
        }),
    "threeadic-enum": (
        ["--preset", "threeadic", "--enum-budget", "5000"], {
            "j-recursion": ("Pass", "n in [1, 2, 3, 4, 5, 6, 7]; over budget: "
                                    "[8, 9, 10]"),
            # the essential facet at n = 7 compares 7 divisor shifts of
            # 2187 cells, 15309 > 5000
            "per-eq": ("Pass", "n in [1, 2, 3, 4, 5, 6], window saturation "
                               "+ step-log rebuild + J-membership + "
                               "essential; over budget: [7, 8, 9]"),
            # the translate tables read only the window, which 5000 allows
            "partitions-c": ("Pass", "k in [1, 2, 3, 4, 5, 6, 7, 8]"),
            "containings": ("Pass", "pointwise parent rule, n up to 8"),
            "z-identity": ("Pass", "zero steps m_k of blocks [0, 1, 2]; "
                                   "chains [(1, 4)]; over budget: "
                                   "[(1, 9), (4, 9)]"),
        }),
    "irregular-window": (
        ["--preset", "irregular-demo", "--window-budget", "1000000"], {
            "j-recursion": ("Pass", "n in [1, 2, 3, 4]; over budget: [5]"),
            "per-eq": ("Pass", "n in [1, 2], window saturation + step-log "
                               "rebuild + J-membership + essential; over "
                               "budget: [3, 4]"),
            # the probes no allowed window holds go through the level scan
            "u-in-y": ("Pass", "n_k in [1], reps over D_(n_k+2)"),
            "containings": ("Pass", "pointwise parent rule, n up to 1; over "
                                    "budget: [2, 3]"),
        }),
}


@pytest.mark.parametrize("case", sorted(_CAPPED))
def test_verify_all_under_a_user_cap_prints_every_row(capsys, case):
    argv, rows = _CAPPED[case]
    assert main(["verify", "all", *argv, "--json"]) == 0
    results = {r["name"]: r for r in json.loads(capsys.readouterr().out)
               ["results"]}
    assert list(results) == ["registry", *REGISTRY_NAMES]
    for name, row in rows.items():
        assert (results[name]["status"], results[name]["scope"]) == row, name
    # no check is stopped whole
    assert not any(r["scope"].startswith("over budget")
                   for r in results.values())


# z-identity has no case here: its closing-step units enumerate nothing,
# so no cap refuses all of its units
@pytest.mark.parametrize("argv, line", [
    (["containings", "--preset", "threeadic", "--window-budget", "20"],
     "[Inconclusive] containings: pointwise parent rule, no unit ran; "
     "over budget: [1, 2, 3, 4, 5, 6, 7, 8]"),
    (["an-det", "--preset", "threeadic", "--window-budget", "2"],
     "[Inconclusive] an-det: no unit ran, det equals |D_n|; over budget: "
     "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
])
def test_a_cap_that_refuses_every_unit_says_no_unit_ran(capsys, argv, line):
    assert main(["verify", *argv]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_a_scope_names_the_levels_that_ran_past_a_refused_one(capsys):
    # a_counts cross-checks against the window only up to |D_n| = 2**16, so
    # this cap refuses an-det's low levels of irregular-demo and not 4 and 5
    assert main(["verify", "an-det", "--preset", "irregular-demo",
                 "--window-budget", "10"]) == 0
    assert capsys.readouterr().out == (
        "[        Pass] an-det: n in [4, 5], det equals |D_n|; "
        "over budget: [1, 2, 3]\n")


# every row of threeadic depth 6 once the first 1 of its D_3 window reads 0
_MISCOUNTED_ROWS = {
    "registry": ("Pass", "15 checks + aliases ['j-sub']"),
    "decom": ("Pass", "levels 0..6, tilings 21 pairs, enumerated where "
                      "|D_j| <= 4194304"),
    "j-recursion": ("Pass", "n in [1, 2, 3, 4, 5, 6]"),
    "per-eq": ("Fail", "level 2, window level 3"),
    "good-relation": ("Pass", "10 pairs, n+2 <= m <= 6"),
    "good-patches": ("Pass", "boundary pairs [(1, 4)]"),
    "t1t2": ("Pass", "boundary pairs [(1, 4)]"),
    "partitions-c": ("Pass", "k in [1, 2, 3, 4]"),
    "linking": ("Inconclusive", "completed blocks [0, 1]; condition fails on "
                                "some blocks, so linking-dependent statements "
                                "are not testable here"),
    "good-ds": ("Pass", "n_k in [4], every w in D_{n_k-1} minus identity"),
    "u-in-y": ("Vacated", "n_k in [1], reps over D_(n_k+2); linking fails on "
                          "some blocks (observed outcomes in witnesses)"),
    "containings": ("Pass", "pointwise parent rule, n up to 4"),
    "z-identity": ("Pass", "zero steps m_k of blocks [0, 1]; chains [(1, 4)]"),
    "an-det": ("Fail", "level 3"),
    "uns-bound": ("Pass", "3 pairs, n in boundary levels, n+2 <= m <= 5"),
    "measure-1-trend": ("Inconclusive", "certified bounds are not monotone "
                                        "at this depth; the statement needs "
                                        "deeper construction to witness"),
}


def test_a_miscounted_window_fails_an_det_and_prints_every_row(capsys,
                                                               monkeypatch):
    # the step log says a_3 = (9, 10), the flipped window counts (10, 9);
    # an-det reports that as its Fail instead of ending the suite
    sk = build_skeleton(preset_config("threeadic"), 6)
    vals = window_values(sk, 3).copy()
    vals[int((vals == 1).argmax())] = 0
    monkeypatch.setitem(sk._cache, ("vals", 3), vals)
    monkeypatch.setattr(cli, "_skeleton", lambda args: sk)
    argv = ["--preset", "threeadic", "--depth", "6"]
    assert main(["verify", "all", *argv, "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]
    assert {r["name"]: (r["status"], r["scope"]) for r in rows} \
        == _MISCOUNTED_ROWS
    assert len(rows) == 16
    assert rows[REGISTRY_NAMES.index("an-det") + 1]["counterexample"] == {
        "level": 3, "log": [9, 10], "count": [10, 9]}
    # the measures enclosure still has no verdict to give on it
    assert main(["analyze", "measures", *argv, "--level", "3"]) == 1
    assert capsys.readouterr().err == ("inconsistent: a_counts mismatch at "
                                       "level 3: log (9, 10) vs count "
                                       "(10, 9)\n")


def test_single_check_under_a_user_cap_exits_0(capsys):
    assert main(["verify", "j-recursion", "--preset", "threeadic",
                 "--enum-budget", "5000"]) == 0
    assert capsys.readouterr().out == (
        "[        Pass] j-recursion: n in [1, 2, 3, 4, 5, 6, 7]; "
        "over budget: [8, 9, 10]\n")
    assert main(["verify", "good-ds", "--preset", "threeadic",
                 "--window-budget", "20000"]) == 0
    assert capsys.readouterr().out == (
        "[        Pass] good-ds: n_k in [4], every w in D_{n_k-1} minus "
        "identity; over budget: [9]\n")


def test_verify_unknown_check_is_usage_error(capsys):
    assert main(["verify", "nope", "--preset", "threeadic", "--depth", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_has_no_seed_flag(capsys):
    assert main(["verify", "linking", "--preset", "threeadic", "--depth", "4",
                 "--seed", "99"]) == 2
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err


def test_usage_errors(capsys, tmp_path):
    assert main(["eta", "eval", "--preset", "threeadic"]) == 2  # missing -g
    capsys.readouterr()
    assert main(["eta", "eval", "--config", str(tmp_path / "absent.json"),
                 "-g", "0"]) == 2
    capsys.readouterr()
    assert main(["eta", "eval", "-g", "0"]) == 2  # neither preset nor config
    assert main(["--help"]) == 0


def test_analyze_density_flags_disagreeing_routes(capsys, monkeypatch):
    argv = ["analyze", "density", "--preset", "threeadic", "--depth", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  routes to d_n agree at n in [1, 2, 3, 4]")
    real = density.d_recursion
    monkeypatch.setattr(density, "d_recursion",
                        lambda tower, n: real(tower, n) + (n == 2))
    assert main([*argv, "--json"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert [m["agree"] for m in obj["methods"]] == [True, False, True, True]
    # the text render compares the same routes
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  routes to d_n agree at n in [1, 3, 4]; disagree at n in [2]")


def test_a_command_a_cap_stops_exits_2(capsys):
    assert main(["eta", "window", "--preset", "threeadic", "--level", "9",
                 "--window-budget", "100"]) == 2
    assert capsys.readouterr().err == (
        "budget: window D_9 needs 19683 cells, budget is 100\n")


@pytest.mark.parametrize("level", ["99", "-1"])
def test_a_window_level_outside_the_tower_exits_2(capsys, level):
    assert main(["eta", "window", "--preset", "threeadic",
                 "--level", level]) == 2
    assert capsys.readouterr().err == f"error: level {level} outside 0..10\n"


def test_linking_without_a_completed_block_is_inconclusive(capsys):
    assert main(["verify", "linking", "--preset", "threeadic",
                 "--depth", "1"]) == 0
    assert capsys.readouterr().out == (
        "[Inconclusive] linking: no completed blocks\n")


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
    real = density.j_size
    monkeypatch.setattr(density, "j_size", lambda tower, n: real(tower, n) + 1)
    assert main(["analyze", "measures", "--preset", "threeadic", "--depth", "5",
                 "--level", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("inconsistent: a_counts mismatch at level 4")
    assert "Traceback" not in err


_THREEADIC = ["--preset", "threeadic", "--depth", "5"]
_MEASURES = ["analyze", "measures", *_THREEADIC, "--level", "3", "--cylinders"]
# cyclic [2, 2, 2] with D_1 = {0, 2}, two representatives of one coset: the
# skeleton build refuses J(1) before any command runs
_ONE_COSET_TWICE = json.dumps(cyclic_generic(
    [2, 2, 2], domains=[[0], [0, 2], [0, 1, 2, 3], list(range(8))]
).config().to_json())
_J1_REFUSED = "error: J(1) has 2 elements, not the 1 of j_size (invalid tower)"


@pytest.mark.parametrize("argv, text, message", [
    (_MEASURES, "[1]", "a pattern is a JSON object"),
    (_MEASURES, '{"support": [[1, 2]], "values": [1]}',
     "[1, 2] is not a group element"),
    (_MEASURES, "{", "is not JSON"),
    (["analyze", "density", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3], '
     '"tail": {"kind": "geometric", "ratio": "1/0"}}',
     "tail ratio '1/0' is not a fraction"),
    (["analyze", "density", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3], '
     '"tail": {"kind": "geometric"}}', "a geometric tail needs a ratio"),
    # a JSON true as a ratio's numerator or denominator, which Fraction
    # reads as 1
    (["analyze", "density", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3], '
     '"tail": {"kind": "geometric", "ratio": [true, 2]}}',
     "tail ratio [True, 2] is not a fraction"),
    (["analyze", "density", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3], '
     '"tail": {"kind": "geometric", "ratio": [1, true]}}',
     "tail ratio [1, True] is not a fraction"),
    (["eta", "build", "--config"], '{"kind": "IntegerLine", "indices": 5}',
     "indices must be a nonempty list"),
    (["eta", "build", "--config"], "[1, 2]", "a tower config is a JSON object"),
    (["eta", "build", "--config"], '{"kind": "IntegerLattice", "indices": [3, 3]}',
     "indices must be a nonempty list"),
    (["eta", "build", "--config"], "not json", "is not JSON"),
    # a JSON true among a Generic table's integers, which numpy reads as 1
    (["tower", "validate", "--config"],
     '{"kind": "Generic", "levels": [{"size": 2, "op": [[0, true], '
     '[true, 0]]}], "domains": [[0], [0, 1]]}',
     "level 1 op table must be 2x2 integers in 0..1"),
    (["tower", "validate", "--config"],
     '{"kind": "Generic", "levels": [{"size": 2, "op": [[0, 1], [1, 0]]}], '
     '"domains": [[0], [0, true]]}', "domain D_1 must be 2 integers in 0..1"),
    # an order-5 loop with identity 0 and inverses: (1*1)*2 = 2, 1*(1*2) = 4
    (["tower", "validate", "--config"],
     '{"kind": "Generic", "levels": [{"size": 5, "op": [[0, 1, 2, 3, 4], '
     '[1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]}], '
     '"domains": [[0], [0, 1, 2, 3, 4]]}',
     "op table is not associative at element 1"),
    # XNOR, a group whose identity is label 1
    (["tower", "validate", "--config"],
     '{"kind": "Generic", "levels": [{"size": 2, "op": [[1, 0], [0, 1]]}], '
     '"domains": [[0], [0, 1]]}', "label 0 is not the identity"),
    (["analyze", "density", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3], '
     '"tail": {"kind": "geometric", "ratio": "3/2"}}',
     "geometric tail ratio must be in (0,1)"),
    (["analyze", "density", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3], '
     '"tail": {"kind": "sideways"}}', "unknown tail"),
    (["eta", "build", "--config"],
     '{"kind": "IntegerLine", "style": "Sideways", "indices": [3, 3]}',
     "unknown style"),
    (["eta", "build", "--config"], '{"kind": "IntegerLattice", "indices": []}',
     "need a nonempty list of axes"),
    (["eta", "build", "--config"],
     '{"kind": "IntegerLattice", "indices": [[3, 3], [3]]}',
     "all axes need the same number of levels"),
    (["eta", "eval", "-g", "1,x", "--config"],
     '{"kind": "IntegerLattice", "indices": [[3, 3], [3, 3]]}',
     "'1,x' is not a group element"),
    (["eta", "eval", "-g", "1,2,3", "--config"],
     '{"kind": "IntegerLattice", "indices": [[3, 3], [3, 3]]}',
     "expected 2 coordinates, got 3"),
    # the user passed a level, so the error names one
    (["factor", "pi", "-g", "14", "--level", "-1", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3, 3]}',
     "error: level -1 outside 1..4"),
    (["factor", "pi", "-g", "14", "--level", "9", "--config"],
     '{"kind": "IntegerLine", "indices": [3, 3, 3, 3]}',
     "error: level 9 outside 1..4"),
    (["tower", "validate", "--config"], _ONE_COSET_TWICE, _J1_REFUSED),
    (["verify", "all", "--config"], _ONE_COSET_TWICE, _J1_REFUSED),
    (["eta", "eval", "-g", "1", "--config"], _ONE_COSET_TWICE, _J1_REFUSED),
], ids=["cylinders-not-object", "cylinders-wrong-shape", "cylinders-not-json",
        "ratio-1/0", "ratio-missing", "ratio-bool-numerator",
        "ratio-bool-denominator", "line-indices-int", "config-list",
        "lattice-flat-indices", "config-not-json", "generic-bool-op",
        "generic-bool-domain", "generic-loop", "generic-xnor", "ratio-3/2",
        "tail-unknown", "style-unknown", "lattice-no-axes",
        "lattice-ragged-axes", "lattice-element-text",
        "lattice-element-length", "pi-level-negative",
        "pi-level-past-depth", "one-coset-twice-validate",
        "one-coset-twice-verify-all", "one-coset-twice-eval"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("g", ["abc", "1,2", "2.5"])
def test_unparsable_element_is_a_usage_error(capsys, g):
    assert main(["eta", "eval", *_THREEADIC, "-g", g]) == 2
    assert f"{g!r} is not a group element" in capsys.readouterr().err


def test_key_error_in_a_command_is_not_a_usage_error(monkeypatch):
    from toeplitzlab import cli

    def broken(*args, **kwargs):
        raise KeyError("a fault of the program")
    monkeypatch.setattr(cli, "build_skeleton", broken)
    with pytest.raises(KeyError):
        main(["eta", "eval", *_THREEADIC, "-g", "14"])


def test_broken_generic_tower_fails_without_traceback(tmp_path, capsys):
    # D_2 drops 3 from D_1, so the translate 2 + J(1) = {5} leaves D_2
    bad = cyclic_generic([2, 2, 2],
                         domains=[[0], [0, 3], [0, 1, 2, 7], list(range(8))])
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad.config().to_json()))
    assert main(["verify", "all", "--config", str(cfg), "--depth", "3",
                 "--json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    results = {r["name"]: r for r in json.loads(out)["results"]}
    assert list(results) == ["registry", *REGISTRY_NAMES]
    assert results["decom"]["status"] == "Fail"
    assert results["j-recursion"]["status"] == "Fail"
    assert results["j-recursion"]["counterexample"]["recursive_only"] == [5]


def _raise_depth_exceeded(skeleton):
    raise DepthExceeded("mu_1 region has undecided cells")


def test_a_depth_error_on_a_tower_decom_rejects_is_a_vacated_row(
        tmp_path, capsys, monkeypatch):
    # partitions-c once raised this on the unnested tower at depth 2, while
    # the level scan left D_1's cell 3 undecided, and the suite printed no
    # row; now any check that raises it there is Vacated under decom's Fail
    bad = cyclic_generic([2, 2, 2],
                         domains=[[0], [0, 3], [0, 1, 2, 7], list(range(8))])
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad.config().to_json()))
    monkeypatch.setitem(verify._REGISTRY, "partitions-c",
                        _raise_depth_exceeded)
    assert main(["verify", "all", "--config", str(cfg), "--depth", "2",
                 "--json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    rows = {r["name"]: r for r in json.loads(out)["results"]}
    assert list(rows) == ["registry", *REGISTRY_NAMES]
    decom = rows["decom"]
    assert (decom["status"], decom["counterexample"]) == (
        "Fail", {"level": 2, "reason": "domains not nested", "element": 3})
    row = rows["partitions-c"]
    assert (row["status"], row["scope"], row["witnesses"]) == (
        "Vacated", "tower axioms fail (decom): mu_1 region has undecided "
        "cells", [decom["counterexample"]])


def test_a_depth_error_on_a_tower_decom_accepts_exits_2(capsys,
                                                        monkeypatch):
    # there it is no finding about the tower: the run stops with its message
    monkeypatch.setitem(verify._REGISTRY, "partitions-c",
                        _raise_depth_exceeded)
    assert main(["verify", "all", "--preset", "threeadic", "--depth",
                 "4"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: mu_1 region has undecided cells\n")


def test_a_generic_config_takes_no_style(tmp_path, capsys):
    # its domains are explicit, so a style other than the default is refused
    cfg = cyclic_generic([2, 2]).config().to_json()
    assert cfg["style"] == "NonNegative"
    cfg["style"] = "Centered"
    path = tmp_path / "centered.json"
    path.write_text(json.dumps(cfg))
    assert main(["tower", "validate", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: a Generic tower's domains are explicit; style "
                   "'Centered' does not apply\n")


def _broken_tiling_config(tmp_path):
    # D_1 = {0, 1} but D_2 = {0, 1, 2, 7}: the translates of D_1 by
    # Gamma_1 cap D_2 miss 3, so the tiling of D_2 fails at pair (1, 2)
    bad = cyclic_generic([2, 2, 2],
                         domains=[[0], [0, 1], [0, 1, 2, 7], list(range(8))])
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad.config().to_json()))
    return ["--config", str(cfg), "--depth", "3"]


def test_single_check_on_a_broken_tower_names_the_check_and_decom(
        tmp_path, capsys):
    argv = _broken_tiling_config(tmp_path)
    assert main(["verify", "partitions-c", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: partitions-c: tower axioms fail (decom): element "
                   "outside D_2; decom: tiling misses D_j at pair (1, 2)\n")
    # in the suite the same check is a Vacated row with the same scope
    assert main(["verify", "all", *argv, "--json"]) == 1
    results = {r["name"]: r for r in json.loads(capsys.readouterr().out)
               ["results"]}
    assert results["partitions-c"]["status"] == "Vacated"
    assert results["partitions-c"]["scope"] == \
        "tower axioms fail (decom): element outside D_2"


# a config number that int() or a cast to int64 reads as another exits 2:
# a size of 2.5 was read as 2, an identity entry 0.5 or "0" as 0, and an
# infinite ratio or size exited 1 through an OverflowError
@pytest.mark.parametrize("edit, raw, message", [
    (lambda cfg: cfg.update(tail={"kind": "geometric", "ratio": "RAW"}),
     "Infinity", "tail ratio inf is not a fraction"),
    (lambda cfg: cfg["levels"][0].update(size="RAW"), "2.5",
     "level 1 size 2.5 is not an integer multiple >=2 of 1"),
    (lambda cfg: cfg["levels"][0].update(size="RAW"), "1e400",
     "level 1 size inf is not an integer multiple >=2 of 1"),
    (lambda cfg: cfg["levels"][1]["op"][0].__setitem__(0, "RAW"), "0.5",
     "level 2 op table must be 4x4 integers in 0..3"),
    (lambda cfg: cfg["levels"][1]["op"][0].__setitem__(0, "RAW"), '"0"',
     "level 2 op table must be 4x4 integers in 0..3"),
], ids=["ratio-infinity", "size-2.5", "size-1e400", "op-0.5", "op-string"])
def test_a_number_read_as_another_exits_2(tmp_path, capsys, edit, raw,
                                          message):
    cfg = cyclic_generic([2, 2]).config().to_json()
    edit(cfg)
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(cfg).replace('"RAW"', raw))
    assert main(["eta", "build", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# the package's public names by the submodule that defines each
_EXPORTS = {
    "budgets": "Budget",
    "cells": "corollary_chain mu_zero_set parent_cells verify_refinement",
    "density": "d_enumeration d_product d_recursion density_methods "
               "exp_enclosure regularity_verdict",
    "errors": "BudgetExceeded CountMismatch DepthExceeded DoubledOne "
              "EmptySlot InconclusiveTail InvalidIndex NotInDomain "
              "ParityError UnknownCheck",
    "factor": "FiberProfile OdometerPoint fiber_profile pi_of_orbit",
    "measures": "PeriodicMeasure a_counts an_det_check limit_01 mu_cylinder "
                "parse_pattern",
    "periods": "invariant_shift partitions_c_check per_eq_check per_set",
    "presets": "PRESET_DEPTH preset_config preset_names",
    "result": "CheckResult SuiteReport",
    "skeleton": "ToeplitzSkeleton Undefined build_skeleton j_set "
                "j_set_recursive j_size load_skeleton",
    "tower": "GenericTower IntegerLatticeTower IntegerLineTower KIND_GENERIC "
             "KIND_LATTICE KIND_LINE STYLE_CENTERED STYLE_NONNEG "
             "TAIL_DIVERGENT TAIL_GEOMETRIC TailDecl TowerConfig build_tower "
             "validate_tower",
    "verify": "ALIASES REGISTRY_NAMES good_bound good_set registry_self_test "
              "run_all run_check zero_mass_closed_form zero_mass_lower_bound",
    "window": "SymbolWindow materialize_window per_masks window_values",
}

_VERIFIER = ("cells", "density", "factor", "measures", "periods", "verify",
             "window")

# run in a fresh interpreter; prints one JSON object of what it saw
_COLD_RUN = """
import contextlib, importlib, io, json, sys, types
import toeplitzlab
from toeplitzlab.cli import main

exports, verifier = json.loads(sys.argv[1])

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]

seen = {}
args = ["--preset", "threeadic", "--depth", "3"]
seen["build"] = run(["eta", "build", "--json", *args])[0]
seen["eval"] = run(["eta", "eval", *args, "-g", "5"])
seen["loaded"] = [m for m in verifier if "toeplitzlab." + m in sys.modules]
seen["help"] = run(["--help"])[0]
seen["verify_help"] = run(["verify", "--help"])
seen["mismatched"] = [
    name for mod, names in exports.items() for name in names.split()
    if getattr(toeplitzlab, name)
    is not getattr(importlib.import_module("toeplitzlab." + mod), name)]
from toeplitzlab import density, window
seen["modules"] = [isinstance(m, types.ModuleType) for m in (density, window)]
try:
    toeplitzlab.no_such_name
except AttributeError:
    seen["unknown"] = "AttributeError"
print(json.dumps(seen))
"""


def test_a_cold_command_loads_only_the_modules_it_runs():
    # `eta build` and `eta eval` never touch the verifier, so a fresh
    # interpreter without bytecode files compiles none of its modules
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, json.dumps([_EXPORTS, _VERIFIER])],
        env=env, capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen["build"] == 0 and seen["eval"] == [0, "0\n"]
    assert seen["loaded"] == []
    # help reads the registry's names only as it prints them
    assert seen["help"] == 0 and seen["verify_help"][0] == 0
    # argparse may wrap a line inside a hyphenated name
    help_text = "".join(seen["verify_help"][1].split())
    assert "oneof:" + ",".join(REGISTRY_NAMES) in help_text
    assert sum(len(names.split()) for names in _EXPORTS.values()) == 74
    assert seen["mismatched"] == []
    assert seen["modules"] == [True, True]
    assert seen["unknown"] == "AttributeError"
