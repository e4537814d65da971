"""The acceptance gauntlet.

Thirteen pinned behaviors with explicit tolerances.  Each test prints exactly
one verdict line, bypassing capture, so a plain pytest run shows the roll
call; a failure prints its FAIL line before the traceback.
"""

import random
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import mutant
from toeplitzlab import (
    CheckResult,
    IntegerLineTower,
    an_det_check,
    build_skeleton,
    build_tower,
    j_set,
    j_set_recursive,
    materialize_window,
    partitions_c_check,
    per_eq_check,
    preset_config,
    run_check,
)
from toeplitzlab.cells import verify_refinement
from toeplitzlab.density import density_methods, regularity_verdict
from toeplitzlab.verify import good_bound, good_set
from toeplitzlab.window import window_values


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _run(num, label):
        rec = {"detail": ""}
        try:
            yield rec
        except BaseException as exc:
            with capsys.disabled():
                print(f"[criterion {num:2d}] FAIL  {label}: {exc}", flush=True)
            raise
        extra = f"  ({rec['detail']})" if rec["detail"] else ""
        with capsys.disabled():
            print(f"[criterion {num:2d}] PASS  {label}{extra}", flush=True)
    return _run


def test_criterion_01_construction_fidelity(criterion):
    with criterion(1, "threeadic depth-4 build reproduces the pinned record") as rec:
        t0 = time.perf_counter()
        sk = build_skeleton(IntegerLineTower([3] * 4), 4)
        assert sk.jset(1).tolist() == [1, 2]
        assert sk.jset(2).tolist() == [4, 5, 7, 8]
        assert sk.jset(3).tolist() == [13, 14, 16, 17, 22, 23, 25, 26]
        assert [(r.step, r.h) for r in sk.h_records] == [(3, 4), (4, 14)]
        assert sk.steps[:2] == [("plant", 0), ("zero",)]
        assert list(window_values(sk, 2)) == [1, 0, 0, 1, 1, 0, 1, 0, 0]
        dt = time.perf_counter() - t0
        assert dt < 1.0
        rec["detail"] = f"{dt * 1e3:.0f} ms"


def test_criterion_02_j_recursion(criterion, threeadic, irregular):
    with criterion(2, "recursive J-sets equal direct J-sets") as rec:
        t0 = time.perf_counter()
        for n in range(7):
            assert np.array_equal(j_set_recursive(threeadic.tower, n),
                                  j_set(threeadic.tower, n))
        for n in range(3):
            assert np.array_equal(j_set_recursive(irregular.tower, n),
                                  j_set(irregular.tower, n))
        dt = time.perf_counter() - t0
        assert dt < 5.0
        rec["detail"] = f"threeadic n<=6, irregular n<=2 in {dt:.2f} s"


def test_criterion_03_per_eq(criterion, threeadic):
    with criterion(3, "per-set equalities hold through level 5") as rec:
        for n in range(1, 6):
            assert not isinstance(per_eq_check(threeadic, n), CheckResult)
        rec["detail"] = "levels 1..5"


def test_criterion_04_density_routes(criterion, threeadic, irregular):
    with criterion(4, "all density routes agree, 1 - d_2 = 4/9") as rec:
        for n in range(1, 6):
            vals = density_methods(threeadic, n)
            assert set(vals) == {"product", "recursion", "enumeration"}
            assert len(set(vals.values())) == 1
        for n in range(1, 5):
            vals = density_methods(irregular, n)
            assert set(vals) == {"product", "recursion", "enumeration"}
            assert len(set(vals.values())) == 1
        d2 = density_methods(threeadic, 2)["product"]
        assert 1 - d2 == Fraction(4, 9)
        rec["detail"] = "threeadic n<=5, irregular n<=4"


def test_criterion_05_irregular_verdict(criterion, irregular):
    with criterion(5, "irregular demo is certified irregular") as rec:
        t0 = time.perf_counter()
        rep = regularity_verdict(irregular.tower, levels=4)
        assert rep.verdict == "Irregular"
        hi = rep.d_interval[1]
        assert hi < Fraction(1, 4)
        assert hi < 1 - hi
        assert rep.exp_width < Fraction(1, 10**6)
        dt = time.perf_counter() - t0
        assert dt < 5.0
        rec["detail"] = (f"sup d <= {float(hi):.6f}, exp width "
                         f"{float(rep.exp_width):.1e}, {dt:.2f} s")


def test_criterion_06_determinant(criterion, threeadic, irregular):
    with criterion(6, "count determinant equals |D_n| through level 5") as rec:
        for sk in (threeadic, irregular):
            for n in range(1, 6):
                assert not isinstance(an_det_check(sk, n), CheckResult)
        rec["detail"] = "both presets, n <= 5"


def test_criterion_07_partitions(criterion, threeadic):
    with criterion(7, "every J(k)-translate carries at most one 1") as rec:
        T = threeadic.tower
        for k in (1, 2, 3):
            vals = window_values(threeadic, k + 2)
            lo = T.lo(k + 2)
            for gamma in T.section_arr(k, k + 2).tolist():
                ones = sum(int(vals[gamma + g - lo]) == 1
                           for g in threeadic.jset(k).tolist())
                assert ones <= 1, (k, gamma)
            assert not isinstance(partitions_c_check(threeadic, k),
                                  CheckResult)
        rec["detail"] = ("k <= 3 exhaustive on D_{k+2} + every translate in "
                         "D_{depth-1}")


def test_criterion_08_good_relation(criterion, threeadic):
    with criterion(8, "good sets beat the counting bound on block pairs") as rec:
        pairs = ((1, 4), (1, 9), (4, 9))
        for n, m in pairs:
            count = len(good_set(threeadic, n, m))
            bound = good_bound(threeadic.tower, n, m)
            assert count >= 1
            assert Fraction(count) >= bound, (n, m, count, bound)
        assert run_check(threeadic, "good-relation").status == "Pass"
        rec["detail"] = "pairs (1,4), (1,9), (4,9)"


def test_criterion_09_patches(criterion, threeadic5):
    with criterion(9, "patch transfers at depth 5 show zero violations") as rec:
        gp = run_check(threeadic5, "good-patches")
        assert gp.status == "Pass" and gp.witnesses, "patch scan was vacuous"
        tt = run_check(threeadic5, "t1t2")
        assert tt.status == "Pass" and tt.witnesses
        uy = run_check(threeadic5, "u-in-y")
        assert uy.status in ("Pass", "Vacated") and uy.witnesses
        assert all(w["contained"] is True for w in uy.witnesses)
        rec["detail"] = f"u-in-y scanned with status {uy.status}"


def test_criterion_10_zero_set_identity(criterion, threeadic):
    with criterion(10, "zero-set identity: zero steps close the blocks, chains exit") as rec:
        z_id = run_check(threeadic, "z-identity")
        assert [w["m_k"] for w in z_id.witnesses if "block" in w] == [2, 5, 10]
        for block, m in enumerate(threeadic.m_k):
            # a plant at a block's closing step breaks the Z_n recursion
            planted = mutant(threeadic, {m - 1: ("plant", 0)})
            assert run_check(planted, "z-identity").status == "Fail", block
        for n in (1, 2, 3):
            cex, _, npts = verify_refinement(threeadic, n, n + 2)
            assert cex is None and npts == 3 ** (n + 2)
        assert z_id.status == "Pass"
        # every one of the |D_9| * (1 + |J(9)|) atoms is counted
        assert "(1, 9) exhaustive: 10097379 of 10097379 atoms" in z_id.render()
        assert run_check(threeadic, "containings").status == "Pass"
        rec["detail"] = "blocks 0..2, their mutants + pointwise refinement"


def test_criterion_11_uns_bound_and_trend(criterion, threeadic, irregular):
    with criterion(11, "unseen-mass bounds hold; irregular trend is monotone") as rec:
        for sk in (threeadic, irregular):
            res = run_check(sk, "uns-bound")
            assert res.status == "Pass"
            assert res.witnesses
            assert all(w["mu"] >= w["bound"] for w in res.witnesses)
        trend = run_check(irregular, "measure-1-trend")
        assert trend.status == "Pass"
        lbs = [w["lower_bound"] for w in trend.witnesses if "lower_bound" in w]
        assert len(lbs) >= 2
        assert all(a <= b for a, b in zip(lbs, lbs[1:]))
        rec["detail"] = f"trend bounds up to {float(lbs[-1]):.7f}"


def test_criterion_12_performance(criterion):
    with criterion(12, "3.7M-cell window under 10 s / 64 MB; 1e5 evals under 5 s") as rec:
        sk = build_skeleton(build_tower(preset_config("irregular-demo")), 5)
        tracemalloc.start()
        t0 = time.perf_counter()
        win = materialize_window(sk, 4)
        dt_win = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert win.n_cells == 3720465
        assert dt_win < 10.0
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

        rng = random.Random(0)
        half = sk.tower.size(5) // 2
        gs = [rng.randrange(-half, half + 1) for _ in range(100000)]
        t1 = time.perf_counter()
        for g in gs:
            sk.eval(g)
        dt_eval = time.perf_counter() - t1
        assert dt_eval < 5.0
        rec["detail"] = (f"window {dt_win:.2f} s, peak {peak / 2**20:.1f} MiB, "
                         f"evals {dt_eval:.2f} s")


def test_criterion_13_threeadic_regular(criterion, threeadic):
    with criterion(13, "threeadic density increases toward 1") as rec:
        rep = regularity_verdict(threeadic.tower, levels=9)
        assert rep.verdict == "Regular"
        ds = [d for _, d in rep.d_seq]
        assert ds[0] == Fraction(1, 3) and ds[1] == Fraction(5, 9)
        assert all(a < b for a, b in zip(ds, ds[1:]))
        rec["detail"] = f"d_9 = {float(ds[-1]):.6f}"
