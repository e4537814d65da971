"""Named verification checks over a built array, runnable singly or as a suite.

The check contract: every registered check is a plain function
check_x(skeleton) that returns a CheckResult.  It has no settings of its own;
its caps are the skeleton's budget.  Only the Budget check of the function
doing the work compares a size with a cap.

The unit contract: a check over units (levels n, pairs (n, m), boundary
levels n_k or chains (n_j, n_s)) runs them through _per_unit.  Its body
returns a unit's witness (or None), or a Fail, which ends the check; a unit
whose budgeted callee raises BudgetExceeded is skipped.  The scope names the
units that ran, then "; over budget: [...]" the skipped ones.  The check is
Pass once a unit ran, else Inconclusive.  A cap refusal is only ever such a
skipped unit: every charge a check makes happens inside a unit, or inside
measure-1-trend's cross-check probe, which names its skipped pairs alike.
run_check is the one dispatcher: it times the call, sets `millis`, and
turns these errors raised inside a check into its status (any other error
propagates):

  NotInDomain,            Vacated, "tower axioms fail (decom): ...", with
  DepthExceeded or        decom's counterexample, when decom refutes the
  ArithmeticError         tower

Every check reports its exhaustive range in `scope`; a quantifier over all n
always becomes "all n in the computed range" and is never extrapolated.  A
Fail carries a concrete counterexample.  Checks whose hypotheses are not met
by the constructed tower report Vacated (prerequisite failed) or Inconclusive
(nothing checkable / bounds too weak), never a bare Pass.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .cells import corollary_chain, mu_zero_set, verify_refinement
from .density import future_factor_bound
from .errors import BudgetExceeded, DepthExceeded, NotInDomain, UnknownCheck
from .measures import PeriodicMeasure, an_det_check
from .periods import partitions_c_check, per_eq_check
from .result import (CheckResult, SuiteReport, failed, inconclusive, passed,
                     vacated)
from .skeleton import j_mask, j_set, j_set_recursive, j_size, j_translates
from . import tower as _tower
from .tower import domain_chunks, sum_chunks, validate_tower
from .window import UNDEFINED, eval_sums, per_masks, window_values


# -- small helpers ---------------------------------------------------------


def _m_levels(skeleton):
    """Block boundary levels n_k = m_k - 1, including a boundary whose block
    extends past the built depth (the value itself is known)."""
    return [m - 1 for m in skeleton.m_k]


def _m_pairs(skeleton):
    """(n, m) with both in the boundary sequence, m >= n + 2, m <= depth-1."""
    ms = _m_levels(skeleton)
    out = []
    for i, n in enumerate(ms):
        for m in ms[i + 1:]:
            if n + 2 <= m <= skeleton.depth - 1:
                out.append((n, m))
    return out


def good_set(skeleton, n, m):
    """Gamma_{n+1} cap D_m minus the union of D_l Gamma_{l+1}, l = n+1..m-1,
    as an element array."""
    T = skeleton.tower
    skeleton.budget.check_window(T.size(m), f"good set ({n},{m})")
    sec = T.section_arr(n + 1, m)
    return sec[j_mask(T, sec, m, n + 1)]


def good_bound(tower, n, m):
    """|D_m|/|D_{n+1}| prod_{n<l<m} (1 - t_l), which is |J(m)|/|J(n+1)|."""
    return Fraction(j_size(tower, m), j_size(tower, n + 1))


def _defined(vals):
    """vals, once none of them is UNDEFINED."""
    if (vals == UNDEFINED).any():
        raise DepthExceeded("a probe is undefined; increase depth")
    return vals


def _u_mask(skeleton, base, n):
    """Which base points v have the sigma^{v^{-1}} eta window on D_{n+1}
    equal to eta_n.  Probes go through eval_sums in batches of about CHUNK
    values, the rarer symbol 1's first, each only at the points that
    matched every earlier batch; a point's first mismatch must be
    defined."""
    T = skeleton.tower
    shifts = T.domain_arr(n + 1)
    target = window_values(skeleton, n)[T.coset_index_arr(shifts, n)]
    todo = np.argsort(target == 0, kind="stable")
    alive = np.arange(len(base))
    while len(todo) and len(alive):
        i, todo = np.split(todo, [max(1, _tower.CHUNK // len(alive))])
        vals = eval_sums(skeleton, base[alive], shifts[i])
        miss = vals != target[i]
        _defined(vals[np.arange(len(alive)), miss.argmax(axis=1)])
        alive = alive[~miss.any(axis=1)]
    return np.isin(np.arange(len(base)), alive)


def _patch_offsets(skeleton, n):
    """Arrays gamma, u and gamma + u over (Gamma_n cap D_{n+1}) x J(n),
    gamma-major."""
    T = skeleton.tower
    gam = T.section_arr(n, n + 1)
    u = skeleton.jset(n)
    off = T.translate_arr(gam, u)
    return [np.broadcast_to(a, off.shape).reshape(-1, *off.shape[2:])
            for a in (np.expand_dims(gam, 1), np.expand_dims(u, 0), off)]


def _y_mask(skeleton, base, n):
    """Which base points pass the all-zero probe over section x J(n)."""
    T = skeleton.tower
    vals = _defined(eval_sums(skeleton, base, _patch_offsets(skeleton, n)[2]))
    return T.eq_arr(T.reduce_arr(base, n), T.zero) & (vals == 0).all(axis=1)


# -- the checks ------------------------------------------------------------


def check_decom(skeleton):
    # once per skeleton, so run_check's fallback reads it
    return skeleton.cached("decom", lambda: validate_tower(
        skeleton.tower, skeleton.budget, skeleton.depth))


def _level_range(done, text):
    """The levels that ran: text naming the last when they are 1..k, else
    "n in [...]", or "no unit ran"."""
    if not done:
        return "no unit ran"
    if done == list(range(1, len(done) + 1)):
        return text.format(done[-1])
    return f"n in {done}"


def _per_unit(name, units, body, scope):
    """Run body(u) over the units in order; see the unit contract above.
    scope(done) describes the units that ran."""
    done, wits, skipped = [], [], []
    for u in units:
        try:
            out = body(u)
        except BudgetExceeded:
            skipped.append(u)
            continue
        if isinstance(out, CheckResult):
            return out
        done.append(u)
        if out is not None:
            wits.append(out)
    text = scope(done) + (f"; over budget: {skipped}" if skipped else "")
    return (passed if done else inconclusive)(name, text, wits)


def check_j_recursion(skeleton):
    T = skeleton.tower

    def unit(n):
        B = skeleton.budget
        B.check_enum(T.size(n), f"J({n})")
        # units run in order, so both routes agree on J(n-1), and on J(n)
        # when its translates reach J(n)'s mask over D_n once each, none
        # outside; else their arrays decide and name the witnesses
        hit, again, outside = j_translates(T, n, j_set(T, n - 1, B))
        if again or outside or not all(
                np.array_equal(j_mask(T, g, n), hit[s:s + len(g)])
                for s, g in domain_chunks(T, n)):
            a, b = j_set(T, n, B), j_set_recursive(T, n, B)
            if len(a) != len(b) or not T.eq_arr(a, b).all():
                ea, eb = set(T.elements(a)), set(T.elements(b))
                return failed("j-recursion", f"n={n}",
                              {"n": n, "direct_only": sorted(ea - eb)[:3],
                               "recursive_only": sorted(eb - ea)[:3]})
        return {"n": n, "size": j_size(T, n)}

    return _per_unit("j-recursion", range(1, skeleton.depth + 1), unit,
                     lambda done: f"n in {done}")


def check_per_eq(skeleton):
    return _per_unit("per-eq", range(1, skeleton.depth),
                     lambda n: per_eq_check(skeleton, n),
                     lambda done: f"n in {done}, window saturation + "
                                  "step-log rebuild + J-membership + essential")


def check_good_relation(skeleton):
    T = skeleton.tower
    dep = skeleton.depth

    def unit(pair):
        n, m = pair
        # good_set charges |D_m|; S + D_{n+1} are at most |D_m| cells,
        # since S lies in Gamma_{n+1} cap D_m
        S = good_set(skeleton, n, m)
        count = len(S)
        bound = good_bound(T, n, m)
        if Fraction(count) < bound:
            return failed("good-relation", f"(n,m)=({n},{m})",
                          {"n": n, "m": m, "count": count, "bound": bound})
        v = T.domain_arr(n + 1)
        for i0, w in sum_chunks(T, S, v):
            bad = ~(T.in_domain_arr(w, m) & j_mask(T, w, m, n + 1))
            if bad.any():
                i, j = divmod(int(bad.argmax()), len(v))
                return failed(
                    "good-relation", f"(n,m)=({n},{m}) translate containment",
                    {"gamma": T.element(S[i0 + i]), "v": T.element(v[j])})
        return {"n": n, "m": m, "count": count, "bound": bound}

    pairs = [(n, m) for n in range(1, dep - 1) for m in range(n + 2, dep + 1)]
    return _per_unit("good-relation", pairs, unit,
                     lambda done: f"{len(done)} pairs, n+2 <= m <= {dep}")


def _patch_values(skeleton, n, m, S):
    """The D_m window at every offset patch: values at gamma0 + offset, a
    row per gamma0 in S and a column per offset, and at the bare offset u.
    gamma0 + offset stays inside D_m by the tiling axiom, so the window
    holds every probe."""
    T = skeleton.tower
    vals = window_values(skeleton, m)
    gam, u, off = _patch_offsets(skeleton, n)
    got = vals[T.index_of_arr(T.translate_arr(S, off), m)]
    return got, vals[T.index_of_arr(u, m)], (gam, u)


def _boundary_pairs(name, skeleton, unit):
    """A check over the boundary pairs (n, m) with m <= depth-1; a vacuous
    Pass when there are none."""
    pairs = _m_pairs(skeleton)
    if not pairs:
        return passed(name, f"no boundary pairs with m <= depth-1 = "
                            f"{skeleton.depth - 1}; vacuous")
    return _per_unit(name, pairs, unit,
                     lambda done: f"boundary pairs {done}")


def check_good_patches(skeleton):
    T = skeleton.tower

    def unit(pair):
        n, m = pair
        S = good_set(skeleton, n, m)
        got, want, _ = _patch_values(skeleton, n, m, S)
        qualifying = S[(got == want).all(axis=1)]
        in_u = _u_mask(skeleton, qualifying, n)
        if not in_u.all():
            i = int(np.flatnonzero(~in_u)[0])
            return failed(
                "good-patches", f"(n,m)=({n},{m})",
                {"gamma0": T.element(qualifying[i]),
                 "reason": "qualifying translate missed the level window"})
        return {"n": n, "m": m, "good": len(S), "qualifying": len(qualifying)}

    return _boundary_pairs("good-patches", skeleton, unit)


def check_t1t2(skeleton):
    T = skeleton.tower

    def unit(pair):
        n, m = pair
        S = good_set(skeleton, n, m)
        got, want, (gam, u) = _patch_values(skeleton, n, m, S)
        bad = got != want
        if bad.any():
            i, j = np.unravel_index(int(bad.argmax()), bad.shape)
            return failed("t1t2", f"(n,m)=({n},{m})",
                          {"gamma0": T.element(S[i]),
                           "gamma": T.element(gam[j]), "u": T.element(u[j])})
        return {"n": n, "m": m, "good": len(S), "offsets": len(gam)}

    return _boundary_pairs("t1t2", skeleton, unit)


def check_partitions_c(skeleton):
    dep = skeleton.depth
    # k up to depth-2: every J(k)-translate is read in the D_{depth-1} window
    return _per_unit("partitions-c", range(1, min(dep, max(2, dep - 1))),
                     lambda k: partitions_c_check(skeleton, k),
                     lambda done: f"k in {done}")


def check_linking(skeleton):
    ok_map = dict(skeleton.linking_ok)
    wits = [{"block": k, "holds": bool(v)} for k, v in sorted(ok_map.items())]
    scope = f"completed blocks {sorted(ok_map)}"
    if not ok_map:
        return inconclusive("linking", "no completed blocks")
    if all(ok_map.values()):
        return passed("linking", scope, wits)
    return inconclusive(
        "linking", scope + "; condition fails on some blocks, so "
        "linking-dependent statements are not testable here", wits)


_GOOD_DS_FIRST = 16  # prefix of D_{n_k+1} good-ds scans first


def good_ds_witnesses(skeleton, nk):
    """Every w in D_{n_k-1} minus the identity, and the D_{n_k+1} index of
    the first e, in enumeration order, with e - w in Per(n_k-1, 1) and e not
    in Per(n_k+1, 1) (-1 where there is none).

    All w still lacking a witness are scanned at once, over prefixes of
    D_{n_k+1} growing fourfold, each pass only past the last prefix; most w
    find theirs in the first pass, so the wide passes see few rows."""
    T = skeleton.tower
    per1_up = per_masks(skeleton, nk + 1)[1]
    per1_lo = per_masks(skeleton, nk - 1)[1]
    e_all = T.domain_arr(nk + 1)
    ws = T.domain_arr(nk - 1)
    ws = ws[~T.eq_arr(ws, T.zero)]
    first = np.full(len(ws), -1)
    lo, hi = 0, _GOOD_DS_FIRST
    while lo < len(e_all):
        hi = min(hi, len(e_all))
        todo = np.flatnonzero(first < 0)
        rows = max(1, _tower.CHUNK // (hi - lo))  # (w, e) pairs per pass
        for s in range(0, len(todo), rows):
            r = todo[s:s + rows]
            g = T.sub_arr(np.expand_dims(e_all[lo:hi], 0),
                          np.expand_dims(ws[r], 1))
            cand = per1_lo[T.coset_index_arr(g, nk - 1)] & ~per1_up[lo:hi]
            hit = cand.any(axis=1)
            first[r[hit]] = lo + cand[hit].argmax(axis=1)
        lo, hi = hi, 4 * hi
    return ws, first


def check_good_ds(skeleton):
    T = skeleton.tower
    levels = [nk for nk in _m_levels(skeleton)
              if nk >= 2 and nk + 1 <= skeleton.depth]
    if not levels:
        return passed("good-ds",
                      "no boundary level n_k >= 2 within depth; vacuous")

    def unit(nk):
        ws, first = good_ds_witnesses(skeleton, nk)
        missing = np.flatnonzero(first < 0)
        if len(missing):
            return failed("good-ds", f"n_k={nk}",
                          {"n_k": nk, "w": T.element(ws[missing[0]]),
                           "reason": "no witness in D_{n_k+1}"})
        e = T.domain_arr(nk + 1)[first[:3]]
        sample = zip(T.elements(ws[:3]),
                     T.elements(T.sub_arr(e, ws[:3])))
        return {"n_k": nk, "witnesses": len(ws), "sample": list(sample)}

    return _per_unit("good-ds", levels, unit,
                     lambda done: f"n_k in {done}, every w in "
                                  "D_{n_k-1} minus identity")


def check_u_in_y(skeleton):
    T = skeleton.tower
    ms = _m_levels(skeleton)
    usable = [nk for nk in ms if skeleton.depth >= nk + 4]
    if not usable:
        return inconclusive(
            "u-in-y", f"depth {skeleton.depth} below n_k+4 for all blocks")

    def unit(nk):
        linking = bool(skeleton.linking_ok.get(ms.index(nk), False))
        # the unit holds its base; eval_arr reads the probes by the cap
        skeleton.budget.check_window(T.size(nk + 2), f"u-in-y at {nk}")
        base = T.domain_arr(nk + 2)
        members = base[_u_mask(skeleton, base, nk)]
        in_y = _y_mask(skeleton, members, nk)
        holds = bool(in_y.all())
        if linking and not holds:
            return failed("u-in-y", f"n_k={nk}, reps D_{nk + 2}",
                          {"n_k": nk,
                           "v": T.element(members[int(in_y.argmin())])})
        return {"n_k": nk, "linking": linking, "u_members": len(members),
                "contained": holds}

    res = _per_unit("u-in-y", usable, unit,
                    lambda done: f"n_k in {done}, reps over D_(n_k+2)")
    if any(not w["linking"] for w in res.witnesses):
        return vacated("u-in-y", res.scope + "; linking fails on some blocks "
                       "(observed outcomes in witnesses)", res.witnesses)
    return res


def check_containings(skeleton):
    dep = skeleton.depth

    def unit(n):
        m = min(n + 2, dep - 1)
        cx, counts, pts = verify_refinement(skeleton, n, m)
        if cx is not None:
            return failed("containings", f"n={n} m={m}", cx)
        return {"n": n, "m": m, "points": pts, "cases": counts,
                "partial": "parent column only" if m == n + 1 else None}

    return _per_unit("containings", range(1, dep - 1), unit,
                     lambda done: "pointwise parent rule, "
                                  + _level_range(done, "n up to {}"))


def check_z_identity(skeleton):
    ms = _m_levels(skeleton)
    chains = [(nj, ns) for i, nj in enumerate(ms) for ns in ms[i + 1:]
              if ns <= skeleton.depth]
    walks = {}  # n_s -> the chains ending there, from one walk

    def unit(u):
        if isinstance(u, tuple):
            nj, ns = u
            if ns not in walks:
                walks[ns] = corollary_chain(
                    skeleton, [a for a, b in chains if b == ns], ns)
            cx, branches, atoms = walks[ns][nj]
            if cx is not None:
                return failed("z-identity", f"chain ({nj},{ns})", cx)
            return {"span": u, "atoms": atoms, "branches": branches,
                    "mode": "exhaustive", "of": atoms}
        # the chains' one-column exits are the closing steps m_k
        m = skeleton.m_k[u]
        step = skeleton.steps[m - 1]
        if step[0] != "zero":
            return failed("z-identity", f"block {u} closing step",
                          {"block": u, "m_k": m, "step": step})
        return {"block": u, "m_k": m}

    def scope(done):
        return (f"zero steps m_k of blocks "
                f"{[u for u in done if not isinstance(u, tuple)]}; chains "
                f"{[u for u in done if isinstance(u, tuple)]}")

    return _per_unit("z-identity", [*skeleton.completed_blocks(), *chains],
                     unit, scope)


def check_an_det(skeleton):
    return _per_unit("an-det", range(1, skeleton.depth + 1),
                     lambda n: an_det_check(skeleton, n),
                     lambda done: _level_range(done, "n = 1..{}")
                                  + ", det equals |D_n|")


def check_uns_bound(skeleton):
    T = skeleton.tower
    dep = skeleton.depth

    def unit(pair):
        n, m = pair
        mu = PeriodicMeasure(skeleton, m).mu_level_cylinder(n)
        bound = good_bound(T, n, m) / T.size(m)
        if mu < bound:
            return failed("uns-bound", f"(n,m)=({n},{m})",
                          {"n": n, "m": m, "mu": mu, "bound": bound})
        return {"n": n, "m": m, "mu": mu, "bound": bound, "strict": mu > bound}

    pairs = [(n, m) for n in _m_levels(skeleton) for m in range(n + 2, dep)]
    return _per_unit("uns-bound", pairs, unit,
                     lambda done: f"{len(done)} pairs, n in boundary levels, "
                                  f"n+2 <= m <= {dep - 1}")


def zero_mass_closed_form(skeleton, n, m):
    """mu_m(Z_n) from the step log alone.

    Planted steps t in (n, m] each put |D_m|/|D_t| ones inside D_m, all in
    distinct level-n translate classes.  A planted step m+1 adds one more
    class: its representative sits in J(m), hence inside D_m.  Later steps
    plant outside D_m entirely.
    """
    s = skeleton.plant_tail_sum(n, m)
    if m + 1 <= skeleton.depth and skeleton.steps[m][0] == "plant":
        s += Fraction(1, skeleton.tower.size(m))
    return 1 - skeleton.tower.size(n) * s


def zero_mass_lower_bound(skeleton, n):
    """Certified lower bound on mu_m(Z_n) valid for every m > n, including
    levels past the built depth via the declared tail."""
    T = skeleton.tower
    dep = skeleton.depth
    if n <= dep:
        b = future_factor_bound(T, dep)
        tail = Fraction(1, T.size(dep)) * b / (1 - b)
        return 1 - T.size(n) * (skeleton.plant_tail_sum(n, dep) + tail)
    b = future_factor_bound(T, n)
    return 1 - b / (1 - b)


def check_measure_one_trend(skeleton):
    dep = skeleton.depth
    levels = _m_levels(skeleton)
    # closed form vs direct classification at the first affordable pair
    cross, skipped = None, []
    for n in [n for n in levels if n + 2 <= dep]:
        m = min(n + 2, dep - 1)
        try:
            direct = mu_zero_set(skeleton, n, m)
        except BudgetExceeded:
            skipped.append((n, m))
            continue
        closed = zero_mass_closed_form(skeleton, n, m)
        if direct != closed:
            return failed("measure-1-trend", f"closed form at ({n},{m})",
                          {"direct": direct, "closed": closed})
        cross = {"pair": (n, m), "mu": closed}
        break
    exact = [{"n": n, "m": dep - 1,
              "mu": zero_mass_closed_form(skeleton, n, dep - 1)}
             for n in levels if n <= dep - 2]
    bounds = [{"n": n, "lower_bound": zero_mass_lower_bound(skeleton, n)}
              for n in levels]
    wits = ([cross] if cross else []) + exact + bounds
    seq = [b["lower_bound"] for b in bounds]
    if len(bounds) < 2:
        status, scope = inconclusive, (
            f"fewer than two boundary levels with certified bounds "
            f"(levels {levels})")
    elif all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
        status, scope = passed, (
            f"certified lower bounds at boundary levels "
            f"{[b['n'] for b in bounds]} are nondecreasing")
    else:
        status, scope = inconclusive, (
            "certified bounds are not monotone at this depth; the statement "
            "needs deeper construction to witness")
    return status("measure-1-trend", scope + (
        f"; over budget: {skipped}" if skipped else ""), wits)


# -- registry --------------------------------------------------------------


_REGISTRY = {
    "decom": check_decom,
    "j-recursion": check_j_recursion,
    "per-eq": check_per_eq,
    "good-relation": check_good_relation,
    "good-patches": check_good_patches,
    "t1t2": check_t1t2,
    "partitions-c": check_partitions_c,
    "linking": check_linking,
    "good-ds": check_good_ds,
    "u-in-y": check_u_in_y,
    "containings": check_containings,
    "z-identity": check_z_identity,
    "an-det": check_an_det,
    "uns-bound": check_uns_bound,
    "measure-1-trend": check_measure_one_trend,
}

REGISTRY_NAMES = tuple(_REGISTRY)

ALIASES = {"j-sub": "per-eq"}

AXIOMS_FAIL = "tower axioms fail (decom)"


def registry_self_test():
    """Every alias must name a registered check."""
    bad_alias = [a for a, t in ALIASES.items() if t not in _REGISTRY]
    if bad_alias:
        return failed("registry", "aliases vs registered checks",
                      {"bad_alias": bad_alias})
    return passed("registry",
                  f"{len(REGISTRY_NAMES)} checks + aliases {sorted(ALIASES)}")


def run_check(skeleton, name):
    """Run one registered check (or alias), timed, with the errors a check
    may raise turned into its status."""
    canonical = ALIASES.get(name, name)
    fn = _REGISTRY.get(canonical)
    if fn is None:
        raise UnknownCheck(
            f"{name!r}; known: {', '.join(REGISTRY_NAMES)} "
            f"and aliases {sorted(ALIASES)}")
    t0 = time.perf_counter()
    try:
        res = fn(skeleton)
    except (NotInDomain, DepthExceeded, ArithmeticError) as exc:
        # a check may lean on the tower axioms; once decom (cached on the
        # skeleton) refutes them, its breaking on them is no finding of its own
        decom = None if canonical == "decom" else check_decom(skeleton)
        if decom is None or decom.ok:
            raise
        res = vacated(name, f"{AXIOMS_FAIL}: {exc}", [decom.counterexample])
    return replace(res, name=name, millis=(time.perf_counter() - t0) * 1e3)


def run_all(skeleton):
    return SuiteReport([registry_self_test()] + [
        run_check(skeleton, name) for name in REGISTRY_NAMES])
