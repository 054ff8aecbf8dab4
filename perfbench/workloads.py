"""Command pools and the seeded draw of one pass of commands.

A *candidate* is one complete CLI argv together with the check that its
output must pass.  Candidates are grouped (``tdpt-ode``, ``iso-build``,
``tdpt-table``, ...); `enumerate_candidates` lists every group, and
`calibrate.py` times each candidate at the recorded commit, keeps the ones
that succeed, and stores them with their cost in ``pool.json``.

A workload is a list of slots ``(group, count)``.  Each group's candidates
are cut into ``count`` cost bands, one slot per band, and a seed picks one
candidate per slot.  The draw is then balanced: candidates are swapped
inside their bands until the pass's predicted wall time, median command
time and tail command time (from the calibrated costs) are each within
`BALANCE_TOL` of seed-independent targets, or no single swap gets closer.
The seed so chooses specs, kmax, grids and command order, while every
seed's pass costs about the same on the calibrated commit; that keeps the
spread between seeds small without fixing the inputs.

Rational flags are written ``--flag=p/q``: argparse refuses the separate
form ``--lambda1 -3/2`` (see NOTES.md).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from statistics import median

BALANCE_TOL = 0.005

WORKLOADS = {
    # exact decision commands over a sweep in degree
    "exact-verify": (
        ("tdpt-ode", 3),
        ("iso-ode", 2),
        ("tdpt-regularity-regular", 4),
        ("tdpt-regularity-irregular", 4),
        ("tdpt-shape", 4),
        ("iso-qcross", 4),
        ("iso-shape", 4),
        ("iso-n0-type2", 2),
        ("iso-n0-negative", 2),
    ),
    # build and serialise canonical exact objects
    "exact-build": (
        ("tdpt-build", 30),
        ("iso-build", 20),
        ("tdpt-polytable", 15),
        ("iso-polytable", 15),
        ("jacobi-dump", 20),
        ("laguerre-dump", 20),
    ),
    # float evaluation, quadrature, eigensolves, chains and the suite runner
    "numeric": (
        ("verify-all", 1),
        ("tdpt-table", 1),
        ("iso-table", 1),
        ("eig-table", 1),
        ("tdpt-ortho", 2),
        ("iso-ortho", 2),
        ("tdpt-spectrum", 1),
        ("iso-spectrum", 1),
        ("chain-run", 6),
        ("chain-two-step", 6),
        ("chain-matveev", 3),
    ),
}

MIN_PASSES = 3
TAIL_BEYOND = 10  # commands beyond the reported tail quantile


def commands_per_pass(workload: str) -> int:
    return sum(count for _, count in WORKLOADS[workload])


# -- spec helpers ---------------------------------------------------------------

# regular values are tried in this order; the first regular one is used
_LAMBDAS = ("-1", "-1/2", "-7/3", "5", "-3", "7/2", "-2/3", "3")
_IRREGULAR_SHARES = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
_OMEGAS = ("1", "2", "3/2", "1/2")


def tdpt_threshold(n: int, N: int, M: int) -> Fraction:
    """lambda1 is regular iff lambda1 <= 0 or lambda1 > this value
    (closed form of -Q_n^(N,M)(1))."""
    f = math.factorial
    return Fraction(
        2 ** (N + M) * f(n + N) * f(n + M),
        (2 * n + N + M + 1) * f(n) * f(n + N + M),
    )


def regular_lambda(n: int, N: int, M: int, i: int) -> str:
    thr = tdpt_threshold(n, N, M)
    for j in range(len(_LAMBDAS)):
        lam = _LAMBDAS[(i + j) % len(_LAMBDAS)]
        if Fraction(lam) <= 0 or Fraction(lam) > thr:
            return lam
    raise ValueError("no regular lambda1 in the list")


def _tdpt_flags(n, N, M, lam):
    return ["--n", str(n), "--N", str(N), "--M", str(M), f"--lambda1={lam}"]


def _iso_flags(n, N):
    return ["--n", str(n), "--N", str(N)]


def _cand(group, argv, check, **spec):
    return {"group": group, "argv": argv, "check": check, "spec": spec}


REPORT = {"type": "report"}


# -- enumeration ----------------------------------------------------------------


def _exact_verify():
    out = []
    i = 0
    for n in range(6):
        for N in range(1, 4):
            for M in range(1, 4):
                for kmax in range(2, 7):
                    if N + M + 2 * n + kmax > 14:
                        continue
                    # n = 5 fits only as (N, M, kmax) = (1, 1, 2): vary lambda1
                    lams = sorted({regular_lambda(n, N, M, i + j)
                                   for j in range(len(_LAMBDAS) if n == 5 else 1)})
                    i += 1
                    for lam in lams:
                        out.append(_cand(
                            "tdpt-ode",
                            ["tdpt", "verify", "--suite", "ode"]
                            + _tdpt_flags(n, N, M, lam) + ["--kmax", str(kmax)],
                            REPORT, family="tdpt", n=n, N=N, M=M, lambda1=lam,
                            kmax=kmax,
                        ))
    for n in range(6):
        for N in range(1, 5):
            for kmax in range(2, 7):
                if 2 * n + N + kmax > 14:
                    continue
                out.append(_cand(
                    "iso-ode",
                    ["isotonic", "verify", "--suite", "ode"]
                    + _iso_flags(n, N) + ["--kmax", str(kmax)],
                    REPORT, family="isotonic", n=n, N=N, kmax=kmax,
                ))
    i = 0
    for n in range(6):
        for N in range(1, 4):
            for M in range(1, 4):
                kmax = str(2 + i % 5)
                lam = regular_lambda(n, N, M, i)
                thr = tdpt_threshold(n, N, M)
                bad = thr * _IRREGULAR_SHARES[i % len(_IRREGULAR_SHARES)]
                i += 1
                for group, value in (
                    ("tdpt-regularity-regular", lam),
                    ("tdpt-regularity-irregular", str(bad)),
                ):
                    out.append(_cand(
                        group,
                        ["tdpt", "verify", "--suite", "regularity"]
                        + _tdpt_flags(n, N, M, value) + ["--kmax", kmax],
                        REPORT, family="tdpt", n=n, N=N, M=M, lambda1=value,
                    ))
                if n >= 1:
                    out.append(_cand(
                        "tdpt-shape",
                        ["tdpt", "verify", "--suite", "shape"]
                        + _tdpt_flags(n, N, M, lam) + ["--kmax", kmax],
                        REPORT, family="tdpt", n=n, N=N, M=M, lambda1=lam,
                    ))
    for n in range(6):
        for N in range(1, 5):
            out.append(_cand(
                "iso-qcross",
                ["isotonic", "verify", "--suite", "q-crosscheck"] + _iso_flags(n, N),
                REPORT, family="isotonic", n=n, N=N,
            ))
            if n >= 1:
                out.append(_cand(
                    "iso-shape",
                    ["isotonic", "verify", "--suite", "shape"] + _iso_flags(n, N),
                    REPORT, family="isotonic", n=n, N=N,
                ))
    for N in range(1, 9):
        for group, suite in (("iso-n0-type2", "n0-type2"),
                             ("iso-n0-negative", "n0-negative")):
            out.append(_cand(
                group,
                ["isotonic", "verify", "--suite", suite] + _iso_flags(0, N),
                REPORT, family="isotonic", n=0, N=N,
            ))
    return out


def _exact_build():
    out = []
    i = 0
    for n in range(6):
        for N in range(1, 4):
            for M in range(1, 4):
                kmax = 2 + i % 5
                lam = regular_lambda(n, N, M, i + 3)
                i += 1
                flags = _tdpt_flags(n, N, M, lam) + ["--kmax", str(kmax)]
                spec = dict(family="tdpt", n=n, N=N, M=M, lambda1=lam, kmax=kmax)
                out.append(_cand("tdpt-build", ["tdpt", "build"] + flags,
                                 {"type": "digest"}, **spec))
                out.append(_cand(
                    "tdpt-polytable",
                    ["table", "--kind", "polynomial", "--family", "tdpt"] + flags,
                    {"type": "digest"}, **spec,
                ))
    for n in range(6):
        for N in range(1, 5):
            kmax = 2 + (n + N) % 5
            flags = _iso_flags(n, N) + ["--kmax", str(kmax)]
            spec = dict(family="isotonic", n=n, N=N, kmax=kmax)
            out.append(_cand("iso-build", ["isotonic", "build"] + flags,
                             {"type": "digest"}, **spec))
            out.append(_cand(
                "iso-polytable",
                ["table", "--kind", "polynomial", "--family", "isotonic"] + flags,
                {"type": "digest"}, **spec,
            ))
    for n in range(13):
        for N in range(0, 5):
            M = (n + 2 * N) % 5
            out.append(_cand(
                "jacobi-dump",
                ["classical", "dump", "--family", "jacobi", "--n", str(n),
                 "--N", str(N), "--M", str(M)],
                {"type": "digest"}, family="jacobi", n=n, N=N, M=M,
            ))
        for N in (-8, -5, -3, -1, 0, 2, 4):
            out.append(_cand(
                "laguerre-dump",
                ["classical", "dump", "--family", "laguerre", "--n", str(n),
                 f"--N={N}"],
                {"type": "digest"}, family="laguerre", n=n, N=N,
            ))
    return out


def _numeric():
    out = [_cand("verify-all", ["verify", "all"], REPORT)]
    # one degree class per family (N + M + 2n = 4, N + 2n = 3): float work
    # grows with the degree, so the seed varies the spec, lambda1, omega and
    # the grid without changing how much work a command does
    tdpt_specs = [
        (n, N, M, regular_lambda(n, N, M, j))
        for n, N, M in ((1, 1, 1), (0, 2, 2), (0, 1, 3), (0, 3, 1))
        for j in range(3)
    ]
    iso_specs = [(n, N, w) for n, N in ((1, 1), (0, 3)) for w in _OMEGAS]
    for i, (n, N, M, lam) in enumerate(tdpt_specs):
        spec = dict(family="tdpt", n=n, N=N, M=M, lambda1=lam, kmax=3)
        lo, hi = 0.01 + 0.01 * (i % 3), 1.56 - 0.01 * (i % 4)
        pts = 10000 + 100 * (i % 5)
        grid = f"--x-points={lo:g}:{hi:g}:{pts}"
        flags = _tdpt_flags(n, N, M, lam) + ["--kmax", "3"]
        table = {"type": "table", "family": "tdpt", "rows": pts}
        out.append(_cand("tdpt-table", ["tdpt", "table"] + flags + [grid],
                         table, **spec))
        out.append(_cand(
            "eig-table",
            ["table", "--kind", "eigenfunction", "--family", "tdpt"]
            + flags + [grid],
            table, **spec,
        ))
        out.append(_cand("tdpt-ortho",
                         ["tdpt", "verify", "--suite", "ortho"] + flags,
                         REPORT, **spec))
        out.append(_cand(
            "tdpt-spectrum",
            ["tdpt", "verify", "--suite", "spectrum"] + flags
            + ["--grid-n", str(3000 + 250 * (i % 3))],
            REPORT, **spec,
        ))
        out.append(_cand(
            "chain-two-step",
            ["chain", "crosscheck", "--base", "tdpt", "--which", "two-step",
             f"--params={n},{N},{M}", f"--lambda1={lam}",
             "--points", str(16 + 4 * (i % 3))],
            REPORT, **spec,
        ))
        out.append(_cand(
            "chain-matveev",
            ["chain", "crosscheck", "--base", "tdpt", "--which", "matveev",
             f"--params={n},{N},{M}", "--points", str(16 + 4 * (i % 3))],
            REPORT, family="tdpt", n=n, N=N, M=M,
        ))
    for i, (n, N, omega) in enumerate(iso_specs):
        spec = dict(family="isotonic", n=n, N=N, omega=omega, kmax=3)
        w = float(Fraction(omega))
        lo = (0.05 + 0.01 * (i % 3)) / math.sqrt(w)
        hi = (5.0 - 0.1 * (i % 4)) / math.sqrt(w)
        pts = 10000 + 100 * (i % 5)
        grid = f"--x-points={lo:.4g}:{hi:.4g}:{pts}"
        flags = _iso_flags(n, N) + [f"--omega={omega}", "--kmax", "3"]
        table = {"type": "table", "family": "isotonic", "rows": pts}
        out.append(_cand("iso-table", ["isotonic", "table"] + flags + [grid],
                         table, **spec))
        out.append(_cand(
            "eig-table",
            ["table", "--kind", "eigenfunction", "--family", "isotonic"]
            + flags + [grid],
            table, **spec,
        ))
        out.append(_cand("iso-ortho",
                         ["isotonic", "verify", "--suite", "ortho"] + flags,
                         REPORT, **spec))
        out.append(_cand(
            "iso-spectrum",
            ["isotonic", "verify", "--suite", "spectrum"] + flags
            + ["--grid-n", str(3000 + 250 * (i % 3))],
            REPORT, **spec,
        ))
        out.append(_cand(
            "chain-two-step",
            ["chain", "crosscheck", "--base", "isotonic", "--which", "two-step",
             f"--params={n},{N},{omega}", "--lambda1=0",
             "--points", str(16 + 4 * (i % 3))],
            REPORT, **spec,
        ))
    # chains are seeded by the ground state: it has no interior node
    for i, (N, M, lambdas) in enumerate(
        (N, M, lam) for N in (1, 2) for M in (1, 2) for lam in ("1", "1,1", "2")
    ):
        pts = 1000 + 500 * (i % 3)
        out.append(_cand(
            "chain-run",
            ["chain", "run", "--base", "tdpt", f"--params=0,{N},{M}",
             f"--lambdas={lambdas}", f"--grid=0.05:1.45:{pts}", "--full"],
            {"type": "chain", "rows": pts},
            family="tdpt", n=0, N=N, M=M, lambdas=lambdas,
        ))
    for i, (N, omega, lambdas) in enumerate(
        (N, w, lam) for N in (1, 2, 3) for w in ("1", "2")
        for lam in ("1", "1,2", "1,2,3")
    ):
        pts = 1000 + 500 * (i % 3)
        hi = 3.5 / math.sqrt(float(Fraction(omega)))
        out.append(_cand(
            "chain-run",
            ["chain", "run", "--base", "isotonic", f"--params=0,{N},{omega}",
             f"--lambdas={lambdas}", f"--grid=0.1:{hi:.4g}:{pts}", "--full"],
            {"type": "chain", "rows": pts},
            family="isotonic", n=0, N=N, omega=omega, lambdas=lambdas,
        ))
    return out


def enumerate_candidates() -> list:
    """Every candidate of every workload, in a fixed order with stable ids."""
    out = []
    for workload, make in (
        ("exact-verify", _exact_verify),
        ("exact-build", _exact_build),
        ("numeric", _numeric),
    ):
        for c in make():
            c["workload"] = workload
            c["id"] = f"{c['group']}:{' '.join(c['argv'])}"
            out.append(c)
    return out


# -- seeded draw ----------------------------------------------------------------


def _bands(costs: list, count: int) -> list:
    """Cut cost-sorted candidate ids into `count` contiguous bands."""
    ordered = sorted(costs, key=lambda t: (t[1], t[0]))
    size = len(ordered) / count
    return [
        [cid for cid, _ in ordered[int(round(j * size)):int(round((j + 1) * size))]]
        for j in range(count)
    ]


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics at q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(workload: str) -> float:
    """The highest quantile with TAIL_BEYOND samples beyond it in the
    smallest sample a run takes (MIN_PASSES passes).  It is fixed per
    workload, so a run with more passes reports the same quantile."""
    n = MIN_PASSES * commands_per_pass(workload)
    return (n - 1 - TAIL_BEYOND) / (n - 1)


def _summary(costs: list, q_tail: float) -> tuple:
    """Predicted (wall, median, tail) of a pass with these command costs."""
    return (sum(costs), median(costs), quantile(costs * MIN_PASSES, q_tail))


def draw(pool: dict, workload: str, seed: int) -> list:
    """One pass of commands for `workload`: a list of candidate dicts.

    Deterministic in (workload, seed)."""
    cands = pool["candidates"]
    rng = random.Random(f"{workload}:{seed}")
    slots = []
    for group, count in WORKLOADS[workload]:
        members = [
            (cid, c["cost_ms"]) for cid, c in cands.items() if c["group"] == group
        ]
        if len(members) < count:
            raise ValueError(f"group {group} has {len(members)} candidates, "
                             f"needs {count}")
        slots.extend(_bands(members, count))
    cost = {cid: c["cost_ms"] for cid, c in cands.items()}
    q_tail = tail_quantile(workload)
    # bands are cost-sorted: their middle members set the target
    target = _summary([cost[band[len(band) // 2]] for band in slots], q_tail)

    def error(chosen):
        got = _summary([cost[c] for c in chosen], q_tail)
        return max(abs(g - t) / t for g, t in zip(got, target))

    chosen = [rng.choice(band) for band in slots]
    err = error(chosen)
    # steepest descent over single swaps, visiting slots in a seeded order
    while err > BALANCE_TOL:
        best = (err, None, None)
        for j in rng.sample(range(len(slots)), len(slots)):
            for c in slots[j]:
                e = error(chosen[:j] + [c] + chosen[j + 1:])
                if e < best[0]:
                    best = (e, j, c)
        if best[1] is None:
            break  # no single swap improves: keep this draw
        err, j, c = best
        chosen[j] = c
    rng.shuffle(chosen)
    return [dict(cands[cid], id=cid) for cid in chosen]
