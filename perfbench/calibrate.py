"""Build ``perfbench/pool.json``: the candidate commands with their cost,
and the references their outputs are checked against.

Run from the repository root, at the commit the references should come
from:

    python3 perfbench/calibrate.py

For every candidate of `workloads.enumerate_candidates` it runs the
command in-process once per sweep, `REPS` sweeps over all candidates one
after the other, and keeps the fastest time as its cost: the machine's
slow spells only ever add time, and spreading the repetitions over the
whole calibration keeps a slow spell from biasing one group.
It records

* for exact build commands, the digest of every exact-object field;
* for the tables, the exact objects (z-form, denominator, exceptional
  polynomials) of each table spec, from ``tdpt build`` / ``isotonic build``;

and checks every other output as a pass would.  A candidate that fails, or
an exact decision command slower than `MAX_COST_MS`, is left out of the
pool and listed under "excluded" with the reason.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool.json")
REPS = 2
# keeps a pass of exact-verify near 10 s while n = 5 still fits
MAX_COST_MS = 3500.0


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import confluent_dbt.cli as cli

    from checks import Checker, exact_digests, exact_key
    from child import run_command
    from workloads import enumerate_candidates

    candidates = enumerate_candidates()
    pool = {"meta": {}, "candidates": {}, "refs": {}, "exact": {}, "excluded": []}

    for c in candidates:
        if c["check"]["type"] != "table":
            continue
        key = exact_key(c["spec"])
        if key in pool["exact"]:
            continue
        s = c["spec"]
        if s["family"] == "tdpt":
            argv = ["tdpt", "build", "--n", str(s["n"]), "--N", str(s["N"]),
                    "--M", str(s["M"]), f"--lambda1={s['lambda1']}",
                    "--kmax", str(s["kmax"])]
            fields = ("z_form", "denominator", "p_tilde")
        else:
            argv = ["isotonic", "build", "--n", str(s["n"]), "--N", str(s["N"]),
                    "--kmax", str(s["kmax"])]
            fields = ("zform_units", "q", "l_tilde")
        rc, out, err = run_command(cli, argv)
        if rc != 0:
            raise SystemExit(f"reference build failed: {argv}: {err}")
        payload = json.loads(out)
        pool["exact"][key] = {f: payload[f] for f in fields}

    checker = Checker(pool, seed=0)
    times = {}
    for rep in range(REPS):
        for i, c in enumerate(candidates):
            cid = c["id"]
            if rep and cid not in times:
                continue  # excluded in the first sweep
            t0 = time.perf_counter()
            rc, out, err = run_command(cli, c["argv"])
            elapsed = (time.perf_counter() - t0) * 1000.0
            if rep:
                times[cid].append(elapsed)
                continue
            if c["check"]["type"] == "digest":
                reason = f"exit code {rc}" if rc != 0 else ""
                if not reason:
                    pool["refs"][cid] = exact_digests(json.loads(out))
            else:
                reason = checker.check(dict(c, id=cid), rc, out)
            print(f"[{i + 1}/{len(candidates)}] {elapsed:9.1f} ms "
                  f"{'ok' if not reason else 'EXCLUDED ' + reason} {cid}",
                  file=sys.stderr, flush=True)
            if reason:
                pool["excluded"].append({"id": cid, "reason": reason,
                                         "stderr": err[-500:]})
            else:
                times[cid] = [elapsed]

    for c in candidates:
        cid = c["id"]
        if cid not in times:
            continue
        cost = min(times[cid])
        if c["group"].endswith("-ode") and cost > MAX_COST_MS:
            pool["refs"].pop(cid, None)
            pool["excluded"].append({
                "id": cid, "reason": f"cost {cost:.0f} ms above {MAX_COST_MS:.0f} ms",
                "stderr": "",
            })
            continue
        pool["candidates"][cid] = {
            k: c[k] for k in ("workload", "group", "argv", "check", "spec")
        }
        pool["candidates"][cid]["cost_ms"] = round(cost, 3)

    pool["meta"] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "reps": REPS,
        "table_relerr_max": checker.relerr_max,
    }
    with open(POOL, "w") as fh:
        json.dump(pool, fh, sort_keys=True, indent=0)
        fh.write("\n")
    print(f"{len(pool['candidates'])} candidates, "
          f"{len(pool['excluded'])} excluded -> {POOL}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
