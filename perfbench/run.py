"""Benchmark runner for confluent-dbt.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  A single client runs a closed
loop: each *pass* is a fresh interpreter (`child.py`) that imports the
package, builds the parser (one ``setup_s`` sample), and runs the seeded
list of commands of the workload through ``confluent_dbt.cli.main(argv)``
one after another, checking each output.  Passes repeat the same list
until ``--seconds`` is used up (at least `workloads.MIN_PASSES`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
and traced passes, reports the per-layer metrics of the traced ones (spans
placed from outside the program, see `spans.py`) with their overhead, the
import split from ``python -X importtime``, and writes one record per
command to ``.perfbench_out/``.  The last line of stdout is the JSON
result; the lines above it list every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters behind the setup_s median
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 165.0  # no pass starts that would end after this

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_CALL_SPANS = (
    "exactalg.poly_mul", "exactalg.poly_divmod", "exactalg.poly_gcd",
    "exactalg.ratfn_canon", "exactalg.sturm", "exactalg.poly_eval_exact",
    "exactalg.poly_eval_float", "exactalg.gauged_eval", "classical.jacobi",
    "classical.laguerre", "tdpt.q_poly", "isotonic.q_poly",
    "verify.exact_ode_residual", "verify.quadrature",
    "verify.dirichlet_spectrum", "chains.integral_from_anchor",
)
_SELF_SPANS = (
    "tdpt.p_tilde", "tdpt.extended_potential", "tdpt.certify_regularity",
    "isotonic.l_tilde", "isotonic.extended_potential",
    "isotonic.rootless_certificate", "verify.gram_matrix",
    "chains.hyperconfluent_chain", "chains.matveev_potential", "cli.main",
)
# layers whose self time makes up the shares of attributed span time
_EXACT_SHARE = tuple(s for s in _CALL_SPANS if s.startswith("exactalg.")
                     and s not in ("exactalg.poly_eval_float",
                                   "exactalg.gauged_eval"))
_NUMERIC_SHARE = ("exactalg.poly_eval_float", "exactalg.gauged_eval") + tuple(
    s for s in _CALL_SPANS + _SELF_SPANS if s.startswith(("verify.", "chains."))
)

PER_LAYER = (
    tuple((f"{s}.calls", "count") for s in _CALL_SPANS)
    + tuple((f"{s}.self_s", "s") for s in _CALL_SPANS + _SELF_SPANS)
    + tuple((f"{s}.distinct_ratio", "ratio") for s in spans.DISTINCT)
    + (
        ("exactalg.poly_gcd.nontrivial_ratio", "ratio"),
        ("exactalg.max_degree", "degree"),
        ("exactalg.max_coeff_bits", "bits"),
        ("verify.quadrature.subdivisions", "count"),
        ("verify.dirichlet_spectrum.unknowns", "count"),
        ("reports.run_suite.wall_s", "s"),
        ("reports.run_check.calls", "count"),
        ("reports.run_check.inflation", "ratio"),
        ("cli.output_bytes", "bytes"),
        ("numeric.eval_relerr_max", "ratio"),
        ("setup.import_numpy_s", "s"),
        ("setup.import_scipy_s", "s"),
        ("setup.import_pkg_s", "s"),
        ("trace.exactalg_share", "ratio"),
        ("trace.numeric_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    )
)


class BenchError(Exception):
    pass


class Runner:
    """Starts the child interpreters of one benchmark run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # suite runs use the default thread count, whatever the caller set
        self.env.pop("CONFLUENT_DBT_THREADS", None)
        self.pool_path = str(HERE / "pool.json")
        with open(self.pool_path) as fh:
            pool = json.load(fh)
        self.commands = workloads.draw(pool, workload, seed)
        self.seed = seed
        self.t_start = time.monotonic()

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def child(self, commands=(), trace=False) -> dict:
        job = {"commands": list(commands), "seed": self.seed, "trace": trace,
               "pool": self.pool_path}
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")],
                input=json.dumps(job), stdout=subprocess.PIPE, text=True,
                cwd=self.root, env=self.env, timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a pass did not finish before the deadline")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass process exited with {proc.returncode}")
        result = json.loads(lines[-1])
        result["process_s"] = time.monotonic() - t0
        return result

    def passes(self, seconds: float, trace_pairs: bool = False) -> list:
        """Run passes until `seconds` are used (at least MIN_PASSES, or one
        untraced and one traced pass when `trace_pairs`)."""
        done = []
        t0 = time.monotonic()
        minimum = 2 if trace_pairs else workloads.MIN_PASSES
        while True:
            trace = trace_pairs and len(done) % 2 == 1
            done.append(self.child(self.commands, trace=trace))
            if trace_pairs and len(done) % 2 == 1:
                continue  # a traced pass follows every untraced one
            if trace_pairs:
                cost = done[-1]["process_s"] + done[-2]["process_s"]
            else:
                cost = statistics.median(r["process_s"] for r in done)
            if len(done) >= minimum and (
                time.monotonic() - t0 + cost > seconds or cost > self.remaining()
            ):
                return done

    def importtime(self) -> dict:
        """Median over fresh interpreters of the import split."""
        samples = []
        for _ in range(IMPORTTIME_SAMPLES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import confluent_dbt.cli"],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                cwd=self.root, env=self.env, timeout=max(self.remaining(), 1.0),
            )
            if proc.returncode != 0:
                raise BenchError("import of confluent_dbt.cli failed")
            samples.append(_parse_importtime(proc.stderr))
        return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def _parse_importtime(text: str) -> dict:
    """numpy and scipy: cumulative time of their outermost imports; the
    package: summed self time of its own modules."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        label = parts[2][1:]
        name = label.lstrip(" ")
        rows.append(((len(label) - len(name)) // 2, name, self_us, cum_us))
    out = {"numpy": 0, "scipy": 0, "confluent_dbt": 0}
    stack = []  # ancestors of the current row; the log lists children first
    for depth, name, self_us, cum_us in reversed(rows):
        del stack[depth:]
        top = name.split(".")[0]
        if top == "confluent_dbt":
            out[top] += self_us
        elif top in out and not any(a.split(".")[0] == top for a in stack):
            out[top] += cum_us
        stack.append(name)
    return {
        "setup.import_numpy_s": out["numpy"] / 1e6,
        "setup.import_scipy_s": out["scipy"] / 1e6,
        "setup.import_pkg_s": out["confluent_dbt"] / 1e6,
    }


def _failures(results) -> tuple:
    attempted = sum(len(r["times_ms"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    for f in failures[:10]:
        print(f"FAILED {f['id']}: {f['reason']}\n{f['stderr']}", file=sys.stderr)
    return attempted, len(failures)


def end_to_end(runner: Runner, workload: str, seconds: float) -> tuple:
    results = runner.passes(seconds)
    setups = [r["setup_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child()["setup_s"])
    times = [t for r in results for t in r["times_ms"]]
    q = workloads.tail_quantile(workload)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(r["times_ms"]) / 1000.0 for r in results),
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": workloads.quantile(times, q),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    attempted, failed = _failures(results)
    k = workloads.commands_per_pass(workload)
    print(f"workload {workload}: {len(results)} passes x {k} commands "
          f"= {len(times)} command samples, one client, closed loop")
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median over {len(results)} passes of the summed command times",
        "op_p50_ms": f"median of {len(times)} command samples",
        "op_tail_ms": f"p{100 * q:.1f} of {len(times)} samples, "
                      f">= {workloads.TAIL_BEYOND} samples beyond it",
        "peak_rss_mb": "median over passes of the pass process's peak RSS",
    }
    for name, unit in END_TO_END:
        print(f"{name} = {metrics[name]:.6g} {unit}  ({notes[name]})")
    print(f"ops_failed_ratio = {failed / attempted:.6g} ratio  "
          f"({failed} failed of {attempted} attempted)")
    tables = sum(r["tables"] for r in results)
    if tables:
        print(f"eval_relerr_max = {max(r['relerr_max'] for r in results):.6g} ratio  "
              f"({tables} tables checked on sampled rows)")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return out, attempted, failed, True


def _layer_metrics(r: dict, untraced_wall: float) -> dict:
    tr = r["trace"]
    sp, counts, distinct = tr["spans"], tr["counts"], tr["distinct"]

    def rec(name):
        return sp.get(name, [0, 0.0, 0.0])

    wall = sum(r["times_ms"]) / 1000.0
    # span time on all threads, less the main thread waiting in run_suite for
    # its workers; every command runs inside cli.main, so this covers it all
    attributed = sum(v[2] for v in sp.values()) - rec("reports.run_suite")[2]
    m = {}
    for s in _CALL_SPANS:
        m[f"{s}.calls"] = rec(s)[0]
    for s in _CALL_SPANS + _SELF_SPANS:
        m[f"{s}.self_s"] = rec(s)[2]
    for s in spans.DISTINCT:
        m[f"{s}.distinct_ratio"] = distinct.get(s, 0) / max(rec(s)[0], 1)
    suite = rec("reports.run_suite")[1]
    m.update({
        "exactalg.poly_gcd.nontrivial_ratio":
            counts.get("gcd.nontrivial", 0) / max(rec("exactalg.poly_gcd")[0], 1),
        "exactalg.max_degree": max(counts.get("max.degree", 0), 0),
        "exactalg.max_coeff_bits": counts.get("max.bits", 0),
        "verify.quadrature.subdivisions": counts.get("quadrature.subdivisions", 0),
        "verify.dirichlet_spectrum.unknowns": counts.get("spectrum.unknowns", 0),
        "reports.run_suite.wall_s": suite,
        "reports.run_check.calls": rec("reports.run_check")[0],
        "reports.run_check.inflation":
            rec("reports.run_check")[1] / suite if suite else 0.0,
        "cli.output_bytes": r["output_bytes"],
        "numeric.eval_relerr_max": r["relerr_max"],
        "trace.exactalg_share": sum(rec(s)[2] for s in _EXACT_SHARE) / attributed,
        "trace.numeric_share": sum(rec(s)[2] for s in _NUMERIC_SHARE) / attributed,
        "trace.overhead_ratio": wall / untraced_wall,
    })
    return m


def per_layer(runner: Runner, workload: str, seconds: float) -> tuple:
    results = runner.passes(seconds, trace_pairs=True)
    plain = [r for r in results if "trace" not in r]
    traced = [r for r in results if "trace" in r]
    untraced_wall = statistics.median(sum(r["times_ms"]) / 1000.0 for r in plain)
    each = [_layer_metrics(r, untraced_wall) for r in traced]
    metrics = {k: statistics.median(m[k] for m in each) for k in each[0]}
    metrics.update(runner.importtime())

    calls = {s: c for s, (c, _, _) in traced[0]["trace"]["spans"].items()}
    missing = [s for s, wls in spans.EXPECTED.items()
               if workload in wls and not calls.get(s)]
    for s in missing:
        print(f"SELF-CHECK: span {s} never fired on {workload}", file=sys.stderr)

    out_dir = runner.root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"records-{workload}-seed{runner.seed}.jsonl"
    with open(path, "w") as fh:
        for record in traced[0]["records"]:
            fh.write(json.dumps(record) + "\n")

    attempted, failed = _failures(results)
    print(f"workload {workload}: {len(plain)} untraced and {len(traced)} traced "
          f"passes; per-command records in {path.relative_to(runner.root)}")
    for name, unit in PER_LAYER:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    return out, attempted, failed, not missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="confluent-dbt benchmark")
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "confluent_dbt" / "cli.py").is_file():
        print(f"error: no confluent_dbt sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    try:
        runner = Runner(root, args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, ok = measure(runner, args.workload, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
