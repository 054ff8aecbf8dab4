"""One pass of a workload in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/child.py`` with ``src`` on
PYTHONPATH.  The first thing it does is import ``confluent_dbt.cli`` and
build the parser, timed: that is one ``setup_s`` sample.  It then reads a
job (JSON on stdin): the commands of the pass, the seed, and whether to
trace.  Every command goes through ``confluent_dbt.cli.main(argv)`` one
after another with stdout captured, is timed, and has its output checked.
The result is one JSON line on stdout.
"""

import contextlib
import io
import sys
import time


def run_command(cli, argv):
    """Run one command in-process: (exit code, or None when it crashed;
    stdout text; stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse refused the command line
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a crashed command is a failed command
        import traceback

        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    # only modules the interpreter has loaded at start-up precede the timed
    # import, so the sample matches what a fresh `confluent-dbt` pays
    t0 = time.perf_counter()
    import confluent_dbt.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json
    import resource

    from checks import Checker

    job = json.load(sys.stdin)
    commands = job["commands"]
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    checker = None
    if commands:
        with open(job["pool"]) as fh:
            checker = Checker(json.load(fh), job["seed"])

    perf = time.perf_counter
    times, failures, records = [], [], []
    output_bytes = 0
    for cand in commands:
        if tracer is not None:
            tracer.begin_command()
        t0 = perf()
        rc, out, err = run_command(cli, cand["argv"])
        dt = perf() - t0
        times.append(dt * 1000.0)
        output_bytes += len(out.encode())
        reason = checker.check(cand, rc, out)
        if reason:
            failures.append({"id": cand["id"], "reason": reason,
                             "stderr": err[-2000:]})
        if tracer is not None:
            degree, bits = tracer.command_sizes()
            records.append({"argv": cand["argv"], "max_degree": degree,
                            "max_coeff_bits": bits, "ms": dt * 1000.0})

    result = {
        "setup_s": setup_s,
        "times_ms": times,
        "failures": failures,
        "relerr_max": checker.relerr_max if checker else 0.0,
        "tables": checker.tables if checker else 0,
        "output_bytes": output_bytes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["records"] = records
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
