"""Workload process: runs CLI jobs in-process as a closed loop with one client.

    python3 perfbench/worker.py setup PLAN OUT
    python3 perfbench/worker.py run PLAN OUT --seconds S --min-cycles N --trace 0|1

``setup`` times, in this fresh interpreter, ``import vurkit`` plus the
commands a user runs once per input set.  ``run`` runs the plan's one-off
jobs, then passes over its job cycle: at least N, and more while another
pass still ends within S seconds of the first.  Untraced, runs of the
workload's reference computation (``reference.py``), which gauges the
host's speed, are spread through each pass; with tracing on, each job runs
untraced and then traced.  Every job is ``vurkit.cli.main(argv + ["--json"])``
with its stdout captured; the parent process checks the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def import_vurkit():
    """Import vurkit from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vurkit.cli

    if Path(vurkit.__file__).resolve().parent != src / "vurkit":
        raise SystemExit(f"imported vurkit from {vurkit.__file__}, not from {src}")
    return vurkit.cli


def call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--json"])
        error = err.getvalue().strip() or None
    except SystemExit as exc:
        rc, error = exc.code if isinstance(exc.code, int) else 2, err.getvalue().strip()
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    end = perf_counter()
    return {"start": start, "end": end, "rc": rc, "stdout": out.getvalue(), "error": error}


def do_setup(plan: dict) -> dict:
    start = perf_counter()
    cli = import_vurkit()
    imported = perf_counter()
    outputs = [call(cli, argv) for argv in plan["setup"]]
    return {"import_s": imported - start, "setup_s": perf_counter() - start, "outputs": outputs}


def do_run(plan: dict, seconds: float, min_cycles: int, trace: bool) -> dict:
    """The plan's one-off jobs, then passes over its job cycle: at least
    ``min_cycles``, and more while the next pass, if it takes as long as the
    last, ends within ``seconds`` of the first pass's start.

    Untraced, every ``reference_every``-th cycle job is preceded by a run of
    the plan's reference computation.  With tracing on, every job runs twice in a row,
    untraced and then traced, so both runs of a pair see the host at the
    same speed.
    """
    import reference

    cli = import_vurkit()
    call(cli, plan["jobs"][0]["argv"])  # warm-up: lazy imports and first-touch allocations
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    records = []

    def run_jobs(jobs: list[dict], cycle: int) -> None:
        for i, job in enumerate(jobs):
            if cycle >= 0 and tracer is None and i % plan["reference_every"] == 0:
                reference_s[cycle].append(reference.timed(plan["reference"]))
            records.append(dict(call(cli, job["argv"]), key=job["key"], cycle=cycle, traced=False))
            if tracer is None:
                continue
            tracer.job = len(records)
            tracer.install()
            try:
                rec = call(cli, job["argv"])
            finally:
                tracer.uninstall()
            records.append(dict(rec, key=job["key"], cycle=cycle, traced=True))

    run_jobs(plan["once"], -1)
    if tracer is None:
        reference.timed(plan["reference"])  # warm-up: the reference's fixed inputs
    reference_s: list[list[float]] = []
    start = last = perf_counter()
    cycle = 0
    while cycle < min_cycles or 2 * perf_counter() - last - start <= seconds:
        last = perf_counter()
        reference_s.append([])
        run_jobs(plan["jobs"], cycle)
        cycle += 1
    result = {"jobs": records, "cycles": cycle, "reference_s": reference_s,
              "wall_s": perf_counter() - start}
    if tracer is None:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result["trace"] = tracer.summary()
    return result


def main(argv: list[str]) -> int:
    mode, plan_path, out_path = argv[:3]
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        result = do_setup(plan)
    else:
        opts = dict(zip(argv[3::2], argv[4::2]))
        result = do_run(plan, float(opts["--seconds"]), int(opts["--min-cycles"]),
                        opts["--trace"] == "1")
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
