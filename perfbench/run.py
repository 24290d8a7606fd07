"""vurkit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload floors|oracle|lur-sweep --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated from the seed and
written under ``.bench_work/``; set-up is timed in fresh interpreters; the
jobs run in one worker process (``worker.py``) as a closed loop with one
client, their times scaled to a nominal host speed by the reference runs
spread among them (``reference.py``); every job's output is checked here.
Text lines name every metric with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--tiny`` shrinks every workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = {"floors": 5, "oracle": 5, "lur-sweep": 3}
# the module groups each workload is predicted to spend its time in
PREDICTED = {"floors": ("engine",), "oracle": ("oracle",),
             "lur-sweep": ("io", "lur", "core.variance")}
PREDICTED_MIN_SHARE = 0.9
# layers whose time per job the traced run prints, for comparison with past figures
KEY_LAYERS = ("engine.optimize_alpha", "oracle.minimize_variance_sum", "io.load_state",
              "lur.lur_test")
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s",
    "passed_frac": "ratio", "peak_rss_mb": "MB", "floor_tightness": "ratio",
    "scale_covariance_err": "ratio", "oracle_min_ratio": "ratio", "lur_detect_frac": "ratio",
}
# metrics that only one workload measures; the others print them as 1.0 ("n/a")
WORKLOAD_ONLY = {"floor_tightness": "floors", "scale_covariance_err": "floors",
                 "oracle_min_ratio": "oracle", "lur_detect_frac": "lur-sweep"}


def environment(seed: int) -> dict:
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "VURKIT_THREADS": os.environ.get("VURKIT_THREADS", "unset"),
            "seed": seed}


def subprocess_json(args: list[str], out: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a subprocess")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], timeout=timeout,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(out.read_text())


def time_setup(wl: workloads.Workload, work: Path, deadline: float,
               repeats: int) -> tuple[list[float], list[float]]:
    """Set-up times over fresh interpreters, and the floors the set-up computed."""
    plan, out = work / "setup-plan.json", work / "setup-out.json"
    plan.write_text(json.dumps({"setup": wl.setup}))
    times, floors = [], []
    for _ in range(repeats):
        res = subprocess_json(["setup", str(plan), str(out)], out, deadline)
        times.append(res["setup_s"])
        for rec in res["outputs"]:
            if rec["rc"] != 0:
                raise RuntimeError(f"set-up command failed: {rec['error']}")
        floors = [json.loads(rec["stdout"])["payload"]["lower_bound"] for rec in res["outputs"]]
    return times, floors


def resolve_floors(wl: workloads.Workload, floors: list[float]) -> None:
    """Put the set-up floors into the lur jobs' ``--u-a/--u-b`` and their checks."""
    table = {f"{{U{i}}}": u for i, u in enumerate(floors)}
    for job in wl.jobs:
        job["argv"] = [repr(table[t]) if t in table else t for t in job["argv"]]
    for exp in wl.expect.values():
        if "u" in exp:
            exp["u"] = table[exp["u"]]


def job_times(runs: list[dict], ref_s: list[list[float]],
              nominal_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Each job's median time over its runs, as run and at nominal host speed.

    A run counts at nominal speed as ``nominal_s * time / (mean reference
    time of its cycle)``.  On a shared 2-vCPU host the same job runs up to
    1.5x slower for minutes at a time, jobs run back to back slow alike, and
    so do the reference runs between them, which are of the same kind.
    """
    speed = [nominal_s / statistics.mean(cycle) for cycle in ref_s]
    raw: dict[str, list[float]] = {}
    nominal: dict[str, list[float]] = {}
    for rec in runs:
        t = rec["end"] - rec["start"]
        raw.setdefault(rec["key"], []).append(t)
        nominal.setdefault(rec["key"], []).append(t * speed[rec["cycle"]])
    return ({k: statistics.median(v) for k, v in raw.items()},
            {k: statistics.median(v) for k, v in nominal.items()})


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it, and that percentile."""
    ordered = sorted(times)
    k = max(1, len(ordered) - 10)
    return ordered[k - 1], 100.0 * k / len(ordered)


def end_to_end(name, wl, result, failed, setup_s) -> tuple[dict, dict, list[str]]:
    """Timing metrics come from the cycle jobs, each run counted at its job's
    median time at nominal host speed; the once jobs are checked and printed
    but not timed."""
    jobs = result["jobs"]
    cycle_runs = [r for r in jobs if r["cycle"] >= 0]
    nominal_s = reference.NOMINAL_S[wl.reference]
    raw, per_job = job_times(cycle_runs, result["reference_s"], nominal_s)
    times = list(per_job.values())
    tail_s, pct = tail([per_job[r["key"]] for r in cycle_runs])
    metrics = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "jobs_per_s": len(times) / sum(times),
        "passed_frac": 1.0 - failed / len(jobs),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw_tail = tail([raw[r["key"]] for r in cycle_runs])[0]
    notes = {"job_p50_s": f"{len(times)} cycle jobs, each the median of its {result['cycles']} "
                          f"runs; as run {statistics.median(raw.values()):.4g} s",
             "job_tail_s": f"p{pct:.1f} of {len(cycle_runs)} cycle job runs, each at its "
                           f"job's median; as run {raw_tail:.4g} s",
             "jobs_per_s": f"as run {len(raw) / sum(raw.values()):.4g}; "
                           f"{len(cycle_runs) / result['wall_s']:.4g} over the cycles' wall "
                           f"time ({result['wall_s']:.1f} s)"}
    payloads = {r["key"]: p for r in jobs if (p := workloads.payload(r)) is not None}
    quality = {}
    if name == "floors":
        tightness, covariance = workloads.floor_quality(wl, payloads)
        quality["floor_tightness"], quality["scale_covariance_err"] = tightness, covariance
    elif name == "oracle":
        quality["oracle_min_ratio"] = workloads.oracle_quality(wl, payloads)
    else:
        quality["lur_detect_frac"] = workloads.lur_quality(wl, payloads)
    for metric, owner in WORKLOAD_ONLY.items():
        metrics[metric] = quality.get(metric, 1.0)
        if owner != name:
            notes[metric] = f"n/a on {name}, measured on {owner}"
    lines = [f"{m} = {v!r} {END_TO_END_UNITS[m]}" + (f"  ({notes[m]})" if m in notes else "")
             for m, v in metrics.items()]
    ref_s = [t for cycle in result["reference_s"] for t in cycle]
    lines.append(f"host speed: {wl.reference} reference median {statistics.median(ref_s):.4f} s "
                 f"(fastest {min(ref_s):.4f} s) over {len(ref_s)} runs, nominal {nominal_s} s")
    lines += [f"once job {r['key']}: {r['end'] - r['start']:.3f} s" for r in jobs
              if r["cycle"] < 0]
    return metrics, END_TO_END_UNITS, lines


def per_layer(name: str, result: dict) -> tuple[dict, dict, list[str]]:
    summary = result["trace"]
    layers, extra = summary["layers"], summary["extra"]
    metrics, units = {}, {}
    for layer, rec in layers.items():
        for field, value in rec.items():
            metrics[f"{layer}.{field}"] = value
            units[f"{layer}.{field}"] = "s" if field.endswith("_s") else "count"

    def ratio(num, den):
        return num / den if den else 0.0

    optimize = layers["engine.optimize_alpha"]["calls"]
    oracle = layers["oracle.minimize_variance_sum"]
    derived = {
        "engine.inner_max_per_optimize": (ratio(extra["inner_max_under_optimize"], optimize),
                                          "count"),
        "engine.range_edge_frac": (ratio(extra["optimize_at_edge"], optimize), "ratio"),
        "oracle.agree_frac": (ratio(extra["oracle_agreeing"], extra["oracle_restarts"]), "ratio"),
        "oracle.restart_s": (ratio(oracle["busy_s"], extra["oracle_restarts"]), "s"),
        "io.bytes_parsed": (extra["bytes_parsed"], "B"),
        "lur.variance_per_test": (ratio(extra["variance_under_lur"],
                                        layers["lur.lur_test"]["calls"]), "count"),
    }
    jobs = result["jobs"]
    traced_s = sum(r["end"] - r["start"] for r in jobs if r["traced"])
    untraced_s = sum(r["end"] - r["start"] for r in jobs if not r["traced"])
    derived["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    job_s = traced_s
    groups: dict[str, float] = {}
    for layer, rec in layers.items():
        groups[layer.split(".")[0]] = groups.get(layer.split(".")[0], 0.0) + rec["self_s"]
    for group, self_s in groups.items():
        derived[f"share.{group}"] = (self_s / job_s, "ratio")
    predicted = sum(layers[p]["self_s"] if "." in p else groups[p] for p in PREDICTED[name]) / job_s
    derived["share.predicted"] = (predicted, "ratio")
    for metric, (value, unit) in derived.items():
        metrics[metric], units[metric] = value, unit
    verdict = "met" if predicted >= PREDICTED_MIN_SHARE else "MISSED"
    lines = [f"{m} = {v!r} {units[m]}" for m, v in metrics.items()]
    lines.append(f"prediction: {'+'.join(PREDICTED[name])} holds >= {PREDICTED_MIN_SHARE:g} "
                 f"of job time on {name}: measured {predicted:.3f}, {verdict}")
    lines.append(f"spans recorded: {summary['spans']}; traced jobs {traced_s:.3f} s vs "
                 f"untraced {untraced_s:.3f} s, each job run untraced then traced")
    per_key: dict[str, dict[str, list[float]]] = {}
    for job, busy in summary["by_job"].items():
        rec = per_key.setdefault(jobs[int(job)]["key"], {})
        for layer in KEY_LAYERS:
            if layer in busy:
                rec.setdefault(layer, []).append(busy[layer])
    for key, rec in per_key.items():
        lines.append(f"job {key}: " + ", ".join(f"{layer} {statistics.median(t):.4f} s"
                                                for layer, t in rec.items()) + " (median per job)")
    return metrics, units, lines


def run(args, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x7b5]))
    wl = workloads.BUILDERS[args.workload](rng, work, args.tiny)
    # set-up is timed half before and half after the jobs, so its median spans
    # the run rather than one stretch of the host's speed; a traced run needs
    # only the floors
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    setup_times, floors = time_setup(wl, work, deadline, (repeats + 1) // 2)
    resolve_floors(wl, floors)

    # a traced run does every job twice, untraced then traced, and adds the
    # traced-only jobs, so it makes a fixed few cycles
    seconds, min_cycles = args.seconds, wl.min_cycles
    if args.tiny or args.trace:
        seconds, min_cycles = 0.0, 1 if args.tiny else max(1, min_cycles // 4)
    plan, out = work / "plan.json", work / "out.json"
    once = wl.once + (wl.traced_once if args.trace else [])
    plan.write_text(json.dumps({"jobs": wl.jobs, "once": once, "reference": wl.reference,
                                "reference_every": wl.reference_every}))
    result = subprocess_json(["run", str(plan), str(out), "--seconds", str(seconds),
                              "--min-cycles", str(min_cycles), "--trace", str(args.trace)],
                             out, deadline)
    setup_times += time_setup(wl, work, deadline, repeats // 2)[0]
    jobs = result["jobs"]
    failures = {}
    for i, rec in enumerate(jobs):
        problems = workloads.check(wl.expect[rec["key"]], rec)
        if problems:
            failures[i] = f"{rec['key']} (cycle {rec['cycle']}): {'; '.join(problems)}"
    if args.trace:
        metrics, units, lines = per_layer(args.workload, result)
    else:
        metrics, units, lines = end_to_end(args.workload, wl, result, len(failures),
                                           statistics.median(setup_times))
    for line in lines:
        print(line)
    for problem in list(failures.values())[:20]:
        print(f"FAILED {problem}")
    return {"correct": not failures, "attempted": len(jobs), "failed": len(failures),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (self-test)")
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so the running worker is killed and waited for
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "vurkit" / "__init__.py").is_file():
        print(f"error: no vurkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    for key, value in environment(args.seed).items():
        print(f"env {key} = {value}")
    print(f"workload {args.workload}, seconds {args.seconds:g}, trace {args.trace}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
