"""The diffmod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a diffmod checkout.  Workloads (see BENCHMARK.json):

    mclosure_level_set  main_mclosure on the level-set indicator operators
    groebner_ideals     reduced grevlex bases and normal forms of ideals
    cli_cold            one fresh `python -m diffmod.cli` process per job

Set-up is timed in fresh interpreters, several times, and reported as the
median.  Each pass over the jobs runs in a child process (worker.py) with
a wall-clock limit per job, so a cost cliff shows up as a failed job.
Passes repeat until --seconds have been measured.  Outputs are checked
outside the timed region (check.py).  With --trace 1 the run alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKLOADS = ("mclosure_level_set", "groebner_ideals", "cli_cold")
SETUP_REPEATS = 5
RUN_DEADLINE_S = 165.0     # the whole run ends well within 180 s
CHECK_RESERVE_S = 30.0     # kept free for the correctness gate
TRACE_COUNTERS = ("groebner.critical_l.l0_sum", "pipeline.system_rows",
                  "pipeline.system_cols", "pipeline.system_nonzeros",
                  "operators.rewrite_pieces")
LAYER_NAMES = ("harness", "trace") + ("cli", "manifest", "pipeline", "operators", "vanishing",
                              "realroots", "quasimonic", "groebner")


def _worker(workload, seed, workdir, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", workdir] + list(extra)


def time_setup(workload, seed, workdir):
    """Median wall time of a fresh interpreter's imports and input parsing."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(_worker(workload, seed, workdir, "--setup-only"),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit("set-up failed:\n" + proc.stderr[-2000:])
    return statistics.median(times)


def run_pass(workload, seed, workdir, trace, timeout):
    """One pass in a child process: (job records, final record or None)."""
    out = os.path.join(workdir, "pass.jsonl")
    if os.path.exists(out):
        os.remove(out)
    # its own process group, so that stopping it also stops a CLI job it runs
    proc = subprocess.Popen(_worker(workload, seed, workdir, "--out", out, "--trace", str(trace)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    t0 = time.perf_counter()
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
    elapsed = time.perf_counter() - t0
    records = []
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.endswith("\n")]
    jobs = {r["job"]: r for r in records if "job" in r}
    final = next((r["final"] for r in records if "final" in r), None)
    for name in inputs.job_names(workload, seed):
        if name not in jobs:
            jobs[name] = {"job": name, "s": None, "status": "missing", "output": "",
                          "detail": "pass stopped before the job ran (exit %s): %s"
                          % (proc.returncode, err.strip()[-300:])}
    if final is None:
        final = {"wall_s": elapsed, "peak_rss_mb": None}
    return jobs, final


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank); the maximum when that percentile would not lie above
    the median, that is with fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    p = math.floor(100 * (n - 10) / n)
    if p <= 50:
        return 100, xs[-1]
    return p, xs[max(0, math.ceil(p * n / 100) - 1)]


def layer_metrics(trace, names):
    per_name, per_layer = trace["per_name"], trace["per_layer"]
    counters, maxima = trace["counters"], trace["maxima"]

    def calls(name):
        return per_name.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "groebner.syzygies_per_critical_l": ratio(
            counters.get("groebner.syzygy_module.in_critical_l", 0), calls("groebner.critical_l")),
        "groebner.buchberger.basis_size": ratio(
            counters.get("groebner.buchberger.basis_size", 0), calls("groebner.buchberger")),
        "groebner.normal_form.zero_share": ratio(
            counters.get("groebner.normal_form.zero", 0), calls("groebner.normal_form")),
        "groebner.buchberger.max_coeff_bits": maxima.get("groebner.buchberger.max_coeff_bits", 0),
    }
    out = {}
    for m in names:
        if m in derived:
            out[m] = derived[m]
        elif m in TRACE_COUNTERS:
            out[m] = counters.get(m, 0)
        elif m.endswith(".self_s") and m[:-len(".self_s")] in LAYER_NAMES:
            out[m] = per_layer.get(m[:-len(".self_s")], 0.0)
        else:
            for kind in ("self_s", "calls", "s"):
                if m.endswith("_" + kind):
                    out[m] = per_name.get(m[:-len(kind) - 1], {}).get(kind, 0)
                    break
            else:
                raise SystemExit("BENCHMARK.json names an unknown per-layer metric %r" % m)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "diffmod", "__init__.py")):
        print("no diffmod sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workdir = os.path.join(WORK, "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "sympy": importlib.metadata.version("sympy"), "seed": args.seed, "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace, "machine": platform.machine()}
    print("# environment: " + json.dumps(env))

    setup_s = None if args.trace else time_setup(args.workload, args.seed, workdir)

    # -- passes: untraced only, or alternating untraced / traced
    passes = []            # (traced, jobs, final)
    t_measure = time.perf_counter()
    deadline = t_start + RUN_DEADLINE_S - CHECK_RESERVE_S
    last = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        kinds = {t for t, _, _ in passes}
        need_more = (time.perf_counter() - t_measure < args.seconds
                     or (args.trace and kinds != {False, True}))
        if passes and (not need_more or time.perf_counter() + last > deadline):
            break
        t0 = time.perf_counter()
        jobs, final = run_pass(args.workload, args.seed, workdir, int(traced),
                               max(5.0, deadline - time.perf_counter()))
        last = time.perf_counter() - t0
        passes.append((traced, jobs, final))

    # -- correctness gate, outside the timed region.  It imports sympy, so it
    # is imported only now: a child forked from a large parent would start
    # with the parent's peak RSS.
    import check
    reference = {}
    for _, jobs, _ in passes:
        for name, rec in jobs.items():
            if rec["status"] == "ok" and name not in reference:
                reference[name] = rec["output"]
    verdict = check.CHECKS[args.workload](
        args.seed, {n: reference.get(n, "") for n in inputs.job_names(args.workload, args.seed)})
    attempted = failed = 0
    failures = []
    for traced, jobs, _ in passes:
        for name, rec in jobs.items():
            attempted += 1
            why = rec["detail"] if rec["status"] != "ok" else verdict.get(name)
            if why is None and rec["output"] != reference[name]:
                why = "output differs between passes"
            if why is not None:
                failed += 1
                failures.append("%s%s: %s" % (name, " (traced)" if traced else "", why))
    for line in failures[:20]:
        print("# FAILED " + line)

    untraced = [(jobs, final) for traced, jobs, final in passes if not traced]
    walls = [final["wall_s"] for _, final in untraced]
    # a pass stopped before its first job leaves only its wall time
    latencies = [rec["s"] for jobs, _ in untraced for rec in jobs.values()
                 if rec["s"] is not None] or walls
    print("# passes: %d untraced, wall_s %s" % (len(untraced), ", ".join("%.3f" % w for w in walls)))
    print("# failed_share = %d/%d = %.4f (raised, non-zero exit, over the limit or wrong output)"
          % (failed, attempted, failed / attempted))

    if args.trace:
        traced = [final for t, _, final in passes if t and final.get("trace")]
        if not traced:
            raise SystemExit("no traced pass completed")
        names = [m["name"] for m in spec["per_layer"]]
        per_pass = [layer_metrics(f["trace"], [n for n in names if n != "trace.overhead_s"])
                    for f in traced]
        metrics = {n: {"value": statistics.median(p[n] for p in per_pass)} for n in per_pass[0]}
        traced_wall = statistics.median(f["trace"]["wall_s"] for f in traced)
        metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(walls)}
        first = traced[0]["trace"]
        print("# traced pass: self times sum to %.4f s, traced wall_s %.4f s; the run is "
              "single-threaded, so no layer has waiting time"
              % (sum(first["per_layer"].values()), first["wall_s"]))
        if first["unwrapped_generators"]:
            print("# not wrapped (generator functions): " + ", ".join(first["unwrapped_generators"]))
        with open(os.path.join(WORK, "trace-%s-seed%d.json" % (args.workload, args.seed)),
                  "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "passes": [f["trace"] for f in traced]}, fh)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        p, tail = tail_percentile(latencies)
        print("# job latency: p50 over %d samples; tail is p%d, with %d samples beyond it"
              % (len(latencies), p, len(latencies) - math.ceil(p * len(latencies) / 100)))
        rss = [final["peak_rss_mb"] for _, final in untraced if final["peak_rss_mb"] is not None]
        metrics = {
            "setup_s": {"value": setup_s},
            "wall_s": {"value": statistics.median(walls)},
            "slowest_job_s": {"value": statistics.median(
                max(rec["s"] or 0.0 for rec in jobs.values()) for jobs, _ in untraced)},
            "cli_p50_s": {"value": statistics.median(latencies)},
            "cli_tail_s": {"value": tail},
            "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0},
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, entry in metrics.items():
        entry["unit"] = units[name]

    with open(os.path.join(WORK, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "metrics": metrics, "failures": failures}, fh, indent=1)
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    os.rmdir(workdir)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
