"""One workload's set-up and one pass over its jobs, in this process.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--out FILE] [--trace 0|1] [--setup-only]

Writes one JSON line per finished job to --out, flushed as it goes, so a
pass that is killed still reports the jobs it finished, then a final line
with the pass's wall time and peak RSS (and, traced, its span summary).
Each job has a wall-clock limit; a job over its limit is stopped and
reported as a timeout.  Run from the root of a diffmod checkout.
"""

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import inputs  # noqa: E402


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no `except Exception`
    inside the program swallows it."""


def _alarm(signum, frame):
    raise JobTimeout()


def basis_text(basis):
    """The CLI's canonical basis listing: generators sorted by text."""
    if not basis.gens:
        return "0"
    return "\n".join(sorted(g.text() for g in basis.gens))


# -- workloads: set-up returns [(job name, limit in s, callable -> output text)]

def setup_mclosure(seed, workdir):
    from diffmod import manifest, pipeline
    limits = {"pos_00_0": 5, "pos_10_0": 10, "pos_00_2": 60, "pos_10_1": 80, "neg": 5}
    jobs = []
    for name, text, _ in inputs.mclosure_jobs(seed):
        sop = manifest.parse_operator_manifest(text)
        jobs.append((name, limits[name],
                     lambda sop=sop: basis_text(pipeline.main_mclosure(sop).basis)))
    return jobs


def setup_groebner(seed, workdir):
    from diffmod import groebner
    from diffmod.orders import ModuleOrder, grevlex_order
    from diffmod.poly import Polynomial, Ring

    order = ModuleOrder(grevlex_order(), "top")

    def ideal(xs, polys):
        ring = Ring(tuple(xs), "x" * len(xs))
        return ring, groebner.SubmoduleBasis(ring, 1, [Polynomial.parse(ring, p) for p in polys],
                                             order=order)

    jobs = []
    for name, (xs, polys), limit in (("cyclic5", inputs.cyclic(5), 5),
                                     ("katsura5", inputs.katsura(5), 10)):
        _, basis = ideal(xs, polys)
        jobs.append(("gb_" + name, limit, lambda b=basis: basis_text(groebner.buchberger(b))))
    xs, ideals = inputs.random_ideals(seed)
    parsed = []
    for gens, queries, _ in ideals:
        ring, basis = ideal(xs, gens)
        parsed.append((basis, [Polynomial.parse(ring, q) for q in queries]))

    def write_then_read(batch):
        out = []
        for basis, targets in batch:
            gb = groebner.buchberger(basis)
            reads = [groebner.normal_form(t, gb).text() for t in targets]
            out.append("\n".join([basis_text(gb), "--"] + reads))
        return "\n==\n".join(out)

    for b in range(0, len(parsed), inputs.IDEALS_PER_JOB):
        jobs.append(("random%03d" % b, 5,
                     lambda batch=parsed[b:b + inputs.IDEALS_PER_JOB]: write_then_read(batch)))
    return jobs


def setup_cli(seed, workdir, trace=False):
    env = dict(os.environ, PYTHONPATH=SRC)
    jobs = []
    for name, argv, text in inputs.cli_jobs(seed):
        path = os.path.join(workdir, name + ".txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        cli_args = [argv[0], path] + argv[1:]
        jobs.append((name, 15, lambda a=cli_args, n=name: _cli_job(a, n, env, workdir, trace)))
    return jobs


TRACER = None


def _cli_job(cli_args, name, env, workdir, trace):
    if trace:
        spans = os.path.join(workdir, name + ".spans.json")
        cmd = [sys.executable, os.path.join(HERE, "tracecli.py"), spans] + cli_args
    else:
        cmd = [sys.executable, "-m", "diffmod.cli"] + cli_args
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate()
    except JobTimeout:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("exit code %d: %s" % (proc.returncode, err.strip()[-300:]))
    if trace:
        with open(spans, encoding="ascii") as fh:
            child = json.load(fh)
        os.remove(spans)
        TRACER.adopt(child["spans"], TRACER.current(), child["counters"], child["maxima"])
    return out.rstrip("\n")


SETUPS = {"mclosure_level_set": setup_mclosure, "groebner_ideals": setup_groebner,
          "cli_cold": setup_cli}


def main():
    global TRACER
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if args.workload == "cli_cold":
        jobs = setup_cli(args.seed, args.workdir, trace=bool(args.trace))
    else:
        jobs = SETUPS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        if args.workload == "cli_cold":
            import diffmod.cli  # noqa: F401  (the cold import every CLI job pays)
        return 0
    skipped = []
    if args.trace:
        # after set-up, which is not traced; jobs look the layers up at call time
        import tracer
        TRACER = tracer.Tracer()
        skipped = tracer.install(TRACER)

    signal.signal(signal.SIGALRM, _alarm)
    with open(args.out, "w", encoding="utf-8") as out:
        root = TRACER.open("harness.pass") if TRACER else None
        t_pass = time.perf_counter()
        for name, limit, fn in jobs:
            span = TRACER.open("harness.job") if TRACER else None
            status, detail, text = "ok", "", ""
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                text = fn()
            except JobTimeout:
                status, detail = "timeout", "over the %g s limit" % limit
            except Exception as exc:  # a job that raises is a failed job, not a failed pass
                status, detail = "error", "%s: %s" % (type(exc).__name__, exc)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            if TRACER:
                while TRACER.current() != span:  # spans a timeout left open
                    TRACER.close(TRACER.current())
                TRACER.close(span)
            out.write(json.dumps({"job": name, "s": elapsed, "status": status,
                                  "detail": detail, "output": text}) + "\n")
            out.flush()
        wall = time.perf_counter() - t_pass
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli_cold"
                                   else resource.RUSAGE_SELF)
        final = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if TRACER:
            TRACER.close(root)
            import tracer
            per_name, per_layer = tracer.summarize(TRACER.spans)
            final["trace"] = {"wall_s": TRACER.spans[root][2] - TRACER.spans[root][1],
                              "per_name": per_name, "per_layer": per_layer,
                              "counters": TRACER.counters, "maxima": TRACER.maxima,
                              "unwrapped_generators": skipped}
            with open(os.path.join(args.workdir, "spans.json"), "w", encoding="ascii") as fh:
                json.dump({"spans": TRACER.spans}, fh)
        out.write(json.dumps({"final": final}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
