"""The qiso benchmark: time to verdict on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is ``suites-generic``,
``deform-third``, ``rewrite-generic`` or ``all``.  Each workload runs in
fresh single-threaded processes (``worker.py``): with ``--trace 0``, a few
processes that only set up (``import qiso`` and the workload's ``build``
calls) and one that sets up and then measures rounds for about S seconds with
tracing off; with ``--trace 1``, one process that alternates untraced and
traced rounds and reports per-layer counts and self times.  End-to-end times
are in reference seconds (see ``pace.py``): measured seconds scaled by how fast
the machine ran a fixed reference call during the same run.

Every verdict is checked against its known answer (``expected.json``, the
rewriting model check, or YES for a seeded ideal element).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it carry the stamp (git commit,
Python version, CPU count, seed, workload parameters) and details.  The exit
code is 0 when the benchmark ran, whatever the verdicts, and 2 when it could
not run, for example when the checkout has no ``src/qiso``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 4  # set-up-only processes per measured run, besides the measuring one
WORKER_TIMEOUT_S = 170

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def worker(mode, workload, seed=0, seconds=0.0):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(lines[-1])


def git_sha():
    """The commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, for checkouts without .git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qiso")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith((".py", ".pres")):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "params": WORKLOADS[workload],
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
    }


def load_spec():
    """BENCHMARK.json: the metric names and units each run must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(spec, workload, seed, seconds, trace):
    """Run one workload; return (result object, detail object)."""
    if trace:
        out = worker("trace", workload, seed, seconds)
        values = out["metrics"]
        detail = out["info"]
        wanted = spec["per_layer"]
    else:
        setups = [worker("setup", workload) for _ in range(SETUP_SAMPLES)]
        out = worker("measure", workload, seed, seconds)
        setups.append(out)
        samples = [s["setup_s"] * s["factor"] for s in setups]
        values = dict(out["metrics"], setup_s=statistics.median(samples))
        detail = dict(out["info"], setup_samples_s=[round(s, 4) for s in samples],
                      setup_raw_s=[round(s["setup_s"], 4) for s in setups])
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if names != set(values):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail["failures"] = out["failures"]
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qiso", "__init__.py")):
        print(f"no package sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            print("# stamp " + json.dumps(stamp(name, args.seed, args.seconds, args.trace)))
            result, detail = run_workload(spec, name, args.seed, args.seconds, args.trace)
            print("# detail " + json.dumps(detail))
            if len(names) > 1:
                print(f"# result {name} " + json.dumps(result))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][metric if len(names) == 1 else f"{name}.{metric}"] = value
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
