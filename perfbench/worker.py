"""One workload in one fresh process.

    python3 perfbench/worker.py MODE --workload NAME [--seed N] [--seconds S]

MODE is ``setup`` (set up once and report the time), ``measure`` (set up, then
run rounds with tracing off for about S seconds), ``trace`` (alternate
untraced and traced rounds, then micro-timings) or ``record`` (run the check
and completion ops once and store their verdicts in ``expected.json``; run
this only on a commit whose verdicts are known good).  The result is the last
line of standard output, as JSON.  ``run.py`` starts this process; the
``src`` directory of the checkout must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before anything of the package is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import timeit  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
MIN_ROUNDS = 2
TAIL_BEYOND = 10

HEAVY_CHECKS = (
    "coproduct-kills-relations", "haar-weights", "deformed-hom", "twist-interchange",
    "action-of-deformed-product", "deformed-product-of-action", "haar-twist-invariance",
    "nf-model-coherence[e(0t)]", "nf-model-coherence[e(-1t)]", "nf-model-coherence[e(-2t)]",
)
SCENARIOS = ("circle", "sphere", "torus", "double-torus")
SCALED = ("verify_s", "complete_s", "query_p50_ms", "query_tail_ms")  # times, in reference seconds
SETUP_PACE_SAMPLES = 20


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def tail(samples):
    """The highest value with at least TAIL_BEYOND samples above it."""
    s = sorted(samples)
    return s[len(s) - TAIL_BEYOND - 1]


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class RoundResult:
    def __init__(self):
        self.wall = 0.0
        self.seconds = {"check": 0.0, "complete": 0.0, "query": 0.0}
        self.op_s = []  # (kind, seconds) per op, in round order
        self.query_s = []
        self.check_s = {}
        self.verdicts = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @property
    def verify_s(self):
        return sum(self.seconds.values())


def run_round(ops, pace=None):
    res = RoundResult()
    clock = time.perf_counter
    w0 = clock()
    for op in ops:
        if pace is not None:
            pace.sample()
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a raising check is a failed op, not a crash
            out = exc
        dt = clock() - t0
        res.seconds[op.kind] += dt
        res.op_s.append((op.kind, dt))
        if op.kind == "query":
            res.query_s.append(dt)
        if isinstance(out, BaseException):
            res.failures.append(f"{op.name}: {''.join(traceback.format_exception_only(out)).strip()}")
        else:
            res.check_s.update(out.get("seconds", {}))
            if op.kind == "check":
                res.verdicts += len(out["verdicts"])
        attempted, failed = op.judge(out)
        res.attempted += attempted
        res.failed += failed
        if failed and not isinstance(out, BaseException):
            res.failures.append(f"{op.name}: {failed} of {attempted} verdicts differ")
    if pace is not None:
        pace.sample()
    res.wall = clock() - w0
    return res


def rounds_until(ops, seconds, start, pace, min_rounds=MIN_ROUNDS):
    """Run rounds while the next one is expected to end within ``seconds``."""
    out = []
    while True:
        out.append(run_round(ops, pace))
        elapsed = time.perf_counter() - start
        if len(out) >= min_rounds and elapsed + out[-1].wall > seconds:
            return out


def op_medians(rounds, kinds):
    """The median time of each op across rounds, summed over the ops of the
    given kinds: the time of one typical round."""
    total = 0.0
    for i, (kind, _) in enumerate(rounds[0].op_s):
        if kind in kinds:
            total += statistics.median(r.op_s[i][1] for r in rounds)
    return total


def e2e_metrics(rounds):
    return {
        "verify_s": op_medians(rounds, ("check", "complete", "query")),
        "complete_s": op_medians(rounds, ("complete",)),
        "query_p50_ms": 1e3 * statistics.median(statistics.median(r.query_s) for r in rounds),
        "query_tail_ms": 1e3 * statistics.median(tail(r.query_s) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def totals(rounds):
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    failures = []
    for r in rounds:
        failures += [f for f in r.failures if f not in failures]
    return attempted, failed, failures


# ---------------------------------------------------------------------------
# trace mode
# ---------------------------------------------------------------------------


def _per_call_us(fn, target_s=0.02, repeat=7):
    number = 1
    while True:
        t = timeit.timeit(fn, number=number)
        if t >= target_s or number >= 1 << 20:
            break
        number *= 4
    times = timeit.repeat(fn, number=number, repeat=repeat)
    return 1e6 * statistics.median(times) / number


def micro_timings(built):
    """Layer micro-timings, tracing off."""
    from qiso import rewrite
    from qiso.scalars import Scalar, ThetaLin

    a = Scalar.exponential(ThetaLin(Fraction(1, 3), 1))
    b = Scalar.exponential(ThetaLin(Fraction(1, 4), -2))
    a3, b3 = a.specialize(Fraction(1, 3)), b.specialize(Fraction(1, 3))
    tor = built["torus"]
    word = tor.parse("U V U* V U V* U V")
    return {
        "scalars.phase_mul_us": _per_call_us(lambda: a * b),
        "scalars.cyclo_mul_us": _per_call_us(lambda: a3 * b3),
        "scalars.add_us": _per_call_us(lambda: a + b),
        "scalars.one_us": _per_call_us(Scalar.one),
        "rewrite.complete8_ms": 1e-3 * _per_call_us(
            lambda: rewrite.RuleSet(tor.nf_algebra, tor.member_relations, 8), target_s=0.1),
        "rewrite.nf8_us": _per_call_us(lambda: tor.nf_rules.normal_form(word)),
    }


def layer_metrics(tr: tracing.Tracer, wall: float):
    c, s, i = tr.calls, tr.self_s, tr.incl_s
    out = {
        "scalars.mul_calls": c["scalars.Scalar.__mul__"],
        "scalars.add_calls": c["scalars.Scalar.__add__"],
        "scalars.neg_calls": c["scalars.Scalar.__neg__"],
        "scalars.cyclo_mul_calls": c["scalars.Cyclo.__mul__"],
        "freealg.mul_calls": c["freealg.Element.__mul__"],
        "freealg.mul_self_s": s["freealg.Element.__mul__"],
        "freealg.substitute_calls": c["freealg.substitute"],
        "freealg.substitute_self_s": s["freealg.substitute"] + s["freealg.substitute_factors"],
        "freealg.tensor_calls": c["freealg.tensor"],
        "freealg.max_terms": tr.max_terms,
        "graded.directsum_mul_mono_calls": c["graded.DirectSum.mul_mono"],
        "graded.block_mul_mono_calls": c["graded.BlockAlgebra.mul_mono"],
        "graded.twist_phase_calls": c["graded.twist_phase"],
        "graded.rieffel_product_self_s": s["graded.rieffel_product"],
        "rewrite.complete_s": i["rewrite.RuleSet.__init__"],
        "rewrite.rules": tr.rules,
        "rewrite.capped_sets": tr.capped_sets,
        "rewrite.normal_form_calls": c["rewrite.RuleSet.normal_form"],
        "rewrite.normal_form_self_s": s["rewrite.RuleSet.normal_form"],
        "rewrite.member_self_s": s["rewrite.ideal_member"] + s["rewrite.verify_certificate"],
        "cqg.delta_model_calls": c["cqg.CQGPresentation.delta_model"],
        "cqg.solve_haar_weights_s": i["cqg.solve_haar_weights"],
        "expr.parse_calls": c["expr.parse_element"],
        "expr.parse_self_s": s["expr.parse_element"] + s["expr.parse"],
    }
    layers = tr.layer_self_s()
    for layer, secs in layers.items():
        out[f"layer.{layer}.self_s"] = secs
        out[f"layer.{layer}.share"] = secs / wall
    out["layer.other.share"] = 1.0 - sum(layers.values()) / wall
    return out


def trace_mode(name, seed, seconds, start):
    build_times = {}
    built = workloads.setup(name, build_times)
    setup_tracer = tracing.Tracer().install()
    try:
        workloads.setup(name)
    finally:
        setup_tracer.uninstall()
    ops = workloads.round_ops(name, built, seed, load_expected())

    plain, traced = [], []
    while True:
        plain.append(run_round(ops))
        tr = tracing.Tracer().install()
        try:
            traced.append((run_round(ops), tr))
        finally:
            tr.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1].wall + traced[-1][0].wall > seconds:
            break

    extra = run_round(workloads.trace_only_ops(name, built, load_expected()))
    first, tr = traced[0]
    metrics = layer_metrics(tr, first.verify_s)
    metrics.update(micro_timings(built))
    metrics["cqg.checks"] = first.verdicts
    for check in HEAVY_CHECKS:
        vals = [r.check_s[check] for r in plain + [extra] if check in r.check_s]
        metrics[tracing.metric_name("cqg.check_s.", check)] = statistics.median(vals) if vals else 0.0
    for sc in SCENARIOS:
        metrics[f"catalog.build_s.{sc}"] = build_times.get(sc, 0.0)
    metrics["presfile.load_data_s"] = setup_tracer.incl_s["presfile.load_data"]
    metrics["trace.overhead_ratio"] = (statistics.median(r.verify_s for r, _ in traced)
                                       / statistics.median(r.verify_s for r in plain))
    repeat = all(t.calls == tr.calls for _, t in traced[1:])
    attempted, failed, failures = totals(plain + [r for r, _ in traced] + [extra])
    layers = tr.layer_self_s()
    return {
        "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "info": {
            "rounds_untraced": len(plain), "rounds_traced": len(traced),
            "counts_repeat": repeat,
            "largest_layer": max(layers, key=layers.get),
        },
    }


# ---------------------------------------------------------------------------
# measure / setup / record
# ---------------------------------------------------------------------------


def measure_mode(name, seed, seconds, start):
    built = workloads.setup(name)
    setup_s = time.perf_counter() - _T0
    ops = workloads.round_ops(name, built, seed, load_expected())
    pace = Pace()
    rounds = rounds_until(ops, seconds, start, pace)
    attempted, failed, failures = totals(rounds)
    raw = e2e_metrics(rounds)
    factor = pace.factor()
    metrics = {k: v * factor if k in SCALED else v for k, v in raw.items()}
    n_query = len(rounds[0].query_s)
    return {
        "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "setup_s": setup_s, "factor": factor,
        "info": {
            "pace_factor": factor, "pace_samples": pace.samples,
            "raw": {k: raw[k] for k in SCALED},
            "rounds": len(rounds),
            "round_verify_s": [round(r.verify_s, 4) for r in rounds],
            "query_samples_per_round": n_query,
            "query_tail_percentile": round(100.0 * (n_query - TAIL_BEYOND) / n_query, 2),
            "verdicts_per_round": rounds[0].verdicts,
            "ops_failed_share": failed / attempted,
        },
    }


def record_mode(name, seed):
    built = workloads.setup(name)
    ops = workloads.round_ops(name, built, seed, {}) + workloads.trace_only_ops(name, built, {})
    recorded = {}
    for op in ops:
        if op.kind == "query":
            continue
        recorded[op.name] = op.run()["verdicts"]
    data = load_expected() if os.path.exists(EXPECTED) else {}
    data[name] = recorded
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    res = run_round(workloads.round_ops(name, built, seed, data)
                    + workloads.trace_only_ops(name, built, data))
    return {"attempted": res.attempted, "failed": res.failed, "failures": res.failures}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace", "record"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    if args.mode == "setup":
        workloads.setup(args.workload)
        setup_s = time.perf_counter() - _T0
        pace = Pace()
        for _ in range(SETUP_PACE_SAMPLES):
            pace.sample(force=True)
        out = {"setup_s": setup_s, "factor": pace.factor()}
    elif args.mode == "measure":
        out = measure_mode(args.workload, args.seed, args.seconds, start)
    elif args.mode == "trace":
        out = trace_mode(args.workload, args.seed, args.seconds, start)
    else:
        out = record_mode(args.workload, args.seed)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
