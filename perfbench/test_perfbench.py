"""Tests of the benchmark's own parts: run with ``python -m pytest perfbench``."""

import itertools
import json
import re
import sys

import model
import tracer
import worker
import workloads

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def all_check_names():
    with open(worker.EXPECTED, encoding="utf-8") as fh:
        data = json.load(fh)
    names = set(worker.HEAVY_CHECKS)
    for ops in data.values():
        for verdicts in ops.values():
            names.update(v[0] for v in verdicts if isinstance(v[0], str))
    return sorted(names)


def test_metric_names_are_valid_and_collision_free():
    names = all_check_names()
    assert "hom[4]: -e(t) * V U + U V" in names
    mapped = [tracer.metric_name("cqg.check_s.", n) for n in names]
    assert all(NAME_RE.match(m) for m in mapped)
    assert len(set(mapped)) == len(names)
    # deterministic, and clean names are kept as they are
    assert mapped == [tracer.metric_name("cqg.check_s.", n) for n in names]
    assert tracer.metric_name("cqg.check_s.", "haar-weights") == "cqg.check_s.haar-weights"


def test_metric_names_separate_near_duplicates():
    raw = ["a b", "a_b", "a-b", "a  b", "a(b)", "a[b]", "x" * 80, "x" * 81]
    mapped = [tracer.metric_name("p.", r) for r in raw]
    assert all(NAME_RE.match(m) for m in mapped)
    assert len(set(mapped)) == len(raw)


def _bindings():
    """Every function-valued binding of the package: modules and classes."""
    import qiso  # noqa: F401

    out = {}
    for name, mod in sys.modules.items():
        if name == "qiso" or name.startswith("qiso."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("qiso"):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_patches_every_binding_and_restores_them():
    from qiso import catalog, cqg, freealg, graded, rewrite
    from qiso.scalars import Scalar

    catalog.build("torus")  # loads every module the traced calls touch
    before = _bindings()
    original = freealg.substitute
    tr = tracer.Tracer().install()
    try:
        # imported-by-name copies are wrapped together with the definition
        assert freealg.substitute is not original
        assert cqg.substitute is freealg.substitute
        assert catalog.substitute is freealg.substitute
        assert catalog.rieffel_product is graded.rieffel_product
        assert Scalar.__rmul__ is Scalar.__mul__
        sc = catalog.build("torus")
        sc.normal_form("V U V")
        rewrite.RuleSet(sc.nf_algebra, sc.member_relations, 4)
    finally:
        tr.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert tr.calls["catalog.build"] == 1
    assert tr.calls["rewrite.RuleSet.__init__"] >= 2
    assert tr.calls["scalars.Scalar.__mul__"] > 0
    assert tr.rules > 0
    layers = tr.layer_self_s()
    assert set(layers) == set(tracer.LAYERS)
    assert all(v >= 0 for v in layers.values())


def test_tracer_counts_repeat_exactly():
    from qiso import catalog

    sc = catalog.build("torus")
    counts = []
    for _ in range(2):
        with tracer.Tracer().install() as tr:
            sc.membership("U V - e(t) V U")
        counts.append(dict(tr.calls))
    assert counts[0] == counts[1]


def test_model_agrees_with_torus_normal_forms():
    from qiso import catalog
    from qiso.expr import parse_element

    sc = catalog.build("torus")
    letters = [("U", False), ("V", False), ("U", True), ("V", True)]
    m = model.torus_model(0.3)
    for n in (1, 2, 3):
        for word in itertools.product(letters, repeat=n):
            nf = parse_element(sc.normal_form(workloads._text(word)), sc.nf_algebra)
            assert model.same_value(m.word(word), m.element(nf, 0.3))


def test_model_detects_a_wrong_normal_form():
    from qiso import catalog
    from qiso.expr import parse_element

    sc = catalog.build("torus")
    m = model.torus_model(0.3)
    wrong = parse_element("U V", sc.nf_algebra)  # V U is e(-t) U V, not U V
    assert not model.same_value(m.word([("V", False), ("U", False)]), m.element(wrong, 0.3))


def test_queries_are_seeded():
    built = workloads.setup("rewrite-generic")

    def texts(seed):
        ops = workloads.query_ops(built, workloads.WORKLOADS["rewrite-generic"], seed, {})
        return [(op.name, op.run.__defaults__) for op in ops if op.run.__defaults__]

    assert repr(texts(3)) == repr(texts(3))
    assert repr(texts(3)) != repr(texts(4))


def test_tail_has_ten_samples_beyond():
    samples = list(range(100))
    assert worker.tail(samples) == 89
    assert worker.tail(list(range(11))) == 0


def test_raising_check_is_a_failed_op():
    def boom():
        raise RuntimeError("check raised")

    op = workloads.Op("x", "check", boom, workloads.judge_against([["a", "model", "PASS", ""]] * 3))
    res = worker.run_round([op])
    assert (res.attempted, res.failed) == (3, 3)
    assert res.failures and "check raised" in res.failures[0]


def test_benchmark_json_is_well_formed():
    import run

    spec = run.load_spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] and len(w["why"]) <= 200
               for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert NAME_RE.match(m["name"])
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in spec["per_layer"]]
    assert all(tracer.metric_name("cqg.check_s.", c) in names for c in worker.HEAVY_CHECKS)


def test_pace_weighs_samples_by_the_time_they_stand_for(monkeypatch):
    import pace

    # per sample: start, timed start, timed end, end; 2 ms, then 1 ms after 1 s of work
    clock = iter([0.0, 0.0, 0.002, 0.002, 1.0, 1.0, 1.001, 1.001, 1.01])
    monkeypatch.setattr(pace.time, "perf_counter", lambda: next(clock))
    p = pace.Pace()
    p.sample()
    p.sample()
    p.sample()  # 9 ms after the last one: within GAP_S, so no sample
    mean = (pace.GAP_S * 0.002 + 0.998 * 0.001) / (pace.GAP_S + 0.998)
    assert p.samples == 2
    assert abs(p.factor() - pace.REFERENCE_S / mean) < 1e-12
