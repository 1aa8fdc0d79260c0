"""The benchmark's workloads: what each sets up, and the ops of one round.

A round is a fixed list of ops, each one public ``qiso`` call:

- ``check`` ops run verification checks and yield check verdicts
  ``(name, mode, status, detail)``, compared with ``expected.json``;
- ``complete`` ops build a rewriting system and yield ``(rules, capped)``,
  also compared with ``expected.json``;
- ``query`` ops are seeded text queries (``Scenario.normal_form``,
  ``Scenario.membership``) or ``RuleSet.normal_form`` on seeded words.  A
  membership must answer YES with a certificate; a normal form must have the
  value of its input in a model (:mod:`model`), checked outside the timed
  region.

Every workload has a few queries and one completion, so that every metric
exists on every workload; on the two suite workloads they are a small share
of the round.  The seed picks the query texts and words only; the checks of
the suite workloads take no input.
"""

from __future__ import annotations

import random
from fractions import Fraction

import model as models

# parameter values at which generic-theta normal forms are compared
SAMPLE_THETAS = (0.2357022603955158, 0.7071067811865476)

WORKLOADS = {
    "suites-generic": {
        "theta": None,
        "suites": ["circle", "double-torus"],
        "coproduct_relation_stride": 24,
        "haar_degree": 1,
        "b_complete_cap": 3,
        "queries": {"torus-nf": 40, "circle-nf": 40, "torus-member": 30},
    },
    "deform-third": {
        "theta": "1/3",
        "deformed_hom_bound": 1,
        "haar_twist_bound": 1,
        "trace_only_twist_bound": 1,
        "coherence_len": 4,
        "b_complete_cap": 3,
        "queries": {"torus-nf": 60, "torus-member": 20},
    },
    "rewrite-generic": {
        "theta": None,
        "b_complete_cap": 4,
        "sphere_cap": 4,
        "queries": {"torus-nf": 120, "circle-nf": 80, "b-nf": 120,
                    "torus-member": 30, "circle-member": 20, "sphere-member": 40},
    },
}


def theta_of(params):
    return Fraction(params["theta"]) if params["theta"] is not None else None


class Op:
    """One timed public call and the judge of its outcome."""

    def __init__(self, name, kind, run, judge):
        self.name, self.kind, self.run, self.judge = name, kind, run, judge


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def scenarios_of(name):
    return {
        "suites-generic": ("circle", "torus", "double-torus"),
        "deform-third": ("torus",),
        "rewrite-generic": ("torus", "circle", "sphere"),
    }[name]


def setup(name, build_times=None):
    """``import qiso`` and every ``build`` the workload needs."""
    import time

    import qiso

    theta = theta_of(WORKLOADS[name])
    built = {}
    for sc in scenarios_of(name):
        t0 = time.perf_counter()
        built[sc] = qiso.build(sc, theta)
        if build_times is not None:
            build_times[sc] = time.perf_counter() - t0
    return built


# ---------------------------------------------------------------------------
# judges
# ---------------------------------------------------------------------------


def verdicts(report):
    return [[r.name, r.mode, r.status, r.detail] for r in report.results]


def judge_against(expected):
    """(attempted, failed) of a verdict list against the recorded one; a
    missing verdict, an extra one or one that differs in any field fails."""

    def judge(outcome):
        got = [] if isinstance(outcome, BaseException) else outcome["verdicts"]
        attempted = max(len(expected), len(got), 1)
        same = sum(1 for a, b in zip(expected, got) if list(a) == list(b))
        return attempted, attempted - same

    return judge


# ---------------------------------------------------------------------------
# check ops
# ---------------------------------------------------------------------------


def _report_op(name, fn, expected):
    def run():
        report = fn()
        return {"verdicts": verdicts(report),
                "seconds": {r.name: r.seconds for r in report.results}}

    return Op(name, "check", run, judge_against(expected.get(name, [])))


def _timed_check(check, mode, fn):
    """Wrap a call that returns (status, detail) as one verdict."""
    import time

    def run():
        t0 = time.perf_counter()
        status, detail = fn()
        return {"verdicts": [[check, mode, status, detail]],
                "seconds": {check: time.perf_counter() - t0}}

    return run


def suites_generic_checks(built, params, expected):
    from qiso import catalog, cqg

    ops = []
    for sc in params["suites"]:
        ops.append(_report_op(f"suite:{sc}", built[sc].suite, expected))
    tor = built["torus"]
    bp = tor.b_presentation
    ops.append(_report_op("torus:unitary-M", lambda: cqg.check_unitary_matrix(
        catalog.matrix_m(tor.family), name="M"), expected))
    ops.append(_report_op("torus:hom", lambda: cqg.check_hom(tor.action), expected))
    ops.append(_report_op("torus:coassoc", lambda: cqg.check_coassoc(bp, mode="model"), expected))
    ops.append(_report_op("torus:counit-antipode",
                          lambda: cqg.check_counit_antipode(bp, mode="model"), expected))

    stride = params["coproduct_relation_stride"]
    relations = bp.relations[::stride]

    def coproduct_kills():
        for i, r in enumerate(relations):
            if not bp.delta_model(r).is_zero():
                return "FAIL", f"relation {i * stride}: {r.render()}"
        return "PASS", f"{len(relations)} relations"

    name = "torus:coproduct-kills-relations"
    ops.append(Op(name, "check", _timed_check("coproduct-kills-relations", "model", coproduct_kills),
                  judge_against(expected.get(name, []))))

    degree = params["haar_degree"]

    def haar():
        weights, unique = cqg.solve_haar_weights(
            bp, degree=degree, extra_words=catalog.block_projector_words(bp.algebra))
        if unique and weights == [Fraction(1, 8)] * 8:
            return "PASS", "unique invariant weights, 1/8 per block"
        return "FAIL", f"weights {weights}, unique={unique}"

    name = "torus:haar-weights"
    ops.append(Op(name, "check", _timed_check("haar-weights", "model", haar),
                  judge_against(expected.get(name, []))))
    return ops


def deform_third_checks(built, params, expected):
    from qiso import catalog, cqg, graded

    tor = built["torus"]
    theta = theta_of(params)
    J = graded.j_torus()
    ops = [
        _report_op("deform:deformed-hom", lambda: cqg.check_deformed_hom(
            tor.action, J, degree_bound=params["deformed_hom_bound"]), expected),
        _report_op("deform:haar-twist", lambda: cqg.check_haar_twist_invariance(
            tor.model, [Fraction(1, 8)] * 8, J, degree_bound=params["haar_twist_bound"]),
            expected),
    ]
    max_len = params["coherence_len"]
    for c in (0, -1, -2):
        def coherence(c=c):
            n = catalog.nf_model_coherence(c, theta=theta, max_len=max_len)
            return "PASS", f"{n} words of length <= {max_len}"

        check = f"nf-model-coherence[e({c}t)]"
        name = f"deform:{check}"
        ops.append(Op(name, "check", _timed_check(check, "presentation", coherence),
                      judge_against(expected.get(name, []))))
    return ops


# ---------------------------------------------------------------------------
# completion ops
# ---------------------------------------------------------------------------


def _complete_op(name, fn, expected):
    def run():
        rs = fn()
        return {"verdicts": [[len(rs.rules), bool(rs.capped)]], "rules": rs}

    return Op(name, "complete", run, judge_against(expected.get(name, [])))


def completion_ops(name, built, params, expected, state):
    from qiso import presfile, rewrite

    bp = built["torus"].b_presentation
    cap = params["b_complete_cap"]

    def b_rules():
        rs = bp.rules(cap)
        state["b_rules"] = rs
        return rs

    ops = [_complete_op(f"complete:torus-b-cap{cap}", b_rules, expected)]
    if "sphere_cap" in params:
        sphere_cap = params["sphere_cap"]

        def sphere_rules():
            pres = presfile.load_data("sphere.pres")
            return rewrite.RuleSet(pres.algebra, pres.relations, sphere_cap)

        ops.append(_complete_op(f"complete:sphere-cap{sphere_cap}", sphere_rules, expected))
    return ops


# ---------------------------------------------------------------------------
# query ops
# ---------------------------------------------------------------------------


def _letters(alg):
    out = [(n, False) for n in alg.names]
    out += [(n, True) for n in alg.names if n not in alg.selfadjoint]
    return out


def _text(word):
    return " ".join(n + ("*" if st else "") for n, st in word)


def _word_element(alg, word):
    from qiso.freealg import Element

    out = Element.unit(alg)
    for n, st in word:
        out = out * alg.gen(n, star=st)
    return out


def _random_word(rng, letters, length):
    return [rng.choice(letters) for _ in range(length)]


def _thetas(theta):
    return (float(theta),) if theta is not None else SAMPLE_THETAS


def _repeat_judge(key_of, check):
    """Judge the first outcome with ``check``; every later one must repeat it."""
    first = {}

    def judge(outcome):
        if isinstance(outcome, BaseException):
            return 1, 1
        key = key_of(outcome)
        if "key" not in first:
            try:
                ok = check(outcome)
            except Exception:  # an output the check cannot read is wrong
                ok = False
            first["key"] = key if ok else None
        return 1, int(first["key"] != key)

    return judge


def _same_in_model(model_of, theta, word, elem):
    return all(models.same_value(model_of(th).word(word), model_of(th).element(elem, th))
               for th in _thetas(theta))


def _nf_ops(label, sc, model_of, theta, count, cap, rng):
    """Seeded Scenario.normal_form queries on words of length 1..cap."""
    alg = sc.nf_algebra
    letters = _letters(alg)
    ops = []
    for i in range(count):
        word = _random_word(rng, letters, 1 + i % cap)

        def check(outcome, word=word):
            from qiso.expr import parse_element

            elem = parse_element(outcome["text"], alg, sc.theta)
            return _same_in_model(model_of, theta, word, elem)

        ops.append(Op(f"query:{label}", "query",
                      lambda text=_text(word): {"text": sc.normal_form(text)},
                      _repeat_judge(lambda out: out["text"], check)))
    return ops


def _b_nf_ops(model_of, theta, count, cap, rng, alg, state):
    """Seeded RuleSet.normal_form queries on B-algebra words, against the
    rules the round's completion op built."""
    letters = _letters(alg)
    ops = []
    for i in range(count):
        word = _random_word(rng, letters, 1 + i % cap)

        def check(outcome, word=word):
            return _same_in_model(model_of, theta, word, outcome["nf"])

        ops.append(Op("query:b-nf", "query",
                      lambda elem=_word_element(alg, word): {"nf": state["b_rules"].normal_form(elem)},
                      _repeat_judge(lambda out: out["nf"].render(), check)))
    return ops


def _ideal_element(rng, relations, cap, i):
    """A nonzero sum c * u * r * v of 1 + i % 3 terms of degree <= cap; the
    index fixes the shape, the seed the letters, relations and constants."""
    from qiso.freealg import Element

    alg = relations[0].ambient
    letters = _letters(alg)
    for _ in range(100):
        p = Element.zero(alg)
        for j in range(1 + i % 3):
            r = rng.choice(relations)
            room = cap - r.deg()
            u = _random_word(rng, letters, (i + j) % (room + 1))
            v = _random_word(rng, letters, room - len(u))
            c = Fraction(rng.choice((1, -1, 2, -3))) / rng.choice((1, 2, 3))
            p = p + _word_element(alg, u) * r * _word_element(alg, v) * c
        if not p.is_zero():
            return p.render()
    raise RuntimeError("every generated ideal element cancelled to zero")


def _member_ops(label, sc, count, rng):
    ops = []
    for i in range(count):
        text = _ideal_element(rng, sc.member_relations, sc.member_cap, i)

        def judge(outcome):
            if isinstance(outcome, BaseException):
                return 1, 1
            status, cert = outcome["answer"]
            return 1, int(status != "YES" or not cert)

        ops.append(Op(f"query:{label}", "query",
                      lambda text=text: {"answer": sc.membership(text)}, judge))
    return ops


def query_ops(built, params, seed, state):
    theta = theta_of(params)
    counts = params["queries"]
    rng = random.Random(seed)
    ops = []
    models_cache = {}

    def cached(key, make):
        def get(th):
            if (key, th) not in models_cache:
                models_cache[(key, th)] = make(th)
            return models_cache[(key, th)]

        return get

    tor = built["torus"]
    for label, count in counts.items():
        if label == "torus-nf":
            ops += _nf_ops(label, tor, cached("torus", models.torus_model), theta, count,
                           tor.nf_rules.cap, rng)
        elif label == "circle-nf":
            sc = built["circle"]
            ops += _nf_ops(label, sc, cached("circle", lambda th: models.circle_model()),
                           theta, count, sc.nf_rules.cap, rng)
        elif label == "b-nf":
            fam = cached("family", lambda th: models.family_model(tor.family, tor.model, th))
            ops += _b_nf_ops(fam, theta, count, params["b_complete_cap"], rng,
                             tor.b_presentation.algebra, state)
        elif label.endswith("-member"):
            sc = built[label[: -len("-member")]]
            ops += _member_ops(label, sc, count, rng)
        else:
            raise KeyError(label)
    # interleave the query kinds so that each round mixes them the same way
    random.Random(seed + 1).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# the round
# ---------------------------------------------------------------------------


def trace_only_ops(name, built, expected):
    """Checks too long for a timed round, run once in the traced run."""
    if name != "deform-third":
        return []
    from qiso import cqg, graded

    tor = built["torus"]
    bound = WORKLOADS[name]["trace_only_twist_bound"]
    return [_report_op("deform:twist-identities", lambda: cqg.check_twist_identities(
        tor.action, graded.j_torus(), degree_bound=bound), expected.get(name, {}))]


def round_ops(name, built, seed, expected):
    """The ops of one round, in order: checks, completions, queries."""
    params = WORKLOADS[name]
    state = {}
    exp = expected.get(name, {})
    ops = []
    if name == "suites-generic":
        ops += suites_generic_checks(built, params, exp)
    elif name == "deform-third":
        ops += deform_third_checks(built, params, exp)
    ops += completion_ops(name, built, params, exp, state)
    ops += query_ops(built, params, seed, state)
    return ops
