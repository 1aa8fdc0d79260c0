"""Quantum-group presentations and the verification toolbox.

A :class:`CQGPresentation` packages generators, star-closed relations and the
coproduct / counit / antipode tables, plus (optionally) a concrete graded
model in which every check is decisive.  An :class:`ActionSpec` is a
generator-to-element map from a source algebra into source (x) quantum group.

Every check runs in one of two modes:

- presentation mode: bounded-degree rewriting modulo the relation set; a nonzero
  normal form or an input beyond the cap yields UNDECIDED at that cap, never FAIL;
- model mode: exact evaluation in a graded block algebra; always decisive.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

from .freealg import (
    Element,
    FreeAlgebra,
    TensorAlgebra,
    _render_key,
    same_ambient,
    substitute,
    substitute_factors,
    tensor,
)
from .graded import (
    DirectSum,
    Laplacian,
    SkewMatrix,
    block_diag,
    collapse_phase,
    j_double,
    phased_product,
    rieffel_product,
    tau,
    twist_phase,
)
from .rewrite import DegreeOverflow, RuleSet, reduce_tensor
from .scalars import Scalar

Frac = Fraction

PASS = "PASS"
FAIL = "FAIL"
UNDECIDED = "UNDECIDED"
SKIPPED = "SKIPPED"


class NotHopfIdeal(ValueError):
    """The coproduct does not descend to the requested quotient."""


class CounitSolveError(ValueError):
    """The counit equations have no unique solution on the generators."""


@dataclass
class CheckResult:
    name: str
    mode: str  # "presentation" | "model"
    status: str  # PASS / FAIL / UNDECIDED / SKIPPED
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self):
        return {
            "name": self.name,
            "mode": self.mode,
            "status": self.status,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
        }


class Report:
    """Deterministically ordered list of check results."""

    def __init__(self, name: str):
        self.name = name
        self.results: list[CheckResult] = []

    def add(self, result: CheckResult):
        self.results.append(result)
        return result

    def extend(self, other: "Report"):
        """Append the rows of ``other``, in order."""
        self.results.extend(other.results)

    def run(self, name, mode, fn) -> CheckResult:
        """Run one check.  An input beyond the rewriting cap leaves a
        presentation check UNDECIDED; any other error is raised."""
        t0 = time.monotonic()
        try:
            status, detail = fn()
        except Exception as exc:  # surface, do not hide, genuine errors
            if mode != "presentation" or not isinstance(exc, DegreeOverflow):
                raise RuntimeError(f"check {name} raised") from exc
            status, detail = UNDECIDED, str(exc)
        return self.add(CheckResult(name, mode, status, detail, time.monotonic() - t0))

    @property
    def statuses(self):
        return [r.status for r in self.results]

    def ok(self) -> bool:
        return all(r.status in (PASS, SKIPPED) for r in self.results)

    def to_dict(self):
        return {"suite": self.name, "checks": [r.to_dict() for r in self.results]}


def _nonzero(mode: str):
    """The detail of one nonzero residue."""
    return lambda v: f"nonzero {'model value' if mode == 'model' else 'normal form'}: {v.render()}"


def residue_verdict(mode: str, residues, detail, cap: int | None = None) -> tuple:
    """PASS when every residue is zero; else FAIL in model mode, where a
    residue is exact, and UNDECIDED in presentation mode, where it is a normal
    form at rewriting cap ``cap``.  ``detail(*residues)`` renders only then."""
    if all(r.is_zero() for r in residues):
        return PASS, ""
    if mode == "model":
        return FAIL, detail(*residues)
    return UNDECIDED, f"{detail(*residues)} (cap {cap})"


# ---------------------------------------------------------------------------
# presentations and actions
# ---------------------------------------------------------------------------


def star_close(relations) -> list:
    """Close a relation list under the involution: append each r* that is not
    already in the list up to sign, in the order of ``relations``.

    r* = q or r* = -q needs the same monomials on both sides, so the kept
    relations are hashed by support and each r* is compared, coefficient by
    coefficient, only with the relations of its own support.  Relations over
    different algebras raise ``ValueError``.
    """
    out = list(relations)
    if any(not same_ambient(out[0].ambient, r.ambient) for r in out):
        raise ValueError("elements of different ambient algebras")
    by_support: dict = {}
    for q in out:
        by_support.setdefault(frozenset(q.t), []).append(q)
    for r in relations:
        rs = r.star()
        bucket = by_support.setdefault(frozenset(rs.t), [])
        if not any(_equal_up_to_sign(rs.t, q.t) for q in bucket):
            out.append(rs)
            bucket.append(rs)
    return out


def _equal_up_to_sign(a: dict, b: dict) -> bool:
    """Whether two term dicts over the same monomials agree, or agree after
    negating one of them."""
    return all(c == b[m] for m, c in a.items()) or all(c == -b[m] for m, c in a.items())


@dataclass
class CQGPresentation:
    """Generators + relations + Hopf tables, with an optional concrete model.

    ``relations`` is not mutated after construction, nor are ``coproduct``
    and ``model`` once a coproduct has been evaluated in the model: the
    star-closed relations and the coproduct images in model (x) model are
    computed once, on first use, and reused.
    """

    algebra: FreeAlgebra
    relations: list = field(default_factory=list)
    coproduct: dict | None = None  # name -> Element in algebra (x) algebra
    counit: dict | None = None  # name -> Scalar
    antipode: dict | None = None  # name -> Element in algebra
    model: dict | None = None  # name -> Element in model ambient
    model_ambient: object | None = None
    name: str = ""

    @functools.cached_property
    def star_closed_relations(self) -> list:
        return star_close(self.relations)

    def rules(self, cap: int) -> RuleSet:
        return RuleSet(self.algebra, self.star_closed_relations, cap)

    def in_model(self, elem: Element) -> Element:
        assert self.model is not None
        return substitute(elem, self.model)

    def delta(self, elem: Element) -> Element:
        assert self.coproduct is not None
        return substitute(elem, self.coproduct)

    @functools.cached_property
    def delta_images(self) -> dict:
        """The coproduct of each generator, evaluated in model (x) model."""
        return {n: substitute_factors(d, [self.model, self.model]) for n, d in self.coproduct.items()}

    def delta_model(self, elem: Element) -> Element:
        """Coproduct of a free element, evaluated in model (x) model."""
        return substitute(elem, self.delta_images)


@dataclass
class ActionSpec:
    """An action table  source generator -> element of  source (x) target.

    ``table`` is not mutated after construction: the images alpha(U^m V^n)
    are memoised in ``monomials`` on first use (:func:`alpha_monomial`).
    """

    source: FreeAlgebra
    source_relations: list
    table: dict  # name -> Element in Tensor(source ambient, target ambient)
    source_rules: RuleSet | None = None  # reduction of the source factor (None = exact)
    name: str = ""
    monomials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply(self, elem: Element) -> Element:
        return substitute(elem, self.table)

    def reduce(self, elem: Element) -> Element:
        if self.source_rules is None:
            return elem
        return reduce_tensor(elem, (self.source_rules, None))


# ---------------------------------------------------------------------------
# homomorphism / extraction / isometry
# ---------------------------------------------------------------------------


def check_hom(act: ActionSpec) -> Report:
    """The action respects every source relation (modulo target relations)."""
    report = Report(f"hom:{act.name}")
    mode = "model" if act.source_rules is None else "presentation"
    cap = getattr(act.source_rules, "cap", None)
    for i, r in enumerate(act.source_relations):
        def one(r=r):
            return residue_verdict(mode, [act.reduce(act.apply(r))], _nonzero(mode), cap)

        report.run(f"hom[{i}]: {r.render()}", mode, one)
    return report


def extract_relations(act: ActionSpec, relation: Element, targets=None) -> list:
    """Coefficient extraction: expand the action on a source relation and
    return the target-side coefficient of each basis monomial of the source.

    The image lives in source (x) target; a ``relation`` that already lives
    there is taken as the image itself.  The source factor is reduced to its
    monomial basis first (via the per-factor ruleset, or exactly if the
    source factor is a graded model).  ``targets`` optionally restricts to a
    list of source basis monomials.
    """
    image = relation if isinstance(relation.ambient, TensorAlgebra) else act.apply(relation)
    image = act.reduce(image)
    amb = image.ambient
    assert isinstance(amb, TensorAlgebra)
    q_amb = amb.factors[1]
    buckets: dict = {}
    for (am, qm), c in image.t.items():
        buckets.setdefault(am, Element.zero(q_amb))._add_term(qm, c)
    if targets is not None:
        return [buckets.get(t, Element.zero(q_amb)) for t in targets]
    keys = sorted(buckets, key=_render_key)
    return [buckets[k] for k in keys if not buckets[k].is_zero()]


def monic(elem: Element) -> Element:
    """Scale so the term-order-leading coefficient is 1 (or -x to x form)."""
    if elem.is_zero():
        return elem
    lead = max(elem.t, key=_render_key)
    c = elem.t[lead]
    if c.is_unit():
        return elem * c.inv()
    return elem


def canonical_set(elems) -> list:
    """Canonical multiset of relations: monic normalisation, rendered, sorted."""
    return sorted(monic(e).render() for e in elems if not e.is_zero())


def alpha_monomial(act: ActionSpec, m: int, n: int) -> Element:
    """alpha(U^m V^n) = alpha(U)^m alpha(V)^n for the two source generators
    U, V of the action; a negative power is a power of the adjoint image.

    Each image is the image one letter shorter times the image of its last
    letter, memoised in ``act.monomials``; callers must not mutate it.
    """
    out = act.monomials.get((m, n))
    if out is None:
        if n or m:
            i, k = (1, n) if n else (0, m)
            step = 1 if k > 0 else -1
            base = act.table[act.source.names[i]]
            prev = alpha_monomial(act, m, n - step) if n else alpha_monomial(act, m - step, 0)
            out = prev * (base if step > 0 else base.star())
        else:
            amb = next(iter(act.table.values())).ambient
            out = tensor(Element.unit(amb.factors[0]), Element.unit(amb.factors[1]))
        act.monomials[(m, n)] = out
    return out


def alpha_of(act: ActionSpec, x: Element) -> Element:
    """alpha extended linearly over x, an element of the action's source
    block (monomials U^m V^n)."""
    out = Element.zero(alpha_monomial(act, 0, 0).ambient)
    for (m, n), c in x.t.items():
        for mono, d in alpha_monomial(act, m, n).t.items():
            out._add_term(mono, d * c)
    return out


def check_isometry(act: ActionSpec, monomials) -> Report:
    """One ``isometry`` check: every source monomial in the image of an
    eigenvector of the flat Laplacian has the same eigenvalue.  The source
    factor must be a graded model."""
    report = Report(f"isometry:{act.name}")
    a_amb = next(iter(act.table.values())).ambient.factors[0]
    laplacian = Laplacian()

    def isometry():
        for m, n in monomials:
            ev = laplacian.eigenvalue((m, n))
            bad = [a_amb.render_mono(am) for (am, _qm) in alpha_monomial(act, m, n).t
                   if laplacian.eigenvalue(a_amb.degree_vec(am)) != ev]
            if bad:
                return FAIL, f"isometry[{m},{n}]: eigenvalue not preserved on {bad}"
        return PASS, f"{len(monomials)} monomials"

    report.run("isometry", "model", isometry)
    return report


# ---------------------------------------------------------------------------
# Hopf axioms
# ---------------------------------------------------------------------------


def check_coassoc(P: CQGPresentation, cap: int | None = None, mode: str = "presentation") -> Report:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every generator."""
    report = Report(f"coassoc:{P.name}")
    # built by the first check that reduces, so that its time is counted there
    rules = functools.cache(lambda: P.rules(cap))
    for g in P.algebra.names:
        def one(g=g):
            dg = P.coproduct[g]
            diff = substitute_factors(dg, [P.coproduct, None]) - substitute_factors(dg, [None, P.coproduct])
            residue = (substitute_factors(diff, [P.model] * 3) if mode == "model"
                       else reduce_tensor(diff, (rules(),) * 3))
            return residue_verdict(mode, [residue], _nonzero(mode), cap)

        report.run(f"coassoc[{g}]", mode, one)
    return report


def counit_of_word(alg: FreeAlgebra, w, eps_table) -> Scalar:
    """epsilon extended as a *-homomorphism over a word."""
    out = Scalar.one()
    for let in w:
        gi, st = divmod(let, 2)
        v = eps_table[alg.names[gi]]
        out = out * (v.conj() if st else v)
    return out


def apply_counit_factor(elem: Element, eps_table, which: int) -> Element:
    """Collapse one tensor factor of  alg (x) alg  through the counit."""
    amb = elem.ambient
    assert isinstance(amb, TensorAlgebra) and len(amb.factors) == 2
    alg = amb.factors[which]
    keep = amb.factors[1 - which]
    out = Element.zero(keep)
    for (m0, m1), c in elem.t.items():
        w = (m0, m1)[which]
        kw = (m0, m1)[1 - which]
        out._add_term(kw, c * counit_of_word(alg, w, eps_table))
    return out


def apply_antipode_to_relation(r: Element, kappa_images: dict, target=None) -> Element:
    """kappa extended as a linear antihomomorphism: reverse each word and map
    letters through the table (starred letters to the starred image, which is
    valid when kappa squares to the identity); coefficients are untouched."""
    reversed_words = Element(r.ambient, {w[::-1]: c for w, c in r.t.items()})
    return substitute(reversed_words, kappa_images, target)


def check_counit_antipode(P: CQGPresentation, cap: int | None = None, mode: str = "presentation") -> Report:
    """Counit laws, antipode laws, and Hopf compatibility on relations."""
    report = Report(f"counit-antipode:{P.name}")
    rules = functools.cache(lambda: P.rules(cap))  # built inside the first check using it

    def residue(elem: Element) -> Element:
        """A free element in the model, or its normal form modulo the relations."""
        return P.in_model(elem) if mode == "model" else rules().normal_form(elem)

    def two_sided(left: Element, right: Element):
        return residue_verdict(mode, [residue(left), residue(right)], lambda dl, dr: (
            f"left residue {dl.render()}, right residue {dr.render()}"), cap)

    for g in P.algebra.names:
        def counit_law(g=g):
            dg = P.coproduct[g]
            lhs = apply_counit_factor(dg, P.counit, 0)
            rhs = apply_counit_factor(dg, P.counit, 1)
            ge = P.algebra.gen(g)
            return two_sided(lhs - ge, rhs - ge)

        report.run(f"counit[{g}]", mode, counit_law)

    if P.antipode is not None:
        for g in P.algebra.names:
            def antipode_law(g=g):
                lhs = Element.zero(P.algebra)
                rhs = Element.zero(P.algebra)
                for (w1, w2), c in P.coproduct[g].t.items():
                    x1, x2 = Element(P.algebra, {w1: Scalar.one()}), Element(P.algebra, {w2: Scalar.one()})
                    # m(kappa (x) id) and m(id (x) kappa); kappa is conjugate
                    # linear on coefficients, so re-attach c carefully: the
                    # term c*(w1 (x) w2) contributes kappa(w1)*c*w2.
                    lhs = lhs + apply_antipode_to_relation(x1, P.antipode, P.algebra) * c * x2
                    rhs = rhs + x1 * c * apply_antipode_to_relation(x2, P.antipode, P.algebra)
                target = Element.unit(P.algebra) * P.counit[g]
                return two_sided(lhs - target, rhs - target)

            report.run(f"antipode[{g}]", mode, antipode_law)

    for i, r in enumerate(P.relations):
        def eps_kills(r=r):
            v = Scalar.zero()
            for w, c in r.t.items():
                v = v + c * counit_of_word(P.algebra, w, P.counit)
            return (PASS, "") if v.is_zero() else (FAIL, f"epsilon(relation) = {v.render()}")

        report.run(f"counit-kills-relation[{i}]", "presentation", eps_kills)

    if P.antipode is not None:
        for i, r in enumerate(P.relations):
            def kappa_preserves(r=r):
                img = apply_antipode_to_relation(r, P.antipode, P.algebra)
                return residue_verdict(mode, [residue(img)],
                                       lambda d: f"kappa image residue {d.render()}", cap)

            report.run(f"antipode-preserves-relation[{i}]", mode, kappa_preserves)
    return report


# ---------------------------------------------------------------------------
# exact rational elimination, and counit solving for presentations without a table
# ---------------------------------------------------------------------------


def _scalar_coords(scalars):
    """Decompose Scalars into exact rational coordinate vectors on a common
    basis of (formal exponent, cyclotomic power-basis index) pairs."""
    N = math.lcm(*(cy.n for s in scalars for cy in s.terms.values()))
    keys = []
    seen = {}
    rows = []
    for s in scalars:
        row = {}
        for expo, cy in s.terms.items():
            for i, v in enumerate(cy.coords(N)):
                if v:
                    key = (expo, i)
                    if key not in seen:
                        seen[key] = len(keys)
                        keys.append(key)
                    row[seen[key]] = row.get(seen[key], Frac(0)) + v
        rows.append(row)
    return [[row.get(j, Frac(0)) for j in range(len(keys))] for row in rows]


def _solve_rational(rows, rhs):
    """Gaussian elimination over Fractions.  Returns (solution, unique) or
    raises ValueError when inconsistent."""
    m = [list(r) + [v] for r, v in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][-1] != 0:
            raise ValueError("inconsistent linear system")
    unique = len(pivots) == ncols
    sol = [Frac(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][-1]
    return sol, unique


def solve_counit(P: CQGPresentation, cap: int) -> dict:
    """Solve (epsilon (x) id) Delta(g) = g for rational counit values.

    Epsilon is posed as a multiplicative *-functional with one rational
    unknown per generator, so epsilon(word) is a monomial in the unknowns,
    kept as an exponent tuple with a Fraction coefficient.  The system is
    solved by propagation: an equation whose part left after substituting
    the values found so far is c * eps_g (plus a constant) fixes eps_g.
    Every unknown must be fixed, and every equation must then hold exactly;
    otherwise :class:`CounitSolveError` is raised.
    """
    alg = P.algebra
    rules = P.rules(cap)
    nvars = len(alg.names)
    const = (0,) * nvars

    def add(eq, key, c):
        eq[key] = eq.get(key, 0) + c

    equations = []
    for g in alg.names:
        per_mono: dict = {}
        for (w1, w2), c in P.coproduct[g].t.items():
            # rational values are self-conjugate: a letter and its adjoint count alike
            e = tuple(sum(let // 2 == i for let in w1) for i in range(nvars))
            for m, cc in rules.normal_form(Element(alg, {w2: c})).t.items():
                add(per_mono.setdefault(m, {}), e, cc)
        for m, cc in rules.normal_form(alg.gen(g)).t.items():
            add(per_mono.setdefault(m, {}), const, -cc)
        equations.extend(per_mono.values())
    if not all(c.is_rational() for eq in equations for c in eq.values()):
        raise CounitSolveError("non-rational counit equation")
    equations = [{e: c.rational_value() for e, c in eq.items()} for eq in equations]

    values: dict = {}

    def substituted(eq):
        out: dict = {}
        for e, c in eq.items():
            for i, v in values.items():
                c *= v ** e[i]
            add(out, tuple(0 if i in values else x for i, x in enumerate(e)), c)
        return {e: c for e, c in out.items() if c}

    fixed = True
    while fixed:
        fixed = False
        for eq in equations:
            rest = substituted(eq)
            unknown = [e for e in rest if e != const]
            if len(unknown) == 1 and sum(unknown[0]) == 1:
                e = unknown[0]
                values[e.index(1)] = -rest.get(const, Frac(0)) / rest[e]
                fixed = True
    if len(values) != nvars or any(substituted(eq) for eq in equations):
        raise CounitSolveError(f"counit system fixes {len(values)} of {nvars} values")
    return {n: Scalar.rational(values[i]) for i, n in enumerate(alg.names)}


# ---------------------------------------------------------------------------
# matrices and quotients
# ---------------------------------------------------------------------------


def check_unitary_matrix(M, rules: Callable[[], RuleSet] | None = None, name: str = "matrix") -> Report:
    """All entries of MM* - I and M*M - I vanish (exactly, or modulo the
    system that ``rules()`` builds once, inside the first entry check)."""
    report = Report(f"unitary:{name}")
    n = len(M)
    amb = M[0][0].ambient
    one = Element.unit(amb)
    mode = "model" if rules is None else "presentation"
    if rules is not None:
        rules = functools.cache(rules)
    for i in range(n):
        for j in range(n):
            def entry(i=i, j=j):
                lhs = Element.zero(amb)
                rhs = Element.zero(amb)
                for k in range(n):
                    lhs = lhs + M[i][k] * M[j][k].star()
                    rhs = rhs + M[k][i].star() * M[k][j]
                delta = one if i == j else Element.zero(amb)
                d1, d2 = lhs - delta, rhs - delta
                if rules is not None:
                    d1, d2 = rules().normal_form(d1), rules().normal_form(d2)
                return residue_verdict(mode, [d1, d2], lambda d1, d2: (
                    f"MM*[{i}{j}]: {d1.render()}; M*M[{i}{j}]: {d2.render()}"),
                    None if rules is None else rules().cap)

            report.run(f"{name}[{i},{j}]", mode, entry)
    return report


def hopf_quotient(P: CQGPresentation, killed, rename: dict | None = None) -> CQGPresentation:
    """Quotient by the ideal generated by ``killed`` generators.

    Verifies the coproduct descends: every term of Delta(killed generator)
    must contain a killed letter in one of its tensor legs.  Raises
    :class:`NotHopfIdeal` otherwise.
    """
    alg = P.algebra
    killed = set(killed)
    # the name of each surviving generator in the quotient
    new_name = {n: (rename or {}).get(n, n) for n in alg.names if n not in killed}
    new_alg = FreeAlgebra(new_name.values(),
                          selfadjoint={new_name[n] for n in alg.selfadjoint if n in new_name})

    def word_hits_killed(w):
        return any(alg.names[let // 2] in killed for let in w)

    for g in killed:
        for (w1, w2), _c in P.coproduct[g].t.items():
            if not (word_hits_killed(w1) or word_hits_killed(w2)):
                raise NotHopfIdeal(
                    f"Delta({g}) has the killed-letter-free term "
                    f"{alg.render_mono(w1)} (x) {alg.render_mono(w2)}"
                )

    images = {}
    for n in alg.names:
        images[n] = Element.zero(new_alg) if n in killed else new_alg.gen(new_name[n])

    relations = []
    for r in P.relations:
        img = substitute(r, images, target=new_alg)
        if not img.is_zero():
            relations.append(img)

    coproduct = {new: substitute_factors(P.coproduct[n], [images, images])
                 for n, new in new_name.items()}
    counit = {new: P.counit[n] for n, new in new_name.items()} if P.counit else None
    antipode = None
    if P.antipode is not None:
        antipode = {new: substitute(P.antipode[n], images, target=new_alg)
                    for n, new in new_name.items()}

    model = None
    model_ambient = None
    if P.model is not None and isinstance(P.model_ambient, DirectSum):
        killed_blocks = set()
        for g in killed:
            for (k, _e) in P.model[g].t:
                killed_blocks.add(k)
        keep = [k for k in range(len(P.model_ambient.blocks)) if k not in killed_blocks]
        model_ambient = DirectSum(
            [P.model_ambient.blocks[k] for k in keep],
            [P.model_ambient.block_names[k] for k in keep],
        )
        reindex = {k: i for i, k in enumerate(keep)}
        model = {}
        for n, new in new_name.items():
            e = Element.zero(model_ambient)
            for (k, expo), c in P.model[n].t.items():
                if k in reindex:
                    e._add_term((reindex[k], expo), c)
            model[new] = e
    return CQGPresentation(
        algebra=new_alg,
        relations=relations,
        coproduct=coproduct,
        counit=counit,
        antipode=antipode,
        model=model,
        model_ambient=model_ambient,
        name=f"{P.name}/({', '.join(sorted(killed))})",
    )


# ---------------------------------------------------------------------------
# deformed-action and two-sided-twist checks
# ---------------------------------------------------------------------------


def bullet_product(x: Element, y: Element, Jb: SkewMatrix) -> Element:
    """(a (x) q) bullet_J (b (x) r) = (a x_J b) (x) (q twisted by Jtilde r):
    the Rieffel product for ``Jb = block_diag(J, j_double(J))`` on the source
    degree followed by the target bidegree."""
    a_amb, q_amb = x.ambient.factors
    return rieffel_product(
        x, y, Jb, grading=lambda m: a_amb.degree_vec(m[0]) + q_amb.bidegree(m[1]),
    )


def check_deformed_hom(act: ActionSpec, J, degree_bound: int = 3) -> Report:
    """alpha(a) bullet_J alpha(b) = alpha(a x_J b) on all monomial pairs of
    componentwise degree <= degree_bound (model mode, exact)."""
    report = Report(f"deformed-hom:{act.name}")
    a_amb = next(iter(act.table.values())).ambient.factors[0]
    rng = range(-degree_bound, degree_bound + 1)
    monos = [(m, n) for m in rng for n in rng]

    def deformed_hom():
        Jb = block_diag(J, j_double(J))
        failures = []
        for mn1 in monos:
            a = a_amb.monomial(mn1)
            for mn2 in monos:
                lhs = bullet_product(alpha_monomial(act, *mn1), alpha_monomial(act, *mn2), Jb)
                rhs = alpha_of(act, rieffel_product(a, a_amb.monomial(mn2), J))
                if lhs != rhs:
                    failures.append((mn1, mn2))
        pairs = len(monos) ** 2
        if failures:
            return FAIL, f"{len(failures)}/{pairs} pairs differ, e.g. {failures[0]}"
        return PASS, f"{pairs} monomial pairs"

    report.run("deformed-hom", "model", deformed_hom)
    return report


def odot(x: Element, y: Element, Jt: SkewMatrix) -> Element:
    """The quantum-group twisted product: the Rieffel product for
    ``Jt = j_double(J)`` on the bidegree grading."""
    return rieffel_product(x, y, Jt, grading=x.ambient.bidegree)


def check_twist_identities(act: ActionSpec, J, degree_bound: int = 2) -> Report:
    """Convolution/twist identities on bihomogeneous monomials.

    All oscillatory integrals are replaced by their exact phase-collapse
    values  int int e(c1.u + c2.v + u.v) du dv = e(-c1.c2), taken on the left
    or right characters (halves of a bidegree) as phases of ``phased_product``.
    """
    report = Report("twist-identities")
    a_amb, q_amb = next(iter(act.table.values())).ambient.factors
    rng = range(-degree_bound, degree_bound + 1)
    monos = [(m, n) for m in rng for n in rng]
    Jt = j_double(J)

    def left_phase(p, q):
        # int (Omega(Ju) conv x) odot (Omega(v) conv y) e(u.v)
        return collapse_phase(p[:2], J, q[:2]) * twist_phase(p, Jt, q)

    def right_phase(p, q):
        # int (x conv Omega(Ju)) (y conv Omega(v)) e(u.v)
        return collapse_phase(p[2:], J, q[2:])

    def q_grading(m):
        return q_amb.bidegree(m[1])

    def twist_interchange():
        q_monos = sorted({qm for mn in monos for (_am, qm) in alpha_monomial(act, *mn).t},
                         key=_render_key)
        for mx in q_monos:
            x = Element(q_amb, {mx: Scalar.one()})
            for my in q_monos:
                y = Element(q_amb, {my: Scalar.one()})
                lhs = phased_product(x, y, left_phase, q_amb.bidegree)
                rhs = phased_product(x, y, right_phase, q_amb.bidegree)
                if lhs != rhs:
                    return FAIL, f"pair {q_amb.render_mono(mx)}, {q_amb.render_mono(my)}"
        return PASS, f"{len(q_monos) ** 2} bihomogeneous pairs"

    def right_character_grading():
        # alpha(alpha_u(a)) = a_(1) (x) (id (x) Omega(u)) Delta(a_(2)):
        # per term of alpha(a), the right character of the quantum-group leg
        # must equal the torus degree of a.
        for (m, n) in monos:
            for (_am, qm) in alpha_monomial(act, m, n).t:
                chi = q_amb.bidegree(qm)[2:]
                if chi != (m, n):
                    return FAIL, f"term of alpha({m},{n}) has right character {chi}"
        return PASS, f"{len(monos)} monomials"

    def pair_identity(lhs, phase):
        """The check that lhs(mn1, mn2) is the product of alpha(mn1) and
        alpha(mn2) with ``phase``, on every monomial pair."""
        def check():
            for mn1 in monos:
                x = alpha_monomial(act, *mn1)
                for mn2 in monos:
                    rhs = phased_product(x, alpha_monomial(act, *mn2), phase, q_grading)
                    if lhs(mn1, mn2) != rhs:
                        return FAIL, f"pair {mn1}, {mn2}"
            return PASS, f"{len(monos) ** 2} pairs"

        return check

    report.run("twist-interchange", "model", twist_interchange)
    report.run("right-character-grading", "model", right_character_grading)
    # alpha(a x_J b) = a1 b1 (x) int (a2 conv Omega(Ju)) (b2 conv Omega(v)) e(u.v)
    report.run("action-of-deformed-product", "model", pair_identity(lambda mn1, mn2: alpha_of(
        act, rieffel_product(a_amb.monomial(mn1), a_amb.monomial(mn2), J)), right_phase))
    # alpha(a) bullet_J alpha(b)
    #   = a1 b1 (x) int (Omega(Ju) conv a2) odot (Omega(v) conv b2) e(u.v)
    Jb = block_diag(J, Jt)
    report.run("deformed-product-of-action", "model", pair_identity(
        lambda mn1, mn2: bullet_product(alpha_monomial(act, *mn1), alpha_monomial(act, *mn2), Jb),
        left_phase))
    return report


# ---------------------------------------------------------------------------
# Haar functional
# ---------------------------------------------------------------------------


def check_haar_twist_invariance(model_ambient: DirectSum, weights, J, degree_bound: int = 3) -> Report:
    """h(a x_Jtilde b) = h(ab) on all monomial pairs of degree <= bound, and
    the two-sided torus action fixes h symbolically.  h is the Haar state
    ``tau(., weights)``; the weights are checked once, here, and must sum to
    1 (ValueError otherwise)."""
    if sum(weights) != 1:
        raise ValueError("Haar weights must sum to 1")
    report = Report("haar-twist")
    rng = range(-degree_bound, degree_bound + 1)
    monos = [(k, (m, n)) for k in range(len(model_ambient.blocks)) for m in rng for n in rng]

    def invariance():
        Jt = j_double(J)
        one = Scalar.one()
        # the phase of a x_Jtilde b minus that of ab, memoised by the integer
        # form pair of the degrees, which fixes the phase (SkewMatrix.forms)
        defects = {}

        def twist_defect(p, q):
            key = Jt.forms(p, q)
            d = defects.get(key)
            if d is None:
                d = defects[key] = twist_phase(p, Jt, q) - one
            return d

        # Both products of a same-block pair (k, e1), (k, e2) are one term at
        # exponent e1 + e2 or zero, and tau reads only exponent zero; so each
        # m1 has one pair that can fail, with (k, -e1), and only that product
        # is formed.  Cross-block products vanish on both sides.  Every
        # same-block pair is counted: the len(rng)^2 monomials of m1's block.
        for m1 in monos:
            m2 = (m1[0], tuple(-x for x in m1[1]))
            a = Element(model_ambient, {m1: one})
            b = Element(model_ambient, {m2: one})
            # h(a x_Jtilde b) - h(ab) = h(a x_Jtilde b - ab), one product
            diff = phased_product(a, b, twist_defect, model_ambient.bidegree)
            if not tau(diff, weights).is_zero():
                return FAIL, f"pair {m1}, {m2}"
        return PASS, f"{len(monos) * len(rng) ** 2} same-block monomial pairs"

    def action_invariance():
        # lambda_(s,u) multiplies a bihomogeneous monomial by a phase that is
        # 1 whenever the degree-zero coefficient survives.
        for m in monos:
            if any(m[1]):
                continue
            bd = model_ambient.bidegree(m)
            if any(bd):
                return FAIL, f"degree-zero monomial {m} has nonzero bidegree {bd}"
        return PASS, "h(lambda_(s,u)(x)) = h(x) on all monomials"

    report.run("haar-twist-invariance", "model", invariance)
    report.run("haar-action-invariance", "model", action_invariance)
    return report


def solve_haar_weights(P: CQGPresentation, degree: int = 2, extra_words=()):
    """Solve the right-invariance equations (id (x) h) Delta(x) = h(x) 1 for
    per-block weights over words of length <= ``degree`` in the generators.

    The linear system is assembled and solved exactly: every Scalar
    coefficient splits into rational coordinates, one equation per
    (exponent of e(s*t), power-basis index), since the e(s*t) are independent
    and the power basis is a Q-basis.  Returns (weights, unique): Fraction
    weights summing to 1, and whether the exact rank equals the number of
    blocks.  When the weights are not unique, this is one exact solution with
    the free weights set to 0 (the suites report a non-unique answer as FAIL).
    Raises ValueError when the system is inconsistent.
    """
    ds = P.model_ambient
    assert isinstance(ds, DirectSum)
    nblocks = len(ds.blocks)
    alg = P.algebra

    letters = [alg.gen(n) for n in alg.names] + [alg.gen(n, star=True) for n in alg.names if n not in alg.selfadjoint]
    words = [Element.unit(alg)]
    frontier = [Element.unit(alg)]
    for _ in range(degree):
        frontier = [w * l for w in frontier for l in letters]
        words.extend(frontier)
    words.extend(extra_words)

    # linear forms in the weights: one dict block -> Scalar per equation
    forms = []
    for w in words:
        x_model = substitute(w, P.model)
        dx = substitute(w, P.delta_images)
        # (id (x) h_w) dx  as  sum over blocks of w_k * (partial element)
        lhs_by_block = {k: Element.zero(ds) for k in range(nblocks)}
        for (m1, m2), c in dx.t.items():
            k2, e2 = m2
            if any(e2):
                continue
            lhs_by_block[k2]._add_term(m1, c)
        # h_w(x) * 1 = sum_k w_k tau_k(x) * (sum_j unit_j)
        tau_by_block = {k: Scalar.zero() for k in range(nblocks)}
        for (k, e), c in x_model.t.items():
            if not any(e):
                tau_by_block[k] = tau_by_block[k] + c
        # coefficientwise equations over all model monomials that occur
        support = set()
        for k in range(nblocks):
            support.update(lhs_by_block[k].t)
        for j in range(nblocks):
            support.add((j, (0,) * ds.blocks[j].d))
        for mono in support:
            coeffs = {}
            for k in range(nblocks):
                c = lhs_by_block[k].coeff(mono)
                if not any(mono[1]):
                    # subtract h(x)*1 contribution on the unit of block mk
                    c = c - tau_by_block[k]
                if not c.is_zero():
                    coeffs[k] = c
            if coeffs:
                forms.append(coeffs)
    rows = []
    for coeffs in forms:
        rows.extend(zip(*_scalar_coords([coeffs.get(k, Scalar.zero()) for k in range(nblocks)])))
    rows.append([Frac(1)] * nblocks)
    return _solve_rational(rows, [Frac(0)] * (len(rows) - 1) + [Frac(1)])
