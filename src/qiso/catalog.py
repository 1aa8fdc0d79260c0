"""Worked scenarios: concrete spaces, their symmetry candidates, and
verification suites.

Each builder returns a :class:`Scenario` bundling the relevant algebras,
models, action tables and a ``suite()`` method that runs every check and
returns a :class:`~qiso.cqg.Report`.  Scenarios also expose ``normal_form``
and ``membership`` helpers for the command line.
"""

from __future__ import annotations

import copy
import functools
import operator
import random
from fractions import Fraction

from .cqg import (
    FAIL,
    PASS,
    SKIPPED,
    UNDECIDED,
    ActionSpec,
    CQGPresentation,
    Report,
    alpha_monomial,
    apply_antipode_to_relation,
    canonical_set,
    check_coassoc,
    check_counit_antipode,
    check_deformed_hom,
    check_haar_twist_invariance,
    check_hom,
    check_isometry,
    check_twist_identities,
    check_unitary_matrix,
    extract_relations,
    hopf_quotient,
    odot,
    residue_verdict,
    solve_counit,
    solve_haar_weights,
    star_close,
)
from .expr import ParseError, parse_element, tokenize
from .freealg import (
    Element,
    FreeAlgebra,
    _add_term,
    same_ambient,
    substitute,
    substitute_factors,
    tensor,
)
from .graded import (
    SIGMA,
    BlockAlgebra,
    DirectSum,
    Laplacian,
    deform_block,
    deform_sum,
    finite_oscillatory_sum,
    j_double,
    j_torus,
    rieffel_product,
    tau,
    twist_phase,
)
from .presfile import load_data
from .rewrite import RuleSet, ideal_member, reduce_tensor, render_certificate
from .scalars import Scalar, ThetaLin

Frac = Fraction


class Scenario:
    """A space, its symmetry candidate, and the checks tying them together."""

    def __init__(self, name, theta=None):
        self.name = name
        self.theta = theta
        self.parse_algebras = []  # algebras whose generators expressions may use
        self.nf_rules = None  # RuleSet for normal forms (or None)
        self.nf_algebra = None
        self.member_relations = None
        self.member_cap = 6
        self._suite = None
        self.constants = {
            "sigma": SIGMA,
            "twist_convention": "e(sigma * p.Jq) with J = [[0, -t/2], [t/2, 0]]",
            "theta": str(theta) if theta is not None else "generic",
        }

    def suite(self) -> Report:
        report = Report(self.name)
        self._suite(report)
        return report

    def parse(self, text: str) -> Element:
        """The text over the first parse algebra that reads all of it; when
        none does, the error of the one that read furthest.  Over the normal
        form algebra, a power above the cap of ``nf_rules`` is refused.

        A parse that reads all of a text has looked up each of its names
        other than ``e`` and ``t`` as a generator, so no algebra before the
        first one with all those names reads it.  That algebra is tried
        first, and the others only when it fails."""
        toks = tokenize(text)
        nf_cap = None if self.nf_rules is None else self.nf_rules.cap
        names = {v for k, v in toks if k == "IDENT"} - {"e", "t"}
        for alg in self.parse_algebras:
            if names <= alg.index.keys():
                try:
                    return parse_element(toks, alg, self.theta, nf_cap if alg is self.nf_algebra else None)
                except ParseError:
                    break
        errors = []
        for alg in self.parse_algebras:
            try:
                return parse_element(toks, alg, self.theta, nf_cap if alg is self.nf_algebra else None)
            except ParseError as exc:  # try the next algebra
                errors.append(exc)
        raise max(errors, key=lambda exc: exc.pos)

    def normal_form(self, text: str) -> str:
        elem = self.parse(text)
        if self.nf_rules is not None and elem.ambient is self.nf_algebra:
            elem = self.nf_rules.normal_form(elem)
        return elem.render()

    @functools.cached_property
    def member_rules(self) -> RuleSet:
        """The membership system, completed from ``member_relations`` at
        ``member_cap`` on first use."""
        if self.member_relations is None:
            raise ValueError(f"scenario {self.name} has no membership relations")
        rels = self.member_relations
        return RuleSet(rels[0].ambient, rels, self.member_cap)

    def membership(self, text: str):
        rules = self.member_rules
        result = ideal_member(parse_element(text, rules.algebra, self.theta, rules.cap), rules)
        cert = None
        if result.certificate is not None:
            cert = render_certificate(rules.relations, result.certificate, rules.algebra)
        return result.status, cert


def _compare_sets(report, name, mode, extract, expected):
    """Check that the relations ``extract()`` returns are ``expected``."""

    def check():
        got, want = canonical_set(extract()), canonical_set(expected)
        if got == want:
            return PASS, f"{len(expected)} relations"
        missing = [r for r in want if r not in got]
        extra = [r for r in got if r not in want]
        return FAIL, f"missing {missing[:3]}, unexpected {extra[:3]}"

    report.run(name, mode, check)


def _all_vanish(report, name, relations, value, suffix=""):
    """The model check that ``value(r)`` is zero for every relation r; a
    FAIL names the first relation that survives, and a PASS counts the
    relations, followed by ``suffix``."""

    def check():
        for i, r in enumerate(relations):
            if not value(r).is_zero():
                return FAIL, f"relation {i}: {r.render()}"
        return PASS, f"{len(relations)} relations{suffix}"

    report.run(name, "model", check)


# ===========================================================================
# circle
# ===========================================================================


def build_circle_scenario() -> Scenario:
    sc = Scenario("circle")
    sc.constants["theta"] = "theta-independent"
    derived = load_data("circle_derived.pres")
    qa = derived.algebra  # generators A, B
    A, B = qa.gen("A"), qa.gen("B")
    one_q = Element.unit(qa)

    # source: the circle coordinate and its conjugate
    ca = FreeAlgebra(["z"])
    z, zs = ca.gen("z"), ca.gen("z", star=True)
    one_c = Element.unit(ca)
    source_rels = [z * zs - one_c, zs * z - one_c]
    table = {"z": tensor(z, A) + tensor(zs, B)}
    ca_rules = RuleSet(ca, source_rels, cap=8)
    act = ActionSpec(ca, source_rels, table, source_rules=ca_rules, name="circle")

    upres = load_data("circle.pres")  # U, P presentation with coproduct
    ua = upres.algebra
    U, Us, P = ua.gen("U"), ua.gen("U", star=True), ua.gen("P")
    one_u = Element.unit(ua)

    # classical model: two one-dimensional summands; P is the first unit
    model_amb = DirectSum([BlockAlgebra(["z1"]), BlockAlgebra(["z2"])])
    model = {
        "U": model_amb.block_gen(0, 0) + model_amb.block_gen(1, 0),
        "P": model_amb.block_unit(0),
    }
    upres.model = model
    upres.model_ambient = model_amb

    sc.parse_algebras = [qa, ua, ca]
    sc.nf_algebra = ua
    sc.nf_rules = upres.rules(cap=8)
    sc.member_relations = star_close(derived.relations)
    sc.member_cap = 6

    def suite(report: Report):
        # the two product conditions force exactly the derived relation set
        _compare_sets(report, "extracted-relations", "model", lambda: (
            extract_relations(act, zs * z - one_c) + extract_relations(act, z * zs - one_c)
        ), derived.relations)

        # the unitary/projection generators live in the derived ideal
        Pd, Ud = A.star() * A, A + B
        members = [
            ("P^2 - P", Pd * Pd - Pd),
            ("UP - A", Ud * Pd - A),
            ("UP_perp - B", Ud * (one_q - Pd) - B),
            ("UU* - 1", Ud * Ud.star() - one_q),
            ("U*U - 1", Ud.star() * Ud - one_q),
        ]
        for label, elem in members:
            def mem(elem=elem):
                res = ideal_member(elem, sc.member_rules)
                if res.status == "YES":
                    return PASS, "certificate verified"
                return UNDECIDED, f"no certificate within cap {sc.member_cap}"

            report.run(f"membership[{label}]", "presentation", mem)

        check_coassoc(upres, cap=6, report=report)

        # displayed coproducts of UP and UP_perp agree with the table
        rules2 = (sc.nf_rules, sc.nf_rules)
        Pp = one_u - P
        d = upres.delta
        def product_coproducts():
            d6 = d(U * P) - (tensor(U * P, U * P) + tensor(Pp * Us, U * Pp))
            d7 = d(U * Pp) - (tensor(U * Pp, U * P) + tensor(P * Us, U * Pp))
            return residue_verdict("presentation", [reduce_tensor(d6, rules2), reduce_tensor(d7, rules2)],
                                   lambda r6, r7: f"residues {r6.render()}; {r7.render()}",
                                   sc.nf_rules.cap)

        report.run("coproduct-of-products", "presentation", product_coproducts)

        def counit_solution():
            eps_solved = solve_counit(upres, cap=6)
            if all(eps_solved[n] == upres.counit[n] for n in ua.names):
                return PASS, f"epsilon = {[(n, eps_solved[n].render()) for n in ua.names]}"
            return FAIL, "solved counit differs from the declared one"

        report.run("counit-solve", "presentation", counit_solution)
        check_counit_antipode(upres, cap=6, report=report)

        report.run("antipode-table", "presentation", lambda: (
            SKIPPED,
            "no antipode table closes on words in U and P: the candidate "
            "kappa(U) = U* forces kappa(P) = U P U*, which is not expressible "
            "as a generator image; the commutativity argument makes one "
            "unnecessary",
        ))

        # classical model: generators satisfy the presentation, and the
        # derived coefficient relations hold with A = UP, B = UP_perp
        def classical_model():
            mu, mp = model["U"], model["P"]
            checks = [
                mu * mu.star() - Element.unit(model_amb),
                mu.star() * mu - Element.unit(model_amb),
                mp * mp - mp,
            ]
            images = {"A": mu * mp, "B": mu * (Element.unit(model_amb) - mp)}
            for r in sc.member_relations:
                checks.append(substitute(r, images))
            bad = [c.render() for c in checks if not c.is_zero()]
            if bad:
                return FAIL, f"nonzero: {bad[:3]}"
            return PASS, f"{len(checks)} identities"

        report.run("classical-model", "model", classical_model)

        report.run("haar-weights", "model", _haar_check(
            lambda: solve_haar_weights(upres, degree=2), [Frac(1, 2)] * 2,
            "unique invariant weights (1/2, 1/2)"))

        # invariance consequence: h(P_perp) U P_perp U^-1 = h(P) P_perp
        def haar_consequence():
            mu, mp = model["U"], model["P"]
            one_m = Element.unit(model_amb)
            mpp = one_m - mp
            h = lambda x: tau(x, [Frac(1, 2), Frac(1, 2)])
            lhs = mu * mpp * mu.star() * h(mpp)
            rhs = mpp * h(mp)
            if lhs == rhs:
                return PASS, ""
            return FAIL, (lhs - rhs).render()

        report.run("haar-consequence", "model", haar_consequence)

        # the circle Laplacian multiplies z^n by -n^2; the action fixes the
        # eigenvalue -1 subspace span{z, z*} by construction
        def laplacian_check():
            lap = Laplacian(lambda d: -(d[0] ** 2))
            circ = BlockAlgebra(["z"])
            for n in range(-4, 5):
                x = circ.monomial((n,))
                if lap.apply(x) != x * Scalar.rational(-(n * n)):
                    return FAIL, f"exponent {n}"
            return PASS, "eigenvalues -n^2 for |n| <= 4"

        report.run("laplacian-eigenvalues", "model", laplacian_check)

    sc._suite = suite
    return sc


# ===========================================================================
# sphere
# ===========================================================================


def _sphere_q(qa, i, j):
    return qa.gen(f"Q{i}{j}")


def _partial(p: Element, v: int) -> Element:
    """The derivative of a polynomial by its v-th variable."""
    out = Element.zero(p.ambient)
    for m, c in p.t.items():
        if m[v]:
            out._add_term(m[:v] + (m[v] - 1,) + m[v + 1:], c * Scalar.rational(m[v]))
    return out


def sphere_harmonics_check(samples: dict) -> tuple:
    """Each sample p of degree k, a polynomial in x, y, z (a commutative
    three-generator :class:`BlockAlgebra`), is harmonic and restricts to the
    sphere as an eigenfunction of its Laplacian with eigenvalue -k(k+1).

    The sphere Laplacian is r^2 Lap - E(E+1) with E = x d/dx + y d/dy + z d/dz
    (Lap = d_r^2 + (2/r) d_r + r^-2 Lap_S), so the second test is the exact
    identity r^2 Lap p - E(E+1) p + k(k+1) p = 0.
    """
    euler = Laplacian(lambda d: sum(d) * (sum(d) + 1))  # E(E+1) on monomials
    for k, p in samples.items():
        amb = p.ambient
        r2 = sum((amb.gen(v, 2) for v in range(3)), Element.zero(amb))
        lap = sum((_partial(_partial(p, v), v) for v in range(3)), Element.zero(amb))
        if not lap.is_zero():
            return FAIL, f"sample for degree {k} is not harmonic"
        if r2 * lap + p * (k * (k + 1)) != euler.apply(p):
            return FAIL, f"eigenvalue mismatch at degree {k}"
    return PASS, f"eigenvalues -k(k+1) for k <= {max(samples)}"


def build_sphere_scenario() -> Scenario:
    sc = Scenario("sphere")
    sc.constants["theta"] = "theta-independent"
    golden = load_data("sphere.pres")
    qa = golden.algebra

    xa = FreeAlgebra(["x1", "x2", "x3"], selfadjoint={"x1", "x2", "x3"})
    xs = [xa.gen(n) for n in xa.names]
    one_x = Element.unit(xa)
    commutators = [xs[j] * xs[i] - xs[i] * xs[j] for i in range(3) for j in range(i + 1, 3)]
    sphere_rel = sum((x * x for x in xs), Element.zero(xa)) - one_x
    # reduction for coefficient extraction: commutativity only, so that the
    # quadratic monomial basis stays intact
    x_rules = RuleSet(xa, commutators, cap=6)

    table = {
        f"x{i + 1}": sum(
            (tensor(xs[j], _sphere_q(qa, i + 1, j + 1)) for j in range(3)),
            tensor(Element.zero(xa), Element.zero(qa)),
        )
        for i in range(3)
    }
    act = ActionSpec(
        xa,
        commutators + [sphere_rel],
        table,
        source_rules=x_rules,
        name="sphere",
    )

    kappa = {f"Q{i}{j}": _sphere_q(qa, j, i) for i in (1, 2, 3) for j in (1, 2, 3)}

    def exchange_instances():
        """Exchange relations and their antipode images, all index choices."""
        rels = []
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    for l in range(1, 4):
                        q = _sphere_q
                        r3 = (
                            q(qa, i, k) * q(qa, j, l)
                            + q(qa, i, l) * q(qa, j, k)
                            - q(qa, j, k) * q(qa, i, l)
                            - q(qa, j, l) * q(qa, i, k)
                        )
                        r6 = (
                            q(qa, j, l) * q(qa, i, k)
                            + q(qa, i, l) * q(qa, j, k)
                            - q(qa, j, k) * q(qa, i, l)
                            - q(qa, i, k) * q(qa, j, l)
                        )
                        rels.extend([r3, r6])
        return rels

    sc.parse_algebras = [qa, xa]
    sc.nf_algebra = qa
    sc.member_relations = [r for r in exchange_instances() if not r.is_zero()]
    sc.member_cap = 2
    sc.nf_rules = None

    def suite(report: Report):
        # the relations extracted from the commutators, read by the two rows
        # below; built by the first, so that its time is counted there
        from_commutators = functools.cache(
            lambda: [e for r in commutators for e in extract_relations(act, r)])

        def extracted():
            got = list(from_commutators())
            # alpha fixes the sphere relation; since the relation also holds in
            # the codomain, rewrite the unit as sum_k x_k^2 (x) 1 before bucketing
            ssum = sphere_rel + one_x
            got.extend(extract_relations(act, act.apply(ssum) - tensor(ssum, Element.unit(qa))))
            for i in range(3):
                # the image of a selfadjoint generator must be selfadjoint
                img = act.table[f"x{i + 1}"]
                got.extend(extract_relations(act, img.star() - img))
            return got

        _compare_sets(report, "extracted-relations", "presentation", extracted, golden.relations)

        # every commutator of coefficients lies in the exchange ideal
        def coefficient_commutators():
            gens = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
            pairs = [(x, y) for a, x in enumerate(gens) for y in gens[a + 1:]]
            failures = []
            for x, y in pairs:
                qx, qy = _sphere_q(qa, *x), _sphere_q(qa, *y)
                if ideal_member(qx * qy - qy * qx, sc.member_rules).status != "YES":
                    failures.append((x, y))
            detail = f"{len(pairs) - len(failures)}/{len(pairs)} commutators certified"
            if failures:
                return UNDECIDED, f"{detail}; unresolved {failures[:3]} within cap {sc.member_cap}"
            return PASS, detail

        report.run("coefficient-commutators", "presentation", coefficient_commutators)

        # antipode closure: the extracted set plus its antipode images equals
        # the full exchange family used above (plus unitarity/selfadjointness
        # companions)
        def closure():
            base = from_commutators()
            kap = [apply_antipode_to_relation(r, kappa, qa) for r in base]
            combined = canonical_set(base + kap)
            target = canonical_set(sc.member_relations)
            if set(target) <= set(combined):
                return PASS, f"{len(target)} exchange relations recovered"
            missing = [r for r in target if r not in combined]
            return FAIL, f"missing {missing[:3]}"

        report.run("antipode-closure", "presentation", closure)

        # unitarity of the coefficient matrix modulo the relation set
        def build_rules():
            rels = list(golden.relations)
            rels += [apply_antipode_to_relation(r, kappa, qa) for r in golden.relations]
            return RuleSet(qa, star_close(rels), cap=4)

        M = [[_sphere_q(qa, i, j) for j in (1, 2, 3)] for i in (1, 2, 3)]
        check_unitary_matrix(M, report=report, rules=build_rules, name="Q")

        # Laplacian eigenvalues on restricted harmonic polynomials
        def laplacian_oracle():
            xyz = BlockAlgebra(["x", "y", "z"])
            x, y, z = (xyz.gen(v) for v in range(3))
            return sphere_harmonics_check({0: Element.unit(xyz), 1: z, 2: x * y,
                                           3: (x + y * Scalar.root(Frac(1, 4))) ** 3})

        report.run("laplacian-oracle", "model", laplacian_oracle)

    sc._suite = suite
    return sc


# ===========================================================================
# torus
# ===========================================================================

# bidegrees (left character, right character) of the eight coefficient
# families, encoded as 4-vectors (chiL | chiR)
_BIDEG = {
    "A1": (-1, 0, 1, 0),
    "B1": (0, -1, 1, 0),
    "C1": (1, 0, 1, 0),
    "D1": (0, 1, 1, 0),
    "A2": (-1, 0, 0, 1),
    "B2": (0, -1, 0, 1),
    "C2": (1, 0, 0, 1),
    "D2": (0, 1, 0, 1),
}

# block k carries the pair of families below: generator U_k1 behaves like the
# first name, U_k2 like the second
_BLOCK_FAMILIES = [
    ("A1", "B2"),
    ("C1", "B2"),
    ("C1", "D2"),
    ("A1", "D2"),
    ("C2", "B1"),
    ("B1", "A2"),
    ("D1", "A2"),
    ("D1", "C2"),
]

_NAMES8 = list(_BIDEG)

# which (block, generator) pairs sum to each family element
_FAMILY_SUPPORT = {
    name: [(k, i) for k, fams in enumerate(_BLOCK_FAMILIES) for i, f in enumerate(fams) if f == name]
    for name in _NAMES8
}


def _torus_phase(k, theta: Frac | None = None) -> Scalar:
    """e(k t), specialized at ``theta`` when one is given."""
    phase = Scalar.exponential(ThetaLin(0, k))
    return phase.specialize(theta) if theta is not None else phase


def torus_block(theta: Frac | None = None) -> BlockAlgebra:
    """The twisted torus with V U = e(-t) U V (so U V = e(t) V U)."""
    blk = BlockAlgebra(["U", "V"], comm={(0, 1): _torus_phase(-1)}, bidegrees=[(1, 0), (0, 1)])
    return blk.specialize(theta) if theta is not None else blk


def commutative_torus() -> BlockAlgebra:
    return BlockAlgebra(["U", "V"], bidegrees=[(1, 0), (0, 1)])


def eight_block_model(theta: Frac | None = None) -> DirectSum:
    """Four commutative and four doubly-twisted torus summands, with the
    character bidegrees of the coefficient families attached."""
    blocks = []
    for k in range(8):
        names = [f"U{k + 1}1", f"U{k + 1}2"]
        fam = _BLOCK_FAMILIES[k]
        bide = [_BIDEG[fam[0]], _BIDEG[fam[1]]]
        comm = None
        if k % 2 == 1:  # blocks 2, 4, 6, 8 are doubly twisted
            comm = {(0, 1): _torus_phase(-2)}
        blocks.append(BlockAlgebra(names, comm=comm, bidegrees=bide))
    ds = DirectSum(blocks, [f"block{k + 1}" for k in range(8)])
    return ds.specialize(theta) if theta is not None else ds


def family_elements(ds: DirectSum) -> dict:
    return {
        name: sum(
            (ds.block_gen(k, i) for (k, i) in _FAMILY_SUPPORT[name]),
            Element.zero(ds),
        )
        for name in _NAMES8
    }


def matrix_m(elems: dict) -> list:
    A1, B1, C1, D1 = (elems[n] for n in ("A1", "B1", "C1", "D1"))
    A2, B2, C2, D2 = (elems[n] for n in ("A2", "B2", "C2", "D2"))
    return [
        [A1, A2, C1.star(), C2.star()],
        [B1, B2, D1.star(), D2.star()],
        [C1, C2, A1.star(), A2.star()],
        [D1, D2, B1.star(), B2.star()],
    ]


# generator -> (row, column) of its entry in M
_POSITIONS = {
    "A1": (0, 0), "A2": (0, 1), "B1": (1, 0), "B2": (1, 1),
    "C1": (2, 0), "C2": (2, 1), "D1": (3, 0), "D2": (3, 1),
}


def coproduct_table(alg: FreeAlgebra) -> dict:
    """Delta(M_ij) = sum_k M_ik (x) M_kj on the eight families, in free tensor form."""
    M = matrix_m({n: alg.gen(n) for n in _NAMES8})
    zero = tensor(Element.zero(alg), Element.zero(alg))
    return {n: sum((tensor(M[i][k], M[k][j]) for k in range(4)), zero)
            for n, (i, j) in _POSITIONS.items()}


def kappa_table(g: dict) -> dict:
    """kappa(M_ij) = M_ji*, expressed per family generator."""
    M = matrix_m(g)
    return {n: M[j][i].star() for n, (i, j) in _POSITIONS.items()}


# epsilon(M_ij) = delta_ij
EPSILON8 = {n: Scalar.rational(int(i == j)) for n, (i, j) in _POSITIONS.items()}


def _torus_source(theta: Frac | None = None):
    """The free torus source U, V and its six relations, oriented as the
    homomorphism checks report them (U V = e(t) V U)."""
    src = FreeAlgebra(["U", "V"])
    U, V = src.gen("U"), src.gen("V")
    one = Element.unit(src)
    lam = _torus_phase(1, theta)
    return src, [
        U * U.star() - one,
        U.star() * U - one,
        V * V.star() - one,
        V.star() * V - one,
        U * V - V * U * lam,
        V.star() * U.star() - U.star() * V.star() * lam.conj(),
    ]


def torus_relations(alg: FreeAlgebra, mu: Scalar) -> list:
    """The six relations of the torus on the generators U, V of ``alg`` with
    V U = mu U V: U and V are unitary, and the exchange and its adjoint."""
    U, V = alg.gen("U"), alg.gen("V")
    one = Element.unit(alg)
    return [
        U * U.star() - one,
        U.star() * U - one,
        V * V.star() - one,
        V.star() * V - one,
        V * U - U * V * mu,
        U.star() * V.star() - V.star() * U.star() * mu.conj(),
    ]


def torus_action(elems: dict, theta: Frac | None = None) -> ActionSpec:
    """The isometric action with coefficients ``elems`` (the eight families):
    alpha(U) = U (x) A1 + V (x) B1 + U* (x) C1 + V* (x) D1, and alpha(V) the
    same with A2, B2, C2, D2, the columns 0 and 1 of M."""
    blk = torus_block(theta)
    U, V = blk.gen("U"), blk.gen("V")
    M = matrix_m(elems)
    basis = (U, V, U.star(), V.star())
    table = {n: functools.reduce(operator.add, (tensor(x, M[i][j]) for i, x in enumerate(basis)))
             for j, n in enumerate(("U", "V"))}
    src, src_rels = _torus_source(theta)
    return ActionSpec(src, src_rels, table, name="torus")


def build_torus_scenario(theta: Frac | None = None) -> Scenario:
    sc = Scenario("torus", theta)
    free8 = FreeAlgebra(_NAMES8)
    gens8 = {n: free8.gen(n) for n in _NAMES8}
    act = torus_action(gens8, theta)  # the free ansatz
    sU, sV = act.source.gen("U"), act.source.gen("V")
    sone = Element.unit(act.source)
    lam = _torus_phase(1, theta)

    # each file parses into its own algebra on the eight generators; its
    # relations move onto free8, so the presentation lives in one algebra
    golden = {}
    for name in ("row1", "row2", "mixed", "exchange", "model"):
        pres = load_data(f"torus_{name}.pres", theta=theta)
        if not same_ambient(pres.algebra, free8):
            raise ValueError(f"torus_{name}.pres does not declare the eight generators")
        golden[name] = [Element(free8, r.t) for r in pres.relations]

    golden_all = [r for rels in golden.values() for r in rels]
    ds = eight_block_model(theta)
    elems = family_elements(ds)
    b_pres = CQGPresentation(
        algebra=free8,
        relations=star_close(golden_all),
        coproduct=coproduct_table(free8),
        counit=EPSILON8,
        antipode=kappa_table(gens8),
        model=elems,
        model_ambient=ds,
        name="torus",
    )
    act0 = torus_action(elems, theta)

    sc.nf_algebra = FreeAlgebra(["U", "V"])
    sc.parse_algebras = [free8, sc.nf_algebra]
    sc.member_relations = torus_relations(sc.nf_algebra, _torus_phase(-1, theta))
    sc.member_cap = 8
    sc.nf_rules = sc.member_rules
    sc.b_presentation = b_pres
    sc.model = ds
    sc.family = elems
    sc.action = act0
    # solved by whichever haar-weights row asks first (the torus's or the
    # deformation's), so that its time is counted there; the other reads it
    sc.haar_weights = functools.cache(_haar_check(
        lambda: solve_haar_weights(b_pres, degree=2, extra_words=block_projector_words(free8)),
        [Frac(1, 8)] * 8, "unique invariant weights, 1/8 per block"))

    def suite(report: Report):
        targets_sq = [(2, 0), (0, 2), (-2, 0), (0, -2)]
        targets_mix = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

        def unitarity(x):
            return lambda: (extract_relations(act, x.star() * x - sone)
                            + extract_relations(act, x * x.star() - sone))

        _compare_sets(report, "extract-row1", "model", unitarity(sU), golden["row1"])
        _compare_sets(report, "extract-row2", "model", unitarity(sV), golden["row2"])

        def mixed():
            got = []
            for expr in (sU.star() * sV, sV * sU.star(), sU * sV, sV * sU):
                got.extend(extract_relations(act, expr, targets=targets_sq))
            return got

        _compare_sets(report, "extract-mixed", "model", mixed, golden["mixed"])
        _compare_sets(report, "extract-exchange", "model", lambda: extract_relations(
            act, sU * sV - sV * sU * lam, targets=targets_mix), golden["exchange"])

        # the eight-block model satisfies every golden relation
        _all_vanish(report, "model-soundness", golden_all, lambda r: substitute(r, elems),
                    " hold in the model")

        check_unitary_matrix(matrix_m(elems), report=report, name="M")

        check_hom(act0, report=report)
        check_coassoc(b_pres, mode="model", report=report)
        check_counit_antipode(b_pres, mode="model", report=report)

        # the coproduct descends to every relation: Delta(r) = 0 in the
        # tensor-square model
        _all_vanish(report, "coproduct-kills-relations", b_pres.relations, b_pres.delta_model)

        # block picture: each family element times its own and its partner's
        # range projections selects a single block generator
        def projection_identities():
            proj = {
                n: elems[n] * elems[n].star() for n in _NAMES8
            }  # P'_i, Q'_i, R'_i, S-complements as products
            count = 0
            for k in range(8):
                f1, f2 = _BLOCK_FAMILIES[k]
                for i, fam in enumerate((f1, f2)):
                    sel = elems[fam] * proj[f1] * proj[f2]
                    if sel != ds.block_gen(k, i):
                        return FAIL, f"block {k + 1}, family {fam}"
                    count += 1
            # the selected generators in a twisted block obey the e(2t) swap
            u21, u22 = ds.block_gen(1, 0), ds.block_gen(1, 1)
            lam2 = lam * lam
            if u21 * u22 != u22 * u21 * lam2:
                return FAIL, "twisted-block commutation"
            return PASS, f"{count} block selections"

        report.run("block-projections", "model", projection_identities)

        # antipode on relations, evaluated in the model
        kmodel = kappa_table(elems)
        _all_vanish(report, "antipode-kills-relations", b_pres.relations,
                    lambda r: apply_antipode_to_relation(r, kmodel, ds))

        # isometry: the action preserves Laplacian eigenspaces, and the
        # surviving exponents show the expected dihedral pattern
        check_isometry(act0, _MONOS3, report=report)

        def survival_pattern():
            for (m, n) in _MONOS3:
                allowed = {
                    (m, n), (m, -n), (-m, n), (-m, -n),
                    (n, m), (n, -m), (-n, m), (-n, -m),
                }
                img = alpha_monomial(act0, m, n)
                seen = {tuple(img.ambient.factors[0].degree_vec(am)) for (am, _qm) in img.t}
                if not seen <= allowed:
                    return FAIL, f"alpha(U^{m} V^{n}) hits {sorted(seen - allowed)[:3]}"
            return PASS, f"{len(_MONOS3)} monomials"

        report.run("survival-pattern", "model", survival_pattern)

        # half-integer parameter: all commutation phases collapse
        def theta_half():
            ds_h = eight_block_model(Frac(1, 2))
            el_h = family_elements(ds_h)
            for a in _NAMES8:
                for b in _NAMES8:
                    x, y = el_h[a], el_h[b]
                    if x * y != y * x:
                        return FAIL, f"[{a}, {b}] nonzero at theta = 1/2"
            return PASS, "all 64 family pairs commute"

        report.run("half-parameter-degeneration", "model", theta_half)
        report.run("haar-weights", "model", sc.haar_weights)

    sc._suite = suite
    return sc


def block_projector_words(alg: FreeAlgebra) -> list:
    """For each block, the product of the two range projections that selects
    exactly that block's unit in the model."""
    words = []
    for k in range(8):
        f1, f2 = _BLOCK_FAMILIES[k]
        g1, g2 = alg.gen(f1), alg.gen(f2)
        words.append(g1 * g1.star() * g2 * g2.star())
    return words


# the torus monomials U^m V^n with |m|, |n| <= 3
_MONOS3 = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]


def _haar_check(solve, weights: list, detail: str):
    """The haar-weights check: ``solve()`` returns (weights, unique), and the
    invariant weights must be exactly ``weights``, uniquely."""

    def haar():
        got, unique = solve()
        if unique and got == weights:
            return PASS, detail
        return FAIL, f"weights {got}, unique={unique}"

    return haar


# ===========================================================================
# quantum double torus
# ===========================================================================


def build_double_torus_scenario(torus: Scenario) -> Scenario:
    """The quantum double torus, a Hopf quotient of the torus scenario's
    eight-family presentation."""
    theta = torus.theta
    sc = Scenario("double-torus", theta)
    golden = load_data("double_torus.pres", theta=theta)

    quotient = hopf_quotient(
        torus.b_presentation,
        killed={"C1", "D1", "C2", "D2"},
        rename={"A1": "A0", "B1": "B0", "A2": "C0", "B2": "D0"},
    )
    qalg = quotient.algebra

    m = quotient.model
    zero = Element.zero(quotient.model_ambient)
    beta = torus_action({
        "A1": m["A0"], "B1": m["B0"], "A2": m["C0"], "B2": m["D0"],
        "C1": zero, "D1": zero, "C2": zero, "D2": zero,
    }, theta)

    sc.parse_algebras = [qalg, beta.source]
    sc.nf_algebra = None
    sc.quotient = quotient
    sc.action = beta

    def suite(report: Report):
        def quotient_wellformed():
            if sorted(qalg.names) != sorted(golden.algebra.names):
                return FAIL, f"generators {qalg.names}"
            return PASS, "coproduct descends; four generators survive"

        report.run("hopf-quotient", "presentation", quotient_wellformed)

        def coproduct_matches():
            for n in golden.algebra.names:
                want = substitute_factors(
                    golden.coproduct[n],
                    [{k: qalg.gen(k) for k in qalg.names}] * 2,
                )
                if quotient.coproduct[n] != want:
                    return FAIL, f"Delta({n}) = {quotient.coproduct[n].render()}"
            return PASS, "matrix coproduct on [[A0, C0], [B0, D0]]"

        report.run("coproduct-table", "presentation", coproduct_matches)

        _all_vanish(report, "relations-in-model", golden.relations,
                    lambda r: substitute(r, quotient.model), " hold in the model")

        def counit_matches():
            for n in golden.algebra.names:
                if quotient.counit[n] != golden.counit[n]:
                    return FAIL, n
            return PASS, ""

        report.run("counit-table", "presentation", counit_matches)

        check_coassoc(quotient, mode="model", report=report)
        check_counit_antipode(quotient, mode="model", report=report)
        check_hom(beta, report=report)
        check_isometry(beta, _MONOS3, report=report)

        # holomorphicity: beta never mixes U, V with their adjoints
        def holomorphic():
            for (m_, n_) in _MONOS3:
                if m_ < 0 or n_ < 0:
                    continue
                img = alpha_monomial(beta, m_, n_)
                for (am, _qm) in img.t:
                    d = img.ambient.factors[0].degree_vec(am)
                    if d[0] < 0 or d[1] < 0:
                        return FAIL, f"beta(U^{m_} V^{n_}) hits degree {d}"
            return PASS, "nonnegative exponents stay nonnegative"

        report.run("holomorphic-invariance", "model", holomorphic)

    sc._suite = suite
    return sc


# ===========================================================================
# deformation
# ===========================================================================


def build_deformation_scenario(torus: Scenario) -> Scenario:
    """The deformation theorem on the torus scenario.  The scenario is a copy
    of the torus's, with its own name and suite: it answers text queries with
    the torus's algebras and rewriting systems, and shares its Haar solve."""
    sc = copy.copy(torus)
    sc.name = "deformation"
    sc.constants = dict(torus.constants)
    theta = sc.theta
    J = j_torus()
    ds0 = eight_block_model(Frac(0))  # undeformed: all eight blocks commutative

    def suite(report: Report):
        # the exact finite oscillatory sum fixes the sign convention, and the
        # twisted product reproduces it on the same instances
        def oracle():
            rng = random.Random(20260826)
            c2 = commutative_torus()
            for _ in range(50):
                p = [rng.randint(-5, 5), rng.randint(-5, 5)]
                q = [rng.randint(-5, 5), rng.randint(-5, 5)]
                s = rng.randint(2, 9)
                th = Frac(rng.randint(1, s - 1), s)
                # N * J^T p is an integer vector at theta = r/s when N = den * s
                n = J.den * s
                jtp = [sum((J[k][i] * p[k] for k in range(2)), ThetaLin()) for i in range(2)]
                a = [int(n * (x.const + x.coef * th)) for x in jtp]
                val = finite_oscillatory_sum(a, q, n)
                want = twist_phase(p, J, q).specialize(th)
                if val != want:
                    return FAIL, f"p={p}, q={q}, theta={th}: {val.render()} != {want.render()}"
                prod = rieffel_product(c2.monomial(tuple(p)), c2.monomial(tuple(q)), J)
                (coeff,) = prod.t.values()
                if coeff.specialize(th) != val:
                    return FAIL, f"twisted-product coefficient off at p={p}, q={q}"
            return PASS, "50 random rational instances exact"

        report.run("twist-sign-oracle", "model", oracle)

        # deforming the commutative torus yields the twisted torus
        def commutative_to_twisted():
            c2 = commutative_torus()
            d = deform_block(c2, J)
            want = torus_block()
            got, expect = d.comm[(0, 1)], want.comm[(0, 1)]
            if got != expect:
                return FAIL, f"commutation {got.render()} != {expect.render()}"
            U, V = c2.gen("U"), c2.gen("V")
            lhs = rieffel_product(U, V, J) - rieffel_product(V, U, J) * _torus_phase(1)
            if not lhs.is_zero():
                return FAIL, f"U x V - e(t) V x U = {lhs.render()}"
            return PASS, "V U = e(-t) U V after deformation"

        report.run("deform-commutative-torus", "model", commutative_to_twisted)

        # deforming the undeformed eight-block sum by the doubled matrix
        # reproduces the twisted eight-block model blockwise
        def blocks_deform():
            deformed = deform_sum(ds0, j_double(J))
            twisted = eight_block_model()
            for k in range(8):
                got, want = deformed.blocks[k].comm[(0, 1)], twisted.blocks[k].comm[(0, 1)]
                if got != want:
                    return FAIL, (
                        f"block {k + 1}: {got.render()} != {want.render()}"
                    )
            return PASS, "odd blocks stay commutative; even blocks pick up e(-2t)"

        report.run("deform-eight-blocks", "model", blocks_deform)

        # the twisted product of the undeformed model realises the same
        # commutation phases generator by generator
        def odot_phases():
            Jt = j_double(J)
            twisted = eight_block_model()
            for k in range(8):
                x = ds0.block_gen(k, 0)
                y = ds0.block_gen(k, 1)
                want = twisted.blocks[k].comm[(0, 1)]
                lhs = odot(y, x, Jt) - odot(x, y, Jt) * want
                if theta is not None:
                    lhs = lhs.specialize(theta)
                if not lhs.is_zero():
                    return FAIL, f"block {k + 1}"
            return PASS, "16 generator pairs"

        report.run("twisted-product-phases", "model", odot_phases)

        check_deformed_hom(sc.action, J, degree_bound=3, report=report)
        report.run("haar-weights", "model", sc.haar_weights)
        check_haar_twist_invariance(
            sc.model, [Frac(1, 8)] * 8, J, degree_bound=3, report=report
        )

        check_twist_identities(sc.action, J, degree_bound=2, report=report)

        for c in (0, -1, -2):
            def coherence(c=c):
                try:
                    n = nf_model_coherence(c, theta=theta, max_len=6)
                except AssertionError as exc:  # a disagreement fails this row only
                    return FAIL, str(exc)
                return PASS, f"{n} words of length <= 6"

            report.run(f"nf-model-coherence[e({c}t)]", "presentation", coherence)

    sc._suite = suite
    return sc


def word_values(alg: FreeAlgebra, blk: BlockAlgebra, max_len: int) -> dict:
    """The model value of every word of length <= ``max_len`` over the
    letters of ``alg`` in ``blk`` (a generator goes to the generator of
    ``blk`` of the same name, an adjoint letter to its adjoint), as one block
    term (monomial, coefficient), keyed by word in order of length.

    The table is built a length at a time: the value of w x is the product
    of the value of w and the image of the letter x, one ``blk.mul_mono``."""
    image = {}  # each letter and its image as a block term
    for n in alg.names:
        g = blk.gen(n)
        for star, x in ((False, g), (True, g.star())):
            ((m, c),) = x.t.items()
            image[alg.letter(n, star)] = (m, c)
    value = {(): ((0,) * blk.d, Scalar.one())}
    level = [()]
    for _ in range(max_len):
        level = [w + (x,) for w in level for x in image]
        for w in level:
            m, c = value[w[:-1]]
            xm, xc = image[w[-1]]
            ((pc, pm),) = blk.mul_mono(m, xm)
            value[w] = (pm, c * xc * pc)
    return value


def nf_model_coherence(comm_exponent: int, theta: Frac | None = None,
                       max_len: int = 6) -> int:
    """Exhaustively compare rewriting normal forms with direct graded-model
    evaluation on every word of length <= ``max_len`` over U, V, U*, V* in a
    torus block with V U = e(comm_exponent * t) U V.

    The model value of every word is read from :func:`word_values`.  A
    normal form's terms are no longer than its word, so their values are in
    the table too.  Every word still goes through ``normal_form`` on its own,
    shorter words first.

    Returns the number of words checked; raises AssertionError on the first
    disagreement (explicitly, so the check holds under ``python -O``).
    """
    mu = _torus_phase(comm_exponent, theta)
    alg = FreeAlgebra(["U", "V"])
    U, V = alg.gen("U"), alg.gen("V")
    rels = torus_relations(alg, mu) + [
        V * U.star() - U.star() * V * mu.conj(),
        V.star() * U - U * V.star() * mu.conj(),
    ]
    rules = RuleSet(alg, rels, cap=max_len)
    comm = None if comm_exponent == 0 else {(0, 1): mu}
    blk = BlockAlgebra(["U", "V"], comm=comm)
    one = Scalar.one()
    value = word_values(alg, blk, max_len)
    for w, (wm, wc) in value.items():
        if not w:
            continue
        got: dict = {}
        for m, c in rules.normal_form(Element(alg, {w: one})).t.items():
            bm, bc = value[m]
            _add_term(got, bm, bc * c)
        if got != {wm: wc}:
            raise AssertionError(f"normal form of {alg.render_mono(w)} disagrees with the "
                                 f"model: {(Element(blk, got) - Element(blk, {wm: wc})).render()}")
    return len(value) - 1


# ===========================================================================
# registry
# ===========================================================================

# name -> builder; its argument returns the torus scenario at the build's theta
BUILDERS = {
    "circle": lambda torus: build_circle_scenario(),
    "sphere": lambda torus: build_sphere_scenario(),
    "torus": lambda torus: torus(),
    "double-torus": lambda torus: build_double_torus_scenario(torus()),
    "deformation": lambda torus: build_deformation_scenario(torus()),
}


def build_all(names, theta: Frac | None = None) -> list:
    """The named scenarios at ``theta``, in order.  The torus is built at most
    once, and the double torus and the deformation scenario are built on it."""
    for name in names:
        if name not in BUILDERS:
            raise KeyError(f"unknown scenario {name!r}; choose from {sorted(BUILDERS)}")
    torus = functools.cache(lambda: build_torus_scenario(theta))
    return [BUILDERS[name](torus) for name in names]


def build(name: str, theta: Frac | None = None) -> Scenario:
    """A new scenario ``name`` at ``theta``."""
    return build_all([name], theta)[0]
