"""Independent numeric evaluation of free-algebra words in the torus models.

The benchmark uses this to check normal forms outside the timed region: a
normal form must have the same value as the word it came from in a model
where every relation holds.  Values are complex floats at a sample parameter,
computed here without the package's own arithmetic (only its data: the
words, the coefficients' numeric values and the block twists).

A model is a list of blocks, each ``(number_of_generators, twist)`` where
``twist`` is the complex number ``q`` with ``u1 u0 = q u0 u1`` (1 for a
commutative block), and an image table mapping a generator name to a list of
``(block, generator_index)`` pairs (the image is their sum) or to
``("unit", block)`` for a block projection.
"""

from __future__ import annotations

import cmath

TOLERANCE = 1e-9


def phase(x: float) -> complex:
    """e(x) = exp(2 pi i x)."""
    return cmath.exp(2j * cmath.pi * x)


class Model:
    def __init__(self, blocks, images):
        self.blocks = list(blocks)
        self.images = dict(images)

    def unit(self) -> dict:
        return {(k, (0,) * d): 1.0 + 0j for k, (d, _q) in enumerate(self.blocks)}

    def _times_letter(self, value: dict, name: str, star: bool) -> dict:
        img = self.images[name]
        out: dict = {}
        if img[0] == "unit":  # a selfadjoint block projection
            for key, c in value.items():
                if key[0] == img[1]:
                    out[key] = out.get(key, 0j) + c
            return out
        e = -1 if star else 1
        for (k, exps), c in value.items():
            for (kb, i) in img:
                if kb != k:
                    continue
                q = self.blocks[k][1]
                m = list(exps)
                # u0^a u1^b . u0^e = q^(b e) u0^(a+e) u1^b ; u1 commutes past nothing
                if i == 0 and len(m) > 1:
                    c2 = c * q ** (m[1] * e)
                else:
                    c2 = c
                m[i] += e
                key = (k, tuple(m))
                out[key] = out.get(key, 0j) + c2
        return out

    def word(self, letters) -> dict:
        """Value of a word given as ``[(name, star), ...]``."""
        value = self.unit()
        for name, star in letters:
            value = self._times_letter(value, name, star)
        return value

    def element(self, elem, theta: float) -> dict:
        """Value of a free-algebra Element at parameter ``theta``."""
        alg = elem.ambient
        total: dict = {}
        for w, c in elem.t.items():
            cv = c.numeric(theta)
            for key, v in self.word(_letters(alg, w)).items():
                total[key] = total.get(key, 0j) + cv * v
        return total


def _letters(alg, w):
    out = []
    for let in w:
        gi, st = divmod(let, 2)
        out.append((alg.names[gi], bool(st)))
    return out


def same_value(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0j) - b.get(k, 0j)) <= TOLERANCE for k in keys)


def torus_model(theta: float) -> Model:
    """The twisted torus V U = e(-t) U V as a single block."""
    return Model([(2, phase(-theta))], {"U": [(0, 0)], "V": [(0, 1)]})


def circle_model() -> Model:
    """U -> z1 + z2 in two commutative one-generator blocks; P -> the first unit."""
    return Model([(1, 1.0), (1, 1.0)], {"U": [(0, 0), (1, 0)], "P": ("unit", 0)})


def family_model(family: dict, model_ambient, theta: float) -> Model:
    """The eight-block model read from a torus scenario: each family element
    is a sum of block generators with coefficient 1, and each block carries
    its commutation phase."""
    blocks = []
    for blk in model_ambient.blocks:
        c = blk.comm.get((0, 1))
        blocks.append((blk.d, c.numeric(theta) if c is not None else 1.0))
    images = {}
    for name, elem in family.items():
        support = []
        for (k, exps), c in elem.t.items():
            if abs(c.numeric(theta) - 1) > TOLERANCE or sorted(exps) != [0, 1]:
                raise ValueError(f"family element {name} is not a sum of generators")
            support.append((k, exps.index(1)))
        images[name] = support
    return Model(blocks, images)
