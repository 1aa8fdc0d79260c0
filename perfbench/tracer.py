"""Per-layer counts and self times, recorded from outside the package.

:class:`Tracer` wraps the public functions and the main methods of the
``qiso`` modules.  A module-level function is often imported by name into
other modules (``substitute`` into ``qiso.cqg`` and ``qiso.catalog``, say), so
every binding that holds the original object is replaced, in every ``qiso``
module, and restored by :meth:`Tracer.uninstall`.  Callers outside the
package must look functions up through their module at call time
(``cqg.check_hom(...)``) for the wrappers to see those calls.

Three kinds of wrapper:

- a *span* times each call; its self time is its duration minus the time of
  the spans (and sampled leaves) it encloses;
- a *count* only counts calls, for leaves called millions of times;
- a *sampled* leaf counts every call and times a random one in
  ``SAMPLE_EVERY`` (random, so that a leaf and the leaves it calls are not
  sampled in lockstep); that call's self time times ``SAMPLE_EVERY`` is
  charged to the leaf and, with the time of what the call enclosed, taken out
  of the enclosing span's self time.  In expectation every layer gets its own
  self time.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import re
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scalars", "freealg", "graded", "rewrite", "cqg", "catalog", "presfile", "expr")
SAMPLE_EVERY = 8

# module-level functions called too often to time every call
SAMPLED_FUNCTIONS = {"twist_phase", "pair", "collapse_phase", "tau", "haar"}
COUNT_FUNCTIONS = {"join_signed"}

# class -> {method: kind}; kinds: span, count, sampled
CLASS_METHODS = {
    ("scalars", "Scalar"): {
        "__mul__": "sampled", "__add__": "sampled", "__neg__": "count",
        "__sub__": "count", "__pow__": "count", "one": "count", "inv": "count",
        "conj": "count", "specialize": "count",
    },
    ("scalars", "Cyclo"): {"__mul__": "count", "__add__": "count", "inv": "count"},
    ("freealg", "Element"): {"__mul__": "span", "__add__": "span", "star": "span", "render": "span"},
    ("freealg", "FreeAlgebra"): {"mul_mono": "sampled"},
    ("freealg", "TensorAlgebra"): {"mul_mono": "sampled"},
    ("graded", "BlockAlgebra"): {"mul_mono": "sampled", "star_mono": "count"},
    ("graded", "DirectSum"): {"mul_mono": "sampled", "star_mono": "count"},
    ("graded", "Laplacian"): {"apply": "span"},
    ("rewrite", "RuleSet"): {"__init__": "span", "normal_form": "span"},
    ("cqg", "CQGPresentation"): {"delta_model": "span", "delta": "span", "in_model": "span", "rules": "span"},
    ("cqg", "ActionSpec"): {"apply": "span", "reduce": "span"},
    ("cqg", "Report"): {"add": "count"},
    ("catalog", "Scenario"): {"suite": "span", "normal_form": "span", "membership": "span", "parse": "span"},
}

_NAME_OK = re.compile(r"[A-Za-z0-9_.-]")
_NAME_BAD_RUN = re.compile(r"[^A-Za-z0-9_.-]+")
MAX_NAME = 64


def metric_name(prefix: str, raw: str) -> str:
    """``prefix + raw`` made into a metric name of at most 64 characters from
    ``[A-Za-z0-9_.-]``.  A clean name that fits is kept.  Any other name
    becomes a readable slug, ``--`` and ten hex digits of the SHA-256 of the
    raw text, so distinct raw names get distinct metric names (the tests check
    every check name the benchmark records)."""
    full = prefix + raw
    if len(full) <= MAX_NAME and all(_NAME_OK.match(ch) for ch in full):
        return full
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:10]
    slug = _NAME_BAD_RUN.sub("_", raw).strip("_")
    room = MAX_NAME - len(prefix) - len(digest) - 2
    return f"{prefix}{slug[:room]}--{digest}"


class Tracer:
    """Counts and self times per wrapped function, aggregated by layer."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.max_terms = 0
        self.rules = 0
        self.capped_sets = 0
        self._stack: list = []  # per open span: time covered by its children
        self._random = random.Random(0).random
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------
    def _span(self, key, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += dt - child
                self.incl_s[key] += dt
                if stack:
                    stack[-1] += dt

        return wrapper

    def _count(self, key, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sampled(self, key, fn):
        calls, stack, clock = self.calls, self._stack, time.perf_counter
        draw, rate = self._random, 1.0 / SAMPLE_EVERY

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if draw() >= rate:
                return fn(*args, **kwargs)
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                est = (dt - inner) * SAMPLE_EVERY
                self.self_s[key] += est
                if stack:
                    stack[-1] += inner + est

        return wrapper

    def _element_mul(self, key, fn):
        inner = self._span(key, fn)

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            terms = getattr(out, "t", None)
            if terms is not None and len(terms) > self.max_terms:
                self.max_terms = len(terms)
            return out

        return wrapper

    def _ruleset_init(self, key, fn):
        inner = self._span(key, fn)

        def wrapper(rs, *args, **kwargs):
            inner(rs, *args, **kwargs)
            self.rules += len(rs.rules)
            self.capped_sets += bool(rs.capped)

        return wrapper

    def _make(self, key, kind, fn):
        if key == "freealg.Element.__mul__":
            return self._element_mul(key, fn)
        if key == "rewrite.RuleSet.__init__":
            return self._ruleset_init(key, fn)
        return {"span": self._span, "count": self._count, "sampled": self._sampled}[kind](key, fn)

    # -- install / uninstall -----------------------------------------------------
    def install(self):
        """Wrap every target and rebind it in every ``qiso`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qiso  # noqa: F401  (loads every submodule)

        owners = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "qiso" or n.startswith("qiso."))]
        for layer in LAYERS:
            mod = sys.modules[f"qiso.{layer}"]
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                kind = ("sampled" if name in SAMPLED_FUNCTIONS
                        else "count" if name in COUNT_FUNCTIONS else "span")
                wrapper = self._make(f"{layer}.{name}", kind, fn)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(sys.modules[f"qiso.{layer}"], cls_name)
            for meth, kind in methods.items():
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._make(f"{layer}.{cls_name}.{meth}", kind, fn)
                if isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                # aliases such as __rmul__ = __mul__ share the wrapper
                for attr, value in list(cls.__dict__.items()):
                    if value is raw:
                        self._patch(cls, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, "__dict__", {})[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ------------------------------------------------------------------
    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for key, s in self.self_s.items():
            out[key.split(".", 1)[0]] += s
        return out
