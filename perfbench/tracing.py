"""Per-layer tracing for the skewcoh benchmark, done from outside the
package: the public functions of each module are rebound to wrappers for
the length of one pass, in the defining module and in every module that
imported the name (``skewcoh.oracle.rank`` as well as ``skewcoh.linalg.rank``).

Two passes over the same jobs give the per-layer numbers:

* the span pass records one span (name, start, end, parent, job) per call of
  a function in ``SPANNED``, in memory; self times and per-function times
  come from the spans once the pass is over;
* the counting pass wraps per-scalar and per-matrix operations with counters
  only, so their wrapper cost never lands in a span's self time.

Wrappers record nothing while no job is running, so the benchmark's own
library calls (expected values, cochain construction, checks) are not
counted.  The layers are the package's modules; ``group`` is group_action
and ``deform`` is deformation.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LAYER_OF_MODULE = {
    "skewcoh.cli": "cli", "skewcoh.linalg": "linalg",
    "skewcoh.group_action": "group", "skewcoh.formula": "formula",
    "skewcoh.oracle": "oracle", "skewcoh.deformation": "deform",
}

# (module, function or Class.method) recorded as spans in the span pass.
SPANNED = [
    ("skewcoh.cli", "main"),
    ("skewcoh.linalg", "rref"), ("skewcoh.linalg", "rank"),
    ("skewcoh.linalg", "kernel_basis"), ("skewcoh.linalg", "image_basis"),
    ("skewcoh.linalg", "eigenspace"), ("skewcoh.linalg", "solve"),
    ("skewcoh.linalg", "char_poly"), ("skewcoh.linalg", "poly_splits"),
    ("skewcoh.linalg", "Matrix.__matmul__"), ("skewcoh.linalg", "Matrix.det"),
    ("skewcoh.linalg", "Matrix.inverse"), ("skewcoh.linalg", "Subspace.contains"),
    ("skewcoh.linalg", "Subspace.complement"),
    ("skewcoh.group_action", "group_from_generator"),
    ("skewcoh.group_action", "CyclicGroup.__init__"),
    ("skewcoh.group_action", "CyclicGroup.element"),
    ("skewcoh.group_action", "CyclicGroup.transfer"),
    ("skewcoh.group_action", "CyclicGroup.induced_action"),
    ("skewcoh.group_action", "chi_invariants"),
    ("skewcoh.formula", "full_report"), ("skewcoh.formula", "identity_contribution"),
    ("skewcoh.formula", "codim1_contribution"), ("skewcoh.formula", "codim2_contribution"),
    ("skewcoh.formula", "nonmodular_crosscheck"),
    ("skewcoh.oracle", "oracle_report"), ("skewcoh.oracle", "per_element_cohomology"),
    ("skewcoh.oracle", "cocycle_conditions"), ("skewcoh.oracle", "coboundary_matrix"),
    ("skewcoh.oracle", "distinguished_constraints"),
    ("skewcoh.oracle", "representative_basis"),
    ("skewcoh.oracle", "reduce_to_representative"),
    ("skewcoh.deformation", "builtin_transvection_gamma"),
    ("skewcoh.deformation", "square_bracket_transvection"),
    ("skewcoh.deformation", "confluence_check"), ("skewcoh.deformation", "hilbert_check"),
]

def span_name(module: str, qual: str) -> str:
    """``layer.function`` or ``layer.Class.method``."""
    return "%s.%s" % (LAYER_OF_MODULE[module], qual)


def _owner(module: str, qual: str):
    mod = importlib.import_module(module)
    if "." in qual:
        cls, attr = qual.split(".")
        owner = getattr(mod, cls)
        return owner, attr, owner.__dict__[attr]
    return mod, qual, getattr(mod, qual)


@contextlib.contextmanager
def patched(make: Dict[Tuple[str, str], Callable[[Callable], Callable]]):
    """Rebind each (module, name) to make[...](original) for the duration:
    methods on their class, functions in every skewcoh module bound to them."""
    undo = []
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "skewcoh" or n.startswith("skewcoh."))]
    try:
        for (module, qual), factory in make.items():
            owner, attr, orig = _owner(module, qual)
            new = factory(orig)
            if isinstance(owner, type):
                undo.append((owner, attr, orig))
                setattr(owner, attr, new)
                continue
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        undo.append((m, name, orig))
                        setattr(m, name, new)
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


class Recorder:
    """Spans of the span pass, kept in memory: [name, start, end, parent, job]."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.job: Optional[str] = None

    def wrapper(self, name: str) -> Callable[[Callable], Callable]:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if self.job is None:
                    return fn(*args, **kwargs)
                idx = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
                spans.append(span)
                stack.append(idx)
                span[1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            return traced
        return make

    def patches(self):
        return patched({(m, q): self.wrapper(span_name(m, q)) for m, q in SPANNED})

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for name, t0, t1, parent, job in self.spans:
                fh.write("%s\t%.9f\t%.9f\t%d\t%s\n" % (name, t0, t1, parent, job))


def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted(parts):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def span_stats(spans: List[list], scale: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-function call counts and inclusive seconds (outermost calls only,
    so recursion is not counted twice), per-layer self seconds, and per
    function the number of calls that called another traced function.
    Seconds of a span are multiplied by ``scale[job]`` when given."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append(s)
    out: Dict[str, float] = defaultdict(float)
    for idx, (name, t0, t1, parent, job) in enumerate(spans):
        f = scale[job] if scale else 1.0
        out[name + ".calls"] += 1
        kids = children.get(idx, ())
        own = (t1 - t0) - covered((t0, t1), [(k[1], k[2]) for k in kids])
        out[name.split(".")[0] + ".self_s"] += own * f
        if kids:
            out[name + ".with_children"] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name + ".s"] += (t1 - t0) * f
    return out


class Counter:
    """The counting pass: call counts and shapes, no clocks."""

    def __init__(self):
        self.job: Optional[str] = None
        self.counts: Dict[str, float] = defaultdict(float)
        self.keys: Dict[str, set] = defaultdict(set)

    def count(self, key: str, extra: Optional[Callable] = None):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.job is None:
                    return fn(*args, **kwargs)
                self.counts[key] += 1
                result = fn(*args, **kwargs)
                if extra is not None:
                    job, self.job = self.job, None     # extra's own calls are not counted
                    try:
                        extra(job, args, result)
                    finally:
                        self.job = job
                return result
            return counted
        return make

    def _rref_shape(self, job, args, result):
        m = args[0]
        self.counts["linalg.rref_cells"] += m.nrows * m.ncols
        self.counts["linalg.rref_nonzero"] += sum(1 for r in m.rows for x in r if x != 0)

    def _cond_shape(self, job, args, result):
        self.counts["oracle.cond_cells"] += result.nrows * result.ncols

    def _summand_class(self, job, args, result):
        if len(args) == 1:                       # identity_contribution: V^h = V, V_h = 0
            key = "identity"
        else:
            ed = args[0].element(args[1])        # already derived by the summand
            key = (ed.fixed_space, ed.moved_space)
        self.keys["formula.classes"].add((job, key))

    def _per_element(self, job, args, result):
        gr, i = args[0], args[1]
        self.keys["oracle.per_element_distinct"].add((gr.field, gr.generator, i % gr.order))

    def _confluence(self, job, args, result):
        self.counts["deform.confluence_words"] += result.words_checked

    def patches(self):
        c = self.count
        arith = c("fields.arith_calls")
        make = {("skewcoh.fields", "Field.coerce"): c("fields.coerce_calls")}
        for op in ("add", "sub", "mul", "neg", "inv", "div"):
            make[("skewcoh.fields", "Field." + op)] = arith
        make.update({
            ("skewcoh.linalg", "Matrix.__init__"): c("linalg.matrix_new_calls"),
            ("skewcoh.linalg", "rref"): c("linalg.rref_calls", self._rref_shape),
            ("skewcoh.oracle", "cocycle_conditions"): c("oracle.cond_calls", self._cond_shape),
            ("skewcoh.oracle", "per_element_cohomology"):
                c("oracle.per_element_calls", self._per_element),
            ("skewcoh.deformation", "confluence_check"):
                c("deform.confluence_calls", self._confluence),
            ("skewcoh.deformation", "RewriteSystem.is_normal"): c("deform.hilbert_words"),
            ("skewcoh.deformation", "RewriteSystem.normal_form"): c("deform.normal_form_calls"),
            ("skewcoh.deformation", "RewriteSystem.rewrite_at"): c("deform.rewrite_at_calls"),
        })
        for q in ("identity_contribution", "codim1_contribution", "codim2_contribution"):
            make[("skewcoh.formula", q)] = c("formula.summand_calls", self._summand_class)
        return patched(make)

    def totals(self) -> Dict[str, float]:
        out = dict(self.counts)
        out.update({k: len(v) for k, v in self.keys.items()})
        return out
