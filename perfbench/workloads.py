"""Seeded workloads for the skewcoh benchmark: job generation, the jobs
themselves, and the checks on their outputs.

A workload is a fixed list of slots built once per run from the seed
(``setup``).  A slot fixes a block form B over a field and the CLI commands
to run on it.  Each round draws, for every slot, a fresh conjugating matrix P
from ``(workload, seed, round)`` and writes the job file for P.B.P^-1
(``round_files``).  Expected per-element totals come from closed forms, from
the hand-checked anchors of the test suite, or from the formula route on the
unconjugated B, computed in ``setup`` before any timing; a conjugate whose
answer differs from B's is a failure, so conjugation invariance is checked
on every job.

``round_jobs`` yields the jobs of one round in order.  A job is either one
``skewcoh.cli.main([...])`` call or one library call; the caller times
``job.run()`` and sends back its ``Outcome``, from which later jobs of the
same slot are built (reduce jobs start from the ``reps`` output).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

import skewcoh
from skewcoh import cli, deformation, formula, oracle
from skewcoh.group_action import group_from_generator

# -- jobs and their outcomes -------------------------------------------


@dataclass
class Outcome:
    rc: Optional[int] = None          # CLI exit code
    stdout: str = ""
    stderr: str = ""
    value: object = None              # library return value
    error: Optional[BaseException] = None
    _doc: object = None

    @property
    def doc(self):
        """The CLI's --json document (parsed once)."""
        if self._doc is None:
            self._doc = json.loads(self.stdout)
        return self._doc


@dataclass
class Job:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Optional[str]]   # None when verified, else the reason


def cli_job(label: str, argv: List[str], check) -> Job:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        o = Outcome()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                o.rc = cli.main(argv)
            except SystemExit as e:        # argparse rejects the arguments
                o.rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:         # a traceback out of the CLI is a failure
                o.error = e
        o.stdout, o.stderr = out.getvalue(), err.getvalue()
        return o
    return Job(label, run, check)


def lib_job(label: str, fn: Callable[[], object], check) -> Job:
    def run() -> Outcome:
        try:
            return Outcome(value=fn())
        except Exception as e:
            return Outcome(error=e)
    return Job(label, run, check)


# -- output checks (pure functions of the output, so they can be tested) --


def _cli_status(o: Outcome, want_rc: int = 0) -> Optional[str]:
    if o.error is not None:
        return "exception %s: %s" % (type(o.error).__name__, o.error)
    if o.rc != want_rc:
        return "exit code %r, expected %d (%s)" % (o.rc, want_rc, o.stderr.strip()[:200])
    return None


def _doc(o: Outcome):
    try:
        return o.doc, None
    except (ValueError, TypeError) as e:
        return None, "unparsable --json output: %s" % e


def check_formula_doc(fdoc, expected: List[int]) -> Optional[str]:
    totals = [s["total"] for s in fdoc["per_element"]]
    if totals != expected:
        return "per-element formula totals %s, expected %s" % (totals[:12], expected[:12])
    if fdoc["total_dim"] != sum(expected):
        return "total_dim %r, expected %d" % (fdoc["total_dim"], sum(expected))
    return None


def check_compare(o: Outcome, expected: List[int]) -> Optional[str]:
    bad = _cli_status(o)
    if bad:
        return bad
    doc, bad = _doc(o)
    if bad:
        return bad
    if doc.get("verdict") != "pass":
        return "verdict %r" % doc.get("verdict")
    rows = doc["oracle"]
    if len(rows) != len(expected):
        return "%d oracle rows for a group of order %d" % (len(rows), len(expected))
    for r, want in zip(rows, expected):
        if not (r["agree"] and r["formula"] == r["oracle"] == want
                and r["z_dim"] - r["b_dim"] == r["oracle"]):
            return "element %d: formula %r, oracle %r, expected %d" % (
                r["index"], r["formula"], r["oracle"], want)
    return check_formula_doc(doc["formula"], expected)


def check_reps(o: Outcome, oracle_dims: List[int]) -> Optional[str]:
    bad = _cli_status(o)
    if bad:
        return bad
    doc, bad = _doc(o)
    if bad:
        return bad
    got = [e["hh_dim"] for e in doc["elements"]]
    if got != oracle_dims:
        return "reps counts %s, oracle hh_dim %s" % (got[:12], oracle_dims[:12])
    for e in doc["elements"]:
        if len(e["basis"]) != e["hh_dim"]:
            return "element %d lists %d representatives for hh_dim %d" % (
                e["index"], len(e["basis"]), e["hh_dim"])
    return None


def check_analyze(o: Outcome, expected: List[int], coprime: bool) -> Optional[str]:
    bad = _cli_status(o)
    if bad:
        return bad
    doc, bad = _doc(o)
    if bad:
        return bad
    nm = doc.get("nonmodular")
    if nm is None:
        return "no nonmodular cross-check in the output"
    want = "pass" if coprime else "not_applicable"
    if nm["verdict"] != want or nm["prop_applicable"] != coprime:
        return "nonmodular verdict %r (prop %r), expected %r" % (
            nm["verdict"], nm["prop_applicable"], want)
    return check_formula_doc(doc["formula"], expected)


def check_deform(o: Outcome, p: int) -> Optional[str]:
    bad = _cli_status(o)
    if bad:
        return bad
    doc, bad = _doc(o)
    if bad:
        return bad
    if doc["prime"] != p or doc["verdict"] != "pass":
        return "prime %r verdict %r" % (doc["prime"], doc["verdict"])
    if not doc["bracket_zero"] or any(x != "0" for v in doc["bracket"] for x in v):
        return "square bracket is not zero"
    if not doc["confluence"]["ok"]:
        return "confluence failed at %r" % doc["confluence"]["witness"]
    h = doc["hilbert"]
    want = p * math.comb(4 + 2, 2)       # N * C(d+2, 2) with N = p, d = 4
    if h is None or not h["ok"] or h["count"] != want or h["expected"] != want:
        return "Hilbert count %r, expected %d" % (h, want)
    return None


def check_confluence_control(o: Outcome) -> Optional[str]:
    """The perturbed parameter table must fail confluence at g*v2*v1."""
    if o.error is not None:
        return "exception %s: %s" % (type(o.error).__name__, o.error)
    r = o.value
    if r.ok:
        return "negative control passed: perturbed table is confluent"
    if r.witness != "g*v2*v1" or len(r.witness_forms) != 2 or \
            r.witness_forms[0] == r.witness_forms[1]:
        return "witness %r with forms %r, expected 'g*v2*v1' with two forms" % (
            r.witness, r.witness_forms)
    return None


def check_raises(o: Outcome, exc: type) -> Optional[str]:
    if o.error is None:
        return "negative control passed: no %s" % exc.__name__
    if not isinstance(o.error, exc):
        return "raised %s, expected %s" % (type(o.error).__name__, exc.__name__)
    return None


def check_input_error(o: Outcome) -> Optional[str]:
    bad = _cli_status(o, want_rc=2)
    if bad:
        return "negative control: " + bad
    if not o.stderr.startswith("error:"):
        return "exit 2 without an error message"
    return None


# -- matrices: block forms and seeded conjugation ------------------------


def block(jordan: int, diag: List[int], blocks: List[List[List[int]]] = ()) -> List[List[int]]:
    """J_jordan(1) (+) each of ``blocks`` (+) diag(diag), as integer rows."""
    parts = ([[[int(i == j or j == i + 1) for j in range(jordan)] for i in range(jordan)]]
             if jordan else [])
    parts += [list(map(list, b)) for b in blocks] + [[[d]] for d in diag]
    n = sum(len(b) for b in parts)
    m = [[0] * n for _ in range(n)]
    o = 0
    for b in parts:
        for i, row in enumerate(b):
            m[o + i][o:o + len(row)] = row
        o += len(b)
    return m


def _matmul(a, b, p: int = 0):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[x % p for x in row] for row in out] if p else out


def _inverse_mod(a, p: int):
    """Inverse over F_p, or None if singular."""
    n = len(a)
    m = [[x % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = pow(m[c][c], -1, p)
        m[c] = [x * inv % p for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                k = m[r][c]
                m[r] = [(x - k * y) % p for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def conjugate_mod(b, p: int, rng: random.Random):
    """P.B.P^-1 over F_p for a uniformly random invertible P."""
    n = len(b)
    while True:
        pm = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        pinv = _inverse_mod(pm, p)
        if pinv is not None:
            return _matmul(_matmul(pm, b, p), pinv, p)


def conjugate_small(b, rng: random.Random, steps: int):
    """P.B.P^-1 over Z for P = (signed permutation) times ``steps`` random
    elementary operations x_a += +-x_b, so P^-1 is integral and entries
    stay small."""
    n = len(b)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    pm = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    pinv = [[pm[j][i] for j in range(n)] for i in range(n)]
    for _ in range(steps):
        a, c = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        pm[a] = [x + s * y for x, y in zip(pm[a], pm[c])]   # E.P, E = I + s e_ac
        for row in pinv:                                     # P^-1.E^-1
            row[c] -= s * row[a]
    return _matmul(_matmul(pm, b), pinv)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _primes(lo: int, hi: int, mod: int = 1) -> List[int]:
    return [p for p in range(lo, hi) if (p - 1) % mod == 0 and _is_prime(p)]


def _element_of_order(p: int, m: int) -> int:
    """Smallest element of F_p^* of exact multiplicative order m (m | p-1)."""
    qs = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for x in range(2, p):
        z = pow(x, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in qs):
            return z
    raise ValueError("no element of order %d in F_%d" % (m, p))


def _prime(p: int) -> dict:
    return {"type": "prime", "p": p}


RATIONAL = {"type": "rational"}


# -- slots -------------------------------------------------------------


@dataclass
class Slot:
    """One matrix job per round: its block form, how it is conjugated, the
    commands run on it and the expected per-element totals."""
    label: str
    field: dict
    block: List[List[int]]
    conj: str                        # "mod" (dense P over F_p) | "small" (over Z) | "none"
    commands: List[str]              # compare | reps | analyze
    expected: Optional[List[int]] = None
    reduce_elements: int = 0         # reduce jobs built from the reps output
    conj_steps: int = 0

    def generator(self, rng: random.Random):
        if self.conj == "mod":
            return conjugate_mod(self.block, self.field["p"], rng)
        if self.conj == "small":
            return conjugate_small(self.block, rng, self.conj_steps)
        return [list(r) for r in self.block]

    @property
    def coprime(self) -> bool:
        p = self.field.get("p", 0)
        return p == 0 or math.gcd(len(self.expected), p) == 1


def _field_of(spec: dict) -> skewcoh.Field:
    return skewcoh.Field.prime(spec["p"]) if spec["type"] == "prime" else skewcoh.Field.rational()


def formula_totals(spec: dict, rows) -> List[int]:
    """Per-element totals of the formula route on the given generator."""
    gr = group_from_generator(_field_of(spec), rows)
    return [s.total for s in formula.full_report(gr).per_element]


# Per-element totals of the regression suite's Jordan+reflection anchors,
# hand-checked in tests/conftest.py.
JORDAN3_REFL_F3 = [3, 0, 3, 0, 3, 0]
JORDAN4_REFL_F3 = [4, 0, 1, 0, 1, 0]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[random.Random], dict]
    jobs: Callable[[dict, int, random.Random, Dict[str, str]], Iterator[Job]]
    min_rounds: int = 4     # rounds every timed run completes; fixes the tail percentile


def _modular_setup(rng: random.Random) -> dict:
    d5 = rng.choice((2, 3))          # a generator of F_5^*: |G| = 20
    slots = [
        Slot("jordan3+refl F_3 (anchor)", _prime(3), block(2, [-1]), "none",
             ["compare", "reps"], JORDAN3_REFL_F3, reduce_elements=2),
        Slot("jordan4+refl F_3 (anchor)", _prime(3), block(3, [-1]), "none",
             ["compare", "reps"], JORDAN4_REFL_F3, reduce_elements=2),
        Slot("n=3 J2+refl F_3", _prime(3), block(2, [-1]), "mod",
             ["compare", "reps"], reduce_elements=2),
        Slot("n=3 J2+diag F_5", _prime(5), block(2, [d5]), "mod",
             ["compare", "reps"], reduce_elements=2),
        Slot("n=4 J3+refl F_3", _prime(3), block(3, [-1]), "mod",
             ["compare", "reps"], reduce_elements=2),
        Slot("n=4 J2+refl+1 F_5", _prime(5), block(2, [-1, 1]), "mod",
             ["compare", "reps"], reduce_elements=2),
        Slot("n=5 J3+refl+1 F_3", _prime(3), block(3, [-1, 1]), "mod", ["compare", "reps"]),
        Slot("n=6 J2+1111 F_3", _prime(3), block(2, [1, 1, 1, 1]), "mod", ["compare", "reps"]),
    ]
    for s in slots:
        if s.expected is None:
            s.expected = formula_totals(s.field, s.block)
    return {"slots": slots}


# Signed permutations and cyclotomic companion blocks (all of finite order).
SIGNED_3CYCLE = [[0, 0, -1], [1, 0, 0], [0, 1, 0]]          # order 6
CYCLE3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
CYCLE4 = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
SWAP = [[0, 1], [1, 0]]
PHI3 = [[0, -1], [1, -1]]                                    # order 3
PHI4 = [[0, -1], [1, 0]]                                     # order 4
PHI6 = [[0, -1], [1, 1]]                                     # order 6


def _rational_setup(rng: random.Random) -> dict:
    cr = ["compare", "reps"]
    # n = 3: conjugated by a signed permutation alone, as any elementary step
    # makes their cost vary more between seeds than between the shapes; n >= 4:
    # one elementary step mixes coordinates too (except the |G| = 12 rotation,
    # whose cost a single step already doubles)
    slots = [Slot("n=3 %s Q" % label, RATIONAL, b, "small", cr) for label, b in (
        ("signed 3-cycle", SIGNED_3CYCLE), ("3-cycle", CYCLE3),
        ("Phi3+refl", block(0, [-1], [PHI3])), ("Phi4+refl", block(0, [-1], [PHI4])),
        ("Phi4+1", block(0, [1], [PHI4])), ("Phi6+1", block(0, [1], [PHI6])),
        ("Phi6+refl", block(0, [-1], [PHI6])))]
    slots += [
        Slot("n=4 4-cycle Q", RATIONAL, CYCLE4, "small", cr, conj_steps=1),
        Slot("n=4 Phi3+Phi4 Q (|G|=12)", RATIONAL, block(0, [], [PHI3, PHI4]), "small", cr),
        Slot("n=5 swap+refl Q", RATIONAL, block(0, [1, 1, -1], [SWAP]), "small", cr,
             conj_steps=1),
    ]
    for s in slots:
        s.expected = formula_totals(s.field, s.block)
    # [[1,1],[0,1]] has infinite order over Q: the order cap must reject it
    unipotent = {"field": RATIONAL, "generator": [[1, 1], [0, 1]]}
    return {"slots": slots, "max_order": rng.randrange(20, 61),
            "fixed_files": {"unipotent": unipotent}}


# Group orders of the diagonal long-order slots.
DIAG_ORDERS = (120, 360, 600)


def _diag_slot(rng: random.Random, n: int, m: int) -> Slot:
    """diag(z, z^k[, 1]) over a seeded F_p with z of order m: |G| = m."""
    p = rng.choice(_primes(m, 20 * m, m))
    z = _element_of_order(p, m)
    k = rng.choice([k for k in range(2, m) if math.gcd(k, m) == 1])
    entries = [z, pow(z, k, p)] + [1] * (n - 2)
    rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return Slot("n=%d diag |G|=%d F_%d" % (n, m, p), _prime(p), rows, "mod",
                ["analyze", "compare"])


def _long_setup(rng: random.Random) -> dict:
    cmds = ["analyze", "compare"]
    slots = []
    # narrow prime ranges: |G| = p, so the work per round hardly depends on the seed
    for lo, hi in ((89, 102), (191, 212)):
        p = rng.choice(_primes(lo, hi))
        slots.append(Slot("transvection F_%d" % p, _prime(p), [[1, 1], [0, 1]], "mod", cmds,
                          expected=[2] * p))    # closed form: 2 per element, total 2p
    slots += [_diag_slot(rng, 2, DIAG_ORDERS[0]), _diag_slot(rng, 2, DIAG_ORDERS[1]),
              _diag_slot(rng, 3, DIAG_ORDERS[2])]
    # small order at p ~ 10^6: the split test of the nonmodular check scans F_p
    pb = rng.choice(_primes(10 ** 6, 10 ** 6 + 2000, 4))
    slots.append(Slot("n=2 rotation F_%d" % pb, _prime(pb), PHI4, "mod", cmds))
    for s in slots:
        if s.expected is None:
            s.expected = formula_totals(s.field, s.block)
    return {"slots": slots}


DEFORM_PRIMES = (3, 5, 7, 11, 13)


def _deform_setup(rng: random.Random) -> dict:
    # the CLI jobs are the same for every seed; the seed picks the control
    job = {"field": _prime(7), "generator": [[1, 1], [0, 1]]}
    return {"slots": [], "job_prime": 7, "fixed_files": {"transvection": job},
            "control_prime": rng.choice((3, 5, 7)), "control_scale": rng.choice((1, 2))}


# -- round generation ------------------------------------------------------


def _rng(workload: str, seed: int, k: int, part: str) -> random.Random:
    return random.Random("%s:%d:%d:%s" % (workload, seed, k, part))


def round_files(name: str, state: dict, seed: int, k: int) -> Dict[str, str]:
    """File name -> JSON text of every job file of round k."""
    rng = _rng(name, seed, k, "files")
    docs = [("s%d" % j, {"field": s.field, "generator": s.generator(rng)})
            for j, s in enumerate(state["slots"])]
    docs += sorted(state.get("fixed_files", {}).items())
    return {"r%d-%s.json" % (k, stem): json.dumps(doc, sort_keys=True) + "\n"
            for stem, doc in docs}


def write_round(name: str, state: dict, seed: int, k: int, workdir: str) -> Dict[str, str]:
    paths = {}
    for fname, text in round_files(name, state, seed, k).items():
        path = os.path.join(workdir, fname)
        with open(path, "w") as fh:
            fh.write(text)
        paths[fname] = path
    return paths


def _cli_command(cmd: str, path: str) -> List[str]:
    if cmd == "analyze":
        return ["analyze", path, "--json", "--nonmodular-check"]
    return [cmd, path, "--json"]


def _slot_jobs(s: Slot, path: str, rng: random.Random) -> Iterator[Job]:
    """The CLI jobs of one slot, then its reduce jobs."""
    oracle_dims = None
    reps_doc = None
    for cmd in s.commands:
        label = "%s %s" % (cmd, s.label)
        if cmd == "compare":
            o = yield cli_job(label, _cli_command(cmd, path),
                              lambda o: check_compare(o, s.expected))
            if o is None:
                return
            oracle_dims = [r["oracle"] for r in o.doc["oracle"]]
        elif cmd == "reps":
            o = yield cli_job(label, _cli_command(cmd, path),
                              lambda o, d=oracle_dims: check_reps(o, d))
            if o is None:
                return
            reps_doc = o.doc
        else:
            o = yield cli_job(label, _cli_command(cmd, path),
                              lambda o: check_analyze(o, s.expected, s.coprime))
            if o is None:
                return
    if s.reduce_elements and reps_doc is not None:
        with open(path) as fh:
            rows = json.load(fh)["generator"]
        gr = group_from_generator(_field_of(s.field), rows)
        # fixed elements g, g^2, ... keep the work per round the same across seeds;
        # the cocycles reduced on them are random
        for i in range(1, 1 + s.reduce_elements):
            yield from _reduce_jobs(gr, i, reps_doc["elements"][i]["basis"], rng, s.label)


def _flat_rep(f, n: int, rep: dict) -> tuple:
    """Flat cochain coordinates (lambda, then alpha per wedge pair) of one
    representative as printed by ``reps --json``."""
    flat = [f.coerce(x) for x in rep["lambda"]]
    for a in range(n):
        for b in range(a + 1, n):
            flat += [f.coerce(x) for x in rep["alpha"]["e%d^e%d" % (a + 1, b + 1)]]
    return tuple(flat)


def _reduce_jobs(gr, i: int, basis: List[dict], rng: random.Random, label: str) -> Iterator[Job]:
    """Reduce class + random coboundary: the result must be the class's
    representative (constant on the class), and reducing it again must give
    it back (idempotent)."""
    f, n = gr.field, gr.n
    target = [f.zero()] * oracle.cochain_dim(n)
    for rep in basis:
        c = f.coerce(rng.randrange(0, 7))
        target = [f.add(x, f.mul(c, y)) for x, y in zip(target, _flat_rep(f, n, rep))]
    target = tuple(target)
    dmat = oracle.coboundary_matrix(gr, i)
    beta = [f.coerce(rng.randrange(-3, 4)) for _ in range(n)]
    gamma = oracle.CochainTwo.from_flat(
        f, n, i, [f.add(x, y) for x, y in zip(target, dmat.apply(beta))])

    def check_reduced(o: Outcome, start) -> Optional[str]:
        if o.error is not None:
            return "exception %s: %s" % (type(o.error).__name__, o.error)
        rep, witness = o.value
        if rep.flat() != target:
            return "reduce gave another representative than reps at element %d" % i
        moved = dmat.apply(witness.f)
        if tuple(f.sub(x, y) for x, y in zip(start.flat(), moved)) != target:
            return "witness f does not carry the input to its representative"
        return None

    o = yield lib_job("reduce %s g^%d" % (label, i),
                      lambda: oracle.reduce_to_representative(gr, gamma),
                      lambda o: check_reduced(o, gamma))
    if o is None:
        return
    rep = o.value[0]
    yield lib_job("reduce again %s g^%d" % (label, i),
                  lambda: oracle.reduce_to_representative(gr, rep),
                  lambda o: check_reduced(o, rep))


def _noncocycle_job(s: Slot, path: str, rng: random.Random) -> Job:
    """A cochain that breaks the cocycle conditions; reduce must refuse it."""
    with open(path) as fh:
        rows = json.load(fh)["generator"]
    gr = group_from_generator(_field_of(s.field), rows)
    f, n = gr.field, gr.n
    i = 1
    cond = oracle.cocycle_conditions(gr, i)
    coords = list(range(oracle.cochain_dim(n)))
    rng.shuffle(coords)
    for c in coords:        # first coordinate vector that is not a cocycle
        flat = [f.zero()] * len(coords)
        flat[c] = f.one()
        if any(x != 0 for x in cond.apply(flat)):
            break
    bad = oracle.CochainTwo.from_flat(f, n, i, flat)
    return lib_job("reduce non-cocycle %s g^%d" % (s.label, i),
                   lambda: oracle.reduce_to_representative(gr, bad),
                   lambda o: check_raises(o, oracle.NotACocycleError))


def _matrix_round(state: dict, k: int, rng: random.Random, paths: Dict[str, str]) -> Iterator[Job]:
    for j, s in enumerate(state["slots"]):
        yield from _slot_jobs(s, paths["r%d-s%d.json" % (k, j)], rng)


def _modular_jobs(state, k, rng, paths):
    yield from _matrix_round(state, k, rng, paths)
    with_reduce = [j for j, s in enumerate(state["slots"]) if s.reduce_elements]
    j = with_reduce[k % len(with_reduce)]
    yield _noncocycle_job(state["slots"][j], paths["r%d-s%d.json" % (k, j)], rng)


def _rational_jobs(state, k, rng, paths):
    yield from _matrix_round(state, k, rng, paths)
    yield cli_job("analyze unipotent Q --max-order %d" % state["max_order"],
                  ["analyze", paths["r%d-unipotent.json" % k], "--max-order",
                   str(state["max_order"])], check_input_error)


def _long_jobs(state, k, rng, paths):
    yield from _matrix_round(state, k, rng, paths)
    # a cap one below the largest |G| must reject that group
    j, s = max(enumerate(state["slots"]), key=lambda js: len(js[1].expected))
    cap = len(s.expected) - 1
    yield cli_job("analyze %s --max-order %d" % (s.label, cap),
                  ["analyze", paths["r%d-s%d.json" % (k, j)], "--max-order", str(cap)],
                  check_input_error)


def _deform_jobs(state, k, rng, paths):
    for p in DEFORM_PRIMES:
        yield cli_job("deform p=%d" % p, ["deform", "--deform-prime", str(p), "--json"],
                      lambda o, p=p: check_deform(o, p))
    yield cli_job("deform job file p=%d" % state["job_prime"],
                  ["deform", paths["r%d-transvection.json" % k], "--json"],
                  lambda o: check_deform(o, state["job_prime"]))
    params = deformation.builtin_transvection_gamma(state["control_prime"])
    f = params.group.field
    table = dict(params.lambda_table)
    table[(1, 1)] = (f.coerce(state["control_scale"]),) + (f.zero(),) * (params.group.order - 1)
    bad = dataclasses.replace(params, lambda_table=table)
    yield lib_job("confluence of a perturbed table p=%d" % state["control_prime"],
                  lambda: deformation.confluence_check(deformation.orbifold_algebra(bad)),
                  check_confluence_control)


WORKLOADS = {w.name: w for w in [
    Workload(
        "modular-sweep",
        "The n axis in the modular case: oracle assembly and linalg elimination do "
        "almost all the work, and reduce re-derives per_element_cohomology on every "
        "call, so caching shows here.",
        _modular_setup, _modular_jobs),
    Workload(
        "rational-sweep",
        "The same oracle/linalg layers with Fraction arithmetic: an F_p-only kernel "
        "that slows Q shows up here and not on modular-sweep.",
        _rational_setup, _rational_jobs),
    Workload(
        "long-order",
        "The |G| and p axes: group_action.element, the formula summands, many tiny "
        "oracle complexes, poly_splits and large --json output do the work.",
        _long_setup, _long_jobs),
    Workload(
        "deform-ladder",
        "The rewriting layer does all the work and every other layer is idle: the "
        "only workload that measures deformation; it predicts no change for every "
        "non-rewriting change.",
        _deform_setup, _deform_jobs, min_rounds=6),
]}

def setup(name: str, seed: int) -> dict:
    """Slots and expected values of a workload for a seed (not timed)."""
    return WORKLOADS[name].setup(random.Random("%s:%d:setup" % (name, seed)))


def round_jobs(name: str, state: dict, seed: int, k: int,
               paths: Dict[str, str]) -> Iterator[Job]:
    """The jobs of round k in order; send each job's Outcome back (None after
    a failed job ends the slot's dependent jobs)."""
    return WORKLOADS[name].jobs(state, k, _rng(name, seed, k, "jobs"), paths)
