"""The worked n = 2 deformation: the lifted 2-cocycle

    gamma(g^i tensor v1) = -i g^{i+1},
    gamma(g^i tensor v2) = -C(i+1,2) g^{i+1},
    gamma(v2 ^ v1)       = v2 tensor g,

its Gerstenhaber square bracket on g^i tensor v1 ^ v2 (which must vanish
for the cocycle to lift to a graded deformation), and a rewriting-based
PBW certificate for the resulting algebra H_{lambda,kappa}: relations
become rules

    g^i g^j  -> g^{i+j},
    g^i v_k  -> (^{g^i} v_k) g^i + lambda(g^i tensor v_k),
    v2 v1    -> v1 v2 + kappa(v2 ^ v1),

confluence is checked on the critical pairs (overlap ambiguities), and
normal-form counts are compared against the graded dimensions of
F[v1,v2] x| G.  The count is local: both "irreducible" and "PBW-shaped"
are decided by the factors of length 2 and read only a letter's class
(v1, v2 or g), so it reads only words of length <= 2 in three letters
(see hilbert_check).

Every left side has length 2, none contains another, and the rules
terminate, so by the diamond lemma (Bergman 1978) the system is confluent
iff the two one-step reducts of every overlap xyz (xy and yz both
redexes) have one normal form.  The overlaps are g^i g^j g^k, g^i g^j v_k
and g^i v2 v1.  Only the 2N-1 that begin with g are reduced, in alphabet
order: g v2 v1, then g g^j v_k for every j and k.

This gives the same verdict, witness and forms as reducing every word of
length <= 3 that contains a redex, in alphabet order:

- a word of length <= 2, or a length-3 word with a single redex, has
  exactly one one-step reduct, so it cannot fail;
- so that enumeration could fail only at an overlap; it visits the
  reduced overlaps first (x = g comes before x = g^i) and in the same
  order, so a failure among them is found at the same first word with
  the same two forms;
- both reducts of g^i g^j g^k are the single word for g^{i+j+k}, whatever
  lambda and kappa are, because the g.g rule is addition in Z/N;
- g^i g^j v_k and g^i v2 v1 with i >= 2 resolve once every reduced
  overlap does, so a failure at such a word is never the first one.

The last point for g^i g^j v_k, by induction on i.  For m in Z/N let
Phi_m be the linear map on the span of the words v_r g^c and g^c with

    Phi_m(v_r g^c) = R_{m,r} g^c,   Phi_m(g^c) = g^{m+c},

where R_{m,r} is the right side of the g^m v_r rule (v_r itself for m = 0)
and the trailing g letters merge by the group law.  Leftmost rewriting
takes g^m y to Phi_m(y) for every such word y, and its output is again a
combination of such words.  The two reducts of g g^j v_k reduce to
Phi_{j+1}(v_k) and Phi_1(Phi_j(v_k)); for j = N-1, where g^N = 1, the
first is v_k.  Every Phi_m commutes with right multiplication by g^c,
and on g^c both Phi_{j+1} and Phi_1 Phi_j give g^{j+1+c}.  So if every
g g^j v_k resolves, then Phi_{j+1} = Phi_1 Phi_j for every j, hence
Phi_m = Phi_1^m for all m, with Phi_1^N = Phi_0 the identity.  The two
reducts of g^i g^j v_k then reduce to Phi_{i+j}(v_k) = Phi_1^{i+j}(v_k) and
Phi_i(Phi_j(v_k)) = Phi_1^{i+j}(v_k), which agree.

The last point for g^i v2 v1.  Let B be the algebra of the g^i g^j and
g^i v_k rules alone, with normal form beta.  Its overlaps are g^i g^j g^k
and g^i g^j v_k, so once every g g^j v_k resolves, B is confluent: beta is
well defined, beta(uw) = beta(beta(u) beta(w)), and B is associative.  Put

    r = v2 v1 - v1 v2 - kappa(v2 ^ v1).

On words of v-degree <= 2, leftmost rewriting is beta followed by the
v2 v1 rule: that rule is the leftmost redex only in a word v2 v1 g..g (a
g left of v2 would be a redex further left), where it commutes with
merging the g letters.  On a beta-normal element the v2 v1 rule turns
each v2 v1 g^c into v1 v2 g^c + kappa(v2 ^ v1) g^c, that is, it subtracts
r g^c; so it sends the element to 0 iff the element lies in r.FG.  The
two reducts of g^i v2 v1 have the beta-normal forms g^i.v2.v1 and
g^i.(v1 v2 + kappa), products in B that differ by g^i.r.  So g^i v2 v1
resolves iff g^i.r lies in r.FG.  The reduced overlap g v2 v1 resolves,
so g.r = r.y for some y in FG, and then g^i.r = g^{i-1}.r.y = ... = r.y^i
in B.

So the check costs 2N-1 reductions of two reducts each and O(N) redex
tests.

The lambda-table signs are forced: resolving the overlap word g.v2.v1 both
ways requires kappa = -lambda(g tensor v1)-compatible signs, and resolving
g.g^i.v_k fixes the whole table from its first row.  With kappa = v2
tensor g the unique associative completion is the table above; flipping
any sign breaks confluence (the check below finds the offending word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .fields import Field, Scalar
from .group_action import DEFAULT_ORDER_BOUND, CyclicGroup, group_from_generator, is_transvection
from .linalg import Matrix, rank

Letter = Tuple[str, int]          # ("v", 1|2) or ("g", 1..N-1)
Word = Tuple[Letter, ...]
GroupVec = Tuple[Scalar, ...]     # dense coefficients, index = power of g

MAX_REWRITE_STEPS = 200000


class UnsupportedKappaShape(ValueError):
    pass


class PrerequisiteFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class DeformationParams:
    group: CyclicGroup
    lambda_table: Dict[Tuple[int, int], GroupVec]   # (i, k) -> gamma(g^i tensor v_k) in FG
    kappa_v1: GroupVec                              # gamma(v2 ^ v1) = sum_c kappa_v1[c] v1 g^c + ...
    kappa_v2: GroupVec


def transvection_group(p: int, order_bound: int = DEFAULT_ORDER_BOUND) -> CyclicGroup:
    return group_from_generator(Field.prime(p), [[1, 1], [0, 1]], order_bound=order_bound)


def builtin_transvection_gamma(p: int, order_bound: int = DEFAULT_ORDER_BOUND) -> DeformationParams:
    """The lifted cocycle's parameter tables over F_p: integer coefficients
    -i and -C(i+1,2) taken at the representative 0 <= i < p, then reduced.
    These are the unique values compatible with kappa = v2 tensor g (see
    the module docstring).  The group has order p, so p > order_bound
    raises OrderExceedsBoundError."""
    group = transvection_group(p, order_bound)
    f = group.field
    N = group.order
    table: Dict[Tuple[int, int], GroupVec] = {}
    for i in range(N):
        v1 = [f.zero()] * N
        v1[(i + 1) % N] = f.coerce(-i)
        table[(i, 1)] = tuple(v1)
        v2 = [f.zero()] * N
        v2[(i + 1) % N] = f.coerce(-((i + 1) * i // 2))
        table[(i, 2)] = tuple(v2)
    kv1 = tuple([f.zero()] * N)
    kv2 = [f.zero()] * N
    kv2[1 % N] = f.one()
    return DeformationParams(group, table, kv1, tuple(kv2))


def _gamma_on_ga(params: DeformationParams, acc: List[int], v: GroupVec, k: int,
                 scale: int) -> None:
    """Add scale * gamma(x tensor v_k) to acc, unreduced, for x in FG with
    coefficients v (bilinear extension)."""
    for j, c in enumerate(v):
        if c:
            for m, x in enumerate(params.lambda_table[(j, k)]):
                acc[m] += scale * c * x


def square_bracket_transvection(params: DeformationParams) -> List[GroupVec]:
    """[gamma,gamma](g^i tensor v1 ^ v2) for each i:

        gamma(gamma(g^i tensor v2) tensor v1)
        - gamma(gamma(g^i tensor v1) tensor v2)
        - c * gamma(g^i tensor v2) g

    where kappa = c * (v2 tensor g); any other kappa shape is out of reach
    of this instantiated formula and is refused, and so is a generator that
    is not a transvection (`is_transvection` on 1 - g, the test
    `CyclicGroup.element` also uses, without deriving g's fixed and moved
    spaces).  For the builtin tables
    the three terms evaluate to C(i+1,2)(i+1), -i C(i+2,2), and C(i+1,2)
    times g^{i+2}, which sum to zero identically in the integers.
    """
    gr = params.group
    f = gr.field
    N = gr.order
    one_minus_g = Matrix.identity(f, gr.n) - gr.generator
    if not is_transvection(one_minus_g, rank(one_minus_g)):
        raise ValueError("square bracket formula requires a transvection generator")
    if any(x != 0 for x in params.kappa_v1):
        raise UnsupportedKappaShape("kappa has a v1 component")
    if any(x != 0 for j, x in enumerate(params.kappa_v2) if j != 1 % N):
        raise UnsupportedKappaShape("kappa is not a multiple of v2 tensor g")
    c = params.kappa_v2[1 % N]
    # a transvection has finite order only in characteristic p, so the
    # integer sums are reduced once, mod p
    out = []
    for i in range(N):
        acc = [0] * N
        _gamma_on_ga(params, acc, params.lambda_table[(i, 2)], 1, 1)
        _gamma_on_ga(params, acc, params.lambda_table[(i, 1)], 2, -1)
        for m, x in enumerate(params.lambda_table[(i, 2)]):
            acc[(m + 1) % N] -= c * x
        out.append(tuple(x % f.p for x in acc))
    return out


# -- elements and rewriting --------------------------------------------

class AlgebraElement:
    """A scalar combination of words in the generators; canonical once all
    words are in normal form v1^a v2^b g^c."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Optional[Dict[Word, Scalar]] = None):
        self.field = field
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.field == other.field
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            bits.append("%s*%s" % (self.field.to_str(c), word_str(w)))
        return " + ".join(bits)


def word_str(w: Word) -> str:
    if not w:
        return "1"
    out = []
    for (kind, idx) in w:
        out.append("v%d" % idx if kind == "v" else ("g" if idx == 1 else "g^%d" % idx))
    return "*".join(out)


def g_letter(c: int, N: int) -> Word:
    c %= N
    return () if c == 0 else (("g", c),)


class RewriteSystem:
    """Rewrite rules of H_{lambda,kappa} for a 2-dimensional cyclic action."""

    def __init__(self, params: DeformationParams):
        if params.group.n != 2:
            raise ValueError("rewriting layer covers n = 2 only")
        self.group = params.group
        self.field = f = params.group.field
        self.N = N = params.group.order
        # right-hand side of each g^i v_k rule and of the v2 v1 rule as
        # [(word, coeff), ...]; its words are distinct and its coeffs nonzero
        self._rules: Dict[Tuple[Letter, Letter], List[Tuple[Word, Scalar]]] = {}
        for i in range(1, N):
            m = self.group.power(i)
            for k in (1, 2):
                rhs = [((("v", row),) + g_letter(i, N), m.rows[row - 1][k - 1])
                       for row in (1, 2)]
                rhs += [(g_letter(c, N), coef)
                        for c, coef in enumerate(params.lambda_table[(i, k)])]
                self._rules[(("g", i), ("v", k))] = [t for t in rhs if t[1] != 0]
        rhs = [((("v", 1), ("v", 2)), f.one())]
        for row, kappa in ((1, params.kappa_v1), (2, params.kappa_v2)):
            rhs += [((("v", row),) + g_letter(c, N), coef) for c, coef in enumerate(kappa)]
        self._rules[(("v", 2), ("v", 1))] = [t for t in rhs if t[1] != 0]

    def redex_positions(self, w: Word) -> List[int]:
        out = []
        for l in range(len(w) - 1):
            x, y = w[l], w[l + 1]
            if x[0] == "g" or (x == ("v", 2) and y == ("v", 1)):
                out.append(l)
        # a trailing g is fine; a g anywhere else is caught above
        return out

    def is_normal(self, w: Word) -> bool:
        return not self.redex_positions(w)

    def rewrite_at(self, w: Word, l: int) -> Dict[Word, Scalar]:
        """The one-step reduct of w at the redex (w[l], w[l+1])."""
        x, y = w[l], w[l + 1]
        if x[0] == "g" and y[0] == "g":
            rhs = [(g_letter(x[1] + y[1], self.N), self.field.one())]
        else:
            rhs = self._rules[(x, y)]
        return {w[:l] + mid + w[l + 2:]: c for mid, c in rhs}

    def normal_form(self, terms) -> AlgebraElement:
        """Exhaustive leftmost rewriting of a word or a term dict.  Terms
        are taken in any order: the result is linear in the terms and each
        word's leftmost reduct is fixed, so the order cannot change it."""
        f = self.field
        p = f.p
        if isinstance(terms, tuple):
            terms = {terms: f.one()}
        work: Dict[Word, Scalar] = {w: c for w, c in terms.items() if c != 0}
        done: Dict[Word, Scalar] = {}
        steps = 0
        while work:
            steps += 1
            if steps > MAX_REWRITE_STEPS:
                raise AssertionError("rewrite step budget exceeded; termination broken")
            w, c = work.popitem()
            pos = self.redex_positions(w)
            if not pos:
                nc = done.get(w, 0) + c
                if p is not None:
                    nc %= p
                if nc == 0:
                    done.pop(w, None)
                else:
                    done[w] = nc
                continue
            for nw, nc in self.rewrite_at(w, pos[0]).items():
                acc = work.get(nw, 0) + c * nc
                if p is not None:
                    acc %= p
                if acc == 0:
                    work.pop(nw, None)
                else:
                    work[nw] = acc
        return AlgebraElement(f, done)


def orbifold_algebra(params: DeformationParams) -> RewriteSystem:
    return RewriteSystem(params)


@dataclass(frozen=True)
class ConfluenceReport:
    ok: bool
    words_checked: int
    witness: Optional[str]            # offending word, rendered
    witness_forms: Tuple[str, ...]    # the two normal forms reached


def _reduced_overlaps(N: int):
    """The overlaps confluence_check reduces, in alphabet order: g v2 v1,
    then g g^j v_k for j = 1..N-1 and k = 1, 2."""
    if N < 2:
        return
    g, v1, v2 = ("g", 1), ("v", 1), ("v", 2)
    yield g, v2, v1
    for j in range(1, N):
        yield g, ("g", j), v1
        yield g, ("g", j), v2


def confluence_check(rs: RewriteSystem) -> ConfluenceReport:
    """Reduce both one-step reducts of the overlaps g v2 v1 and g g^j v_k,
    in alphabet order, and demand one common normal form; the module
    docstring proves that every other overlap then resolves.  A candidate
    is skipped unless `rs.redex_positions` flags both of its pairs, so
    subclasses with fewer rules still work.  words_checked counts the
    overlaps reduced: 2N-1 for the builtin rules, at a cost of 2N-1
    reductions of two reducts each and O(N) redex tests."""
    count = 0
    for w in _reduced_overlaps(rs.N):
        if rs.redex_positions(w) != [0, 1]:
            continue
        left, right = (rs.normal_form(rs.rewrite_at(w, l)) for l in (0, 1))
        count += 1
        if left != right:
            return ConfluenceReport(False, count, word_str(w), (repr(left), repr(right)))
    return ConfluenceReport(True, count, None, ())


@dataclass(frozen=True)
class HilbertReport:
    ok: bool
    degree: int
    count: int
    expected: int


def hilbert_check(rs: RewriteSystem, d: int, confluence: ConfluenceReport) -> HilbertReport:
    """Count irreducible words of v-degree <= d and length <= d+1 against
    the graded dimension N * C(d+2, 2) of F[v1,v2] x| G, and assert that
    the irreducible words are exactly the PBW-shaped v1^a v2^b g^c.
    Requires a passed confluence check.

    Both parts read only words of length <= 2 in three letters:

    - Letter classes.  `redex_positions` reads only whether a letter is v1,
      v2 or some g^c, as every g^i g^j and g^i v_k rule does (v2 v1 is the
      only other redex), and so does `_pbw_shaped`.  So a word is
      irreducible, or shaped, iff the word of its classes is, with g^1
      standing for each of the N-1 letters g^c.  A subclass whose
      `redex_positions` reads more than the class is outside this proof.
    - Shape.  `redex_positions` flags a position l exactly when the pair
      (w[l], w[l+1]) is a redex, so a word is irreducible iff each of its
      length-2 factors is.  `_pbw_shaped` reads the word left to right;
      after each letter its stage is fixed by that letter alone (v1: 0,
      v2: 1, g: 2), and whether the next letter is allowed depends only on
      that stage, so a word is shaped iff each of its length-2 factors is.
      Words of length <= 1 are both.  Two such predicates agree on every
      word once they agree on the 13 class words of length <= 2.  Those are
      checked by length, then in the order v1, v2, g; a letter of a smaller
      class comes first in alphabet order, and g^1 is the least g letter,
      so a mismatch names the same first word as full enumeration in
      alphabet order; for d < 1 only length <= d+1 is checked, as full
      enumeration would.
    - Count.  A word of length >= 2 is irreducible iff its length-2 factors
      are, so the irreducible words of length L+1 are the irreducible words
      of length L, ending in some x, extended by a letter y with xy
      irreducible.  A dynamic programme over (class of the last letter,
      v-degree) counts them from the length-2 `is_normal` table, with y
      taken once per letter of its class.  The closed form is only
      `expected`, so a wrong rule table still gives a wrong count.

    Cost O(d^2) steps and at most 13 `is_normal` calls at any N, where
    enumerating the words of length <= d+1 takes (N+1)^(d+1).
    """
    if not confluence.ok:
        raise PrerequisiteFailed("rewrite system is not confluent: %s" % confluence.witness)
    # the class representatives v1, v2, g; no g class when N = 1
    letters = [("v", 1), ("v", 2), ("g", 1)][:3 if rs.N > 1 else 2]
    size = [1, 1, rs.N - 1]
    vdeg = [1, 1, 0]
    normal: Dict[Word, bool] = {}
    words: List[Word] = [()]
    for length in range(min(d + 2, 3)):
        if length:
            words = [w + (l,) for w in words for l in letters]
        for w in words:
            normal[w] = rs.is_normal(w)
            if normal[w] != _pbw_shaped(w):
                raise AssertionError("normal form shape mismatch at %s" % word_str(w))
    count = 0
    if d >= 0:
        # ways[x][k]: irreducible words of the current length that end in
        # a letter of class x and have v-degree k
        ways = [[0] * (d + 1) for _ in letters]
        for x, l in enumerate(letters):
            if normal[(l,)] and vdeg[x] <= d:
                ways[x][vdeg[x]] += size[x]
        count = int(normal[()]) + sum(map(sum, ways))
        follows = [[x for x, lx in enumerate(letters) if normal[(lx, ly)]]
                   for ly in letters] if d >= 1 else []
        for _ in range(d):
            ways = [[size[y] * sum(ways[x][k - vdeg[y]] for x in follows[y])
                     if k >= vdeg[y] else 0
                     for k in range(d + 1)] for y in range(len(letters))]
            count += sum(map(sum, ways))
    expected = rs.N * ((d + 2) * (d + 1) // 2)
    return HilbertReport(count == expected, d, count, expected)


def _pbw_shaped(w: Word) -> bool:
    """v1^a v2^b g^c with a single optional trailing g letter."""
    stage = 0   # 0: v1s, 1: v2s, 2: after g
    for (kind, idx) in w:
        if kind == "v" and idx == 1:
            if stage > 0:
                return False
        elif kind == "v" and idx == 2:
            if stage > 1:
                return False
            stage = 1
        else:
            if stage > 1:
                return False
            stage = 2
    return True
