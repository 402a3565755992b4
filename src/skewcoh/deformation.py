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
the irreducible words are shown to be PBW-shaped, so H has the graded
dimensions of F[v1,v2] x| G.  The check is local: both "irreducible" and
"PBW-shaped" are decided by the factors of length 2 and read only a
letter's class (v1, v2 or g), so it reads only words of length <= 2 in
three letters.  Once those agree, the irreducible words are exactly
v1^a v2^b and v1^a v2^b g^c, N for each pair (a, b), and the count is
read off that shape, not recounted (see hilbert_check).

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

So the check costs 2N-1 reductions of two reducts each.  A rewrite
system derives each word's leftmost reduct once (see
RewriteSystem.normal_form), so it makes one redex test per distinct word
those reductions meet, about 11N for the builtin tables, plus the 2N-1
on the overlaps themselves.  Building the rules and the square bracket
read the dense tables in C and do Python-level work only per nonzero
entry: the builtin tables have one in each lambda row and one in kappa.

The lambda-table signs are forced: resolving the overlap word g.v2.v1 both
ways requires kappa = -lambda(g tensor v1)-compatible signs, and resolving
g.g^i.v_k fixes the whole table from its first row.  With kappa = v2
tensor g the unique associative completion is the table above; flipping
any sign breaks confluence (the check below finds the offending word).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Tuple

from .fields import Field, Scalar
from .group_action import DEFAULT_ORDER_BOUND, CyclicGroup, group_from_generator, is_transvection
from .linalg import minus_scalar, rank

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


# the worked example's generator, v1 -> v1, v2 -> v1 + v2
TRANSVECTION = [[1, 1], [0, 1]]


def transvection_group(p: int, order_bound: int = DEFAULT_ORDER_BOUND) -> CyclicGroup:
    return group_from_generator(Field.prime(p), TRANSVECTION, order_bound=order_bound)


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


def _nonzeros(v: GroupVec) -> List[Tuple[int, Scalar]]:
    """The (index, coefficient) pairs of v's nonzero entries; the zeros are
    skipped in C, so the Python-level work is one step per nonzero."""
    return [(m, v[m]) for m in compress(range(len(v)), v)]


def _gamma_on_ga(sparse: Dict[Tuple[int, int], List[Tuple[int, Scalar]]],
                 acc: Dict[int, int], v: List[Tuple[int, Scalar]], k: int, scale: int) -> None:
    """Add scale * gamma(x tensor v_k) to acc, unreduced, for x in FG with
    nonzero coefficients v (bilinear extension); sparse holds the nonzeros
    of each lambda-table row."""
    for j, c in v:
        for m, x in sparse[(j, k)]:
            acc[m] = acc.get(m, 0) + scale * c * x


def square_bracket_transvection(params: DeformationParams) -> List[GroupVec]:
    """[gamma,gamma](g^i tensor v1 ^ v2) for each i:

        gamma(gamma(g^i tensor v2) tensor v1)
        - gamma(gamma(g^i tensor v1) tensor v2)
        - c * gamma(g^i tensor v2) g

    where kappa = c * (v2 tensor g); any other kappa shape is out of reach
    of this instantiated formula and is refused, and so is a generator that
    is not a transvection (`is_transvection` on g - 1, the test
    `CyclicGroup.element` also uses, without deriving g's fixed and moved
    spaces).  For the builtin tables
    the three terms evaluate to C(i+1,2)(i+1), -i C(i+2,2), and C(i+1,2)
    times g^{i+2}, which sum to zero identically in the integers.
    """
    gr = params.group
    f = gr.field
    N = gr.order
    g_minus_1 = minus_scalar(gr.generator, f.one())
    if not is_transvection(g_minus_1, rank(g_minus_1)):
        raise ValueError("square bracket formula requires a transvection generator")
    if any(x != 0 for x in params.kappa_v1):
        raise UnsupportedKappaShape("kappa has a v1 component")
    if any(x != 0 for j, x in enumerate(params.kappa_v2) if j != 1 % N):
        raise UnsupportedKappaShape("kappa is not a multiple of v2 tensor g")
    c = params.kappa_v2[1 % N]
    sparse = {key: _nonzeros(v) for key, v in params.lambda_table.items()}
    # a transvection has finite order only in characteristic p, so the
    # integer sums are reduced once, mod p, and only where they are nonzero
    out = []
    for i in range(N):
        acc: Dict[int, int] = {}
        _gamma_on_ga(sparse, acc, sparse[(i, 2)], 1, 1)
        _gamma_on_ga(sparse, acc, sparse[(i, 1)], 2, -1)
        for m, x in sparse[(i, 2)]:
            m = (m + 1) % N
            acc[m] = acc.get(m, 0) - c * x
        row = [f.zero()] * N
        for m, x in acc.items():
            row[m] = x % f.p
        out.append(tuple(row))
    return out


# -- rewriting ------------------------------------------------------------

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
        group = params.group
        if group.n != 2:
            raise ValueError("rewriting layer covers n = 2 only")
        self.field = f = group.field
        self.N = N = group.order
        # right-hand side of each g^i v_k rule and of the v2 v1 rule as
        # [(word, coeff), ...]; its words are distinct and its coeffs nonzero
        self._rules: Dict[Tuple[Letter, Letter], List[Tuple[Word, Scalar]]] = {}
        # only the nonzero table entries get a word
        for i in range(1, N):
            m = group.power(i)
            gi = g_letter(i, N)
            for k in (1, 2):
                rhs = [((("v", row),) + gi, m.rows[row - 1][k - 1])
                       for row in (1, 2) if m.rows[row - 1][k - 1] != 0]
                rhs += [(g_letter(c, N), coef)
                        for c, coef in _nonzeros(params.lambda_table[(i, k)])]
                self._rules[(("g", i), ("v", k))] = rhs
        rhs = [((("v", 1), ("v", 2)), f.one())]
        for row, kappa in ((1, params.kappa_v1), (2, params.kappa_v2)):
            rhs += [((("v", row),) + g_letter(c, N), coef) for c, coef in _nonzeros(kappa)]
        self._rules[(("v", 2), ("v", 1))] = rhs
        # word -> its leftmost one-step reduct, or None if it is normal;
        # filled by normal_form on first sight (the rules are fixed by now)
        self._reducts: Dict[Word, Optional[Dict[Word, Scalar]]] = {}

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

    def normal_form(self, terms: Dict[Word, Scalar]) -> Dict[Word, Scalar]:
        """Exhaustive leftmost rewriting of a term dict, word -> coefficient
        (a single word w is {w: 1}), to the term dict of normal words with
        no zero coefficient, so two elements are equal iff their normal
        forms are equal dicts.  Terms are taken in any order: the result is
        linear in the terms and each word's leftmost reduct is fixed, so
        the order cannot change it.

        That reduct is derived once per word and system, through
        `redex_positions` and `rewrite_at`, and kept for every later
        call, so a word met again costs one dict lookup."""
        p = self.field.p
        work: Dict[Word, Scalar] = {w: c for w, c in terms.items() if c != 0}
        done: Dict[Word, Scalar] = {}
        reducts = self._reducts
        steps = 0
        while work:
            steps += 1
            if steps > MAX_REWRITE_STEPS:
                raise AssertionError("rewrite step budget exceeded; termination broken")
            w, c = work.popitem()
            if w not in reducts:
                pos = self.redex_positions(w)
                reducts[w] = self.rewrite_at(w, pos[0]) if pos else None
            reduct = reducts[w]
            if reduct is None:
                nc = done.get(w, 0) + c
                if p is not None:
                    nc %= p
                if nc == 0:
                    done.pop(w, None)
                else:
                    done[w] = nc
                continue
            for nw, nc in reduct.items():
                acc = work.get(nw, 0) + c * nc
                if p is not None:
                    acc %= p
                if acc == 0:
                    work.pop(nw, None)
                else:
                    work[nw] = acc
        return done


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


def _terms_str(f: Field, terms: Dict[Word, Scalar]) -> str:
    """A term dict as "c*word + ...", words by length and then in alphabet
    order, or "0" when it is empty."""
    if not terms:
        return "0"
    return " + ".join("%s*%s" % (f.to_str(terms[w]), word_str(w))
                      for w in sorted(terms, key=lambda w: (len(w), w)))


def confluence_check(rs: RewriteSystem) -> ConfluenceReport:
    """Reduce both one-step reducts of the overlaps g v2 v1 and g g^j v_k,
    in alphabet order, and demand one common normal form: the two term
    dicts must be equal, and a failure reports both, rendered by
    `_terms_str`.  The module docstring proves that every other overlap
    then resolves.  A candidate is skipped unless `rs.redex_positions`
    flags both of its pairs, so subclasses with fewer rules still work.
    words_checked counts the overlaps reduced: 2N-1 for the builtin
    rules, at a cost of 2N-1 reductions of two reducts each and one redex
    test per distinct word met (see the module docstring)."""
    count = 0
    for w in _reduced_overlaps(rs.N):
        if rs.redex_positions(w) != [0, 1]:
            continue
        left, right = (rs.normal_form(rs.rewrite_at(w, l)) for l in (0, 1))
        count += 1
        if left != right:
            return ConfluenceReport(False, count, word_str(w),
                                    (_terms_str(rs.field, left), _terms_str(rs.field, right)))
    return ConfluenceReport(True, count, None, ())


def hilbert_check(rs: RewriteSystem, d: int, confluence: ConfluenceReport) -> int:
    """Return N * C(d+2, 2), both the number of irreducible words of
    v-degree <= d and length <= d+1 and the graded dimension of
    F[v1,v2] x| G up to degree d, once the irreducible words are proved to
    be exactly the PBW-shaped v1^a v2^b g^c.  Needs a passed confluence check.

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
      alphabet order; for d = 0 only length <= 1 is checked, as full
      enumeration would.  A mismatch raises AssertionError.
    - Count.  Once the 13 class words agree, the Shape argument makes the
      irreducible words exactly the shaped ones: v1^a v2^b (v-degree a + b,
      length a + b) and v1^a v2^b g^c for each of the N-1 letters g^c
      (length a + b + 1).  So the words of v-degree <= d and length
      <= d+1 are N for each pair (a, b) with a + b <= d, and there are
      C(d+2, 2) such pairs.  The same words, read as v1^a v2^b g^c with
      c in Z/N, are a basis of F[v1,v2] x| G up to degree d, so
      N * C(d+2, 2) is both the count and the dimension, and is returned.

    Cost at most 13 `is_normal` calls at any N, where enumerating the
    words of length <= d+1 takes (N+1)^(d+1).  A negative d is refused
    with ValueError: the graded piece of negative degree is zero.
    """
    if d < 0:
        raise ValueError("degree must be at least 0, got %d" % d)
    if not confluence.ok:
        raise PrerequisiteFailed("rewrite system is not confluent: %s" % confluence.witness)
    # the class representatives v1, v2, g; no g class when N = 1
    letters = [("v", 1), ("v", 2), ("g", 1)][:3 if rs.N > 1 else 2]
    words: List[Word] = [()]
    for length in range(min(d + 2, 3)):
        if length:
            words = [w + (l,) for w in words for l in letters]
        for w in words:
            if rs.is_normal(w) != _pbw_shaped(w):
                raise AssertionError("normal form shape mismatch at %s" % word_str(w))
    return rs.N * ((d + 2) * (d + 1) // 2)


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
