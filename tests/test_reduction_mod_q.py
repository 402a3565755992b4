"""Reduction mod q: a check independent of both routes.

Take an integer generator g of finite order N whose inverse g^{N-1} is
integral too, and a prime q with q not dividing N and q > cochain_dim(n).
Then every per-element hh_dim over F_q equals the one over Q.  The argument:

* g mod q has order N as well: the kernel of GL_n(Z) -> GL_n(F_q) holds no
  element of finite order > 1 for q >= 3 (Minkowski), so the element
  indices match.
* Where |G| is invertible, each piece of the per-element formula is the
  dimension of a fixed or chi-isotypic part of a module M built from the
  lattice Z^n by duals, tensors, wedges, sub- and quotient modules by
  V^h.  That dimension is the rank of the averaging idempotent
  e = (1/N) sum_k chi(g^k)^{-1} rho_M(g^k), whose entries lie in Z[1/N], so
  e reduces mod q to the averaging idempotent of the reduced module.
* An idempotent's rank is its trace, read in the prime field.  So the rank
  over F_q is congruent mod q to the rank over Q, and both lie in
  [0, dim M] with dim M <= cochain_dim(n) < q: they are equal.  The same
  holds for codim(h) = n - dim V^h (the idempotent averaging over <h>).
* The pieces also branch on whether chi_h(g) = 1.  Over Q, chi_h(g) is a
  rational root of unity, so +-1, and -1 stays distinct from 1 mod an odd q.

So the formula's per-element numbers agree over Q and over F_q, and the
paper's theorem makes the oracle's agree with them on each field.  The test
reads the oracle over two fields and compares them with each other, not
with the formula: a fault in the elimination over one field shows here even
where formula and oracle are never compared.  The formula's reports are
compared across the fields as well.

The data is not monomial: a signed permutation keeps every matrix monomial
and so nearly every elimination trivial.  Each generator is a direct sum of
companion matrices of the cyclotomic polynomials Phi_3, Phi_4, Phi_6 and
+-1 blocks, n <= 4, conjugated by a unimodular integer U whose steps and
inverse steps are the same elementary operations (conftest's
`elementary_conjugate`), so no matrix is inverted.
"""

import itertools
import random

import pytest

from skewcoh import Field, cochain_dim, full_report, group_from_generator, oracle_report

from conftest import elementary_conjugate, trial_division_is_prime

COMPANION = {"Phi3": [[0, -1], [1, -1]], "Phi4": [[0, -1], [1, 0]], "Phi6": [[0, -1], [1, 1]]}
SCALAR = {"-1": [[-1]], "+1": [[1]]}

# one companion block with up to two scalar blocks, or two companion blocks
BLOCKS = ([(c,) + s for c in COMPANION for m in range(3)
           for s in itertools.combinations_with_replacement(SCALAR, m)]
          + list(itertools.combinations_with_replacement(COMPANION, 2)))

# hh_dim over Q with a nonzero entry at some h != 1, so the check is not vacuous
PINNED = {("Phi3", "-1", "+1"): [4, 0, 1, 0, 1, 0], ("Phi4", "+1"): [3, 1, 1, 1],
          ("Phi6", "+1", "+1"): [8, 2, 2, 2, 2, 2]}


def direct_sum(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    k = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[k + i][k:k + len(row)] = row
        k += len(b)
    return out


def good_primes(n, order, count=2):
    """The `count` smallest primes q > cochain_dim(n) with q not dividing order."""
    return list(itertools.islice((q for q in itertools.count(cochain_dim(n) + 1)
                                  if trial_division_is_prime(q) and order % q), count))


def conjugated_generator(names, seed):
    """The direct sum of the named blocks, conjugated by a unimodular U of
    2n elementary steps with coefficients +-1, +-2."""
    g = direct_sum([COMPANION.get(b) or SCALAR[b] for b in names])
    n = len(g)
    rng = random.Random(seed)
    steps = [(*rng.sample(range(n), 2), rng.choice([-2, -1, 1, 2])) for _ in range(2 * n)]
    g = elementary_conjugate(g, steps)
    assert all(x.denominator == 1 for row in g for x in row)
    return [[int(x) for x in row] for row in g]


def per_element(report):
    return [s.total for s in report.per_element]


@pytest.mark.parametrize("names", BLOCKS, ids=lambda b: "+".join(b))
def test_hh_dims_survive_reduction_mod_q(names):
    gen = conjugated_generator(names, BLOCKS.index(names))
    # not monomial, so the eliminations do real work
    assert any(sum(x != 0 for x in row) > 1 for row in gen)
    n = len(gen)
    over_q = group_from_generator(Field.rational(), gen)
    hh = [d.hh_dim for d in oracle_report(over_q)]
    formula = per_element(full_report(over_q))
    if names in PINNED:
        assert hh == PINNED[names]
    primes = good_primes(n, over_q.order)
    assert len(primes) == 2 and all(q > cochain_dim(n) for q in primes)
    for q in primes:
        over_fq = group_from_generator(Field.prime(q), gen)
        assert over_fq.order == over_q.order
        assert [d.hh_dim for d in oracle_report(over_fq)] == hh, q
        assert per_element(full_report(over_fq)) == formula, q


def test_the_pinned_cases_are_drawn():
    assert set(PINNED) <= set(BLOCKS)
