"""Acceptance gate.

One test per advertised guarantee.  Each prints a single visible verdict
line (bypassing capture) so a plain pytest run shows the checklist:

    criterion 1: PASS - ...
    ...
    criterion 8: PASS - ...

All checks are exact; the timed ones also enforce their runtime budget.
"""

import dataclasses
import math
import random
import time

import pytest

from conftest import SUITE, cut_matrix, random_cocycle, suite_group
from skewcoh import (
    Field,
    builtin_transvection_gamma,
    confluence_check,
    full_report,
    hilbert_check,
    nonmodular_crosscheck,
    oracle_report,
    orbifold_algebra,
    square_bracket_transvection,
)
from skewcoh.group_action import group_from_generator
from skewcoh.linalg import Matrix, char_poly, kernel_basis, poly_splits
from skewcoh.oracle import (
    coboundary_matrix,
    cocycle_conditions,
    group_rows,
    per_element_cohomology,
    reduce_to_representative,
)


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
        assert ok, "criterion %d: %s" % (num, detail)
    return _announce


def test_criterion_1_transvection_dimension(announce):
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        gr = group_from_generator(Field.prime(p), [[1, 1], [0, 1]])
        rep = full_report(gr)
        orc = oracle_report(gr)
        ok = ok and rep.total_dim == 2 * p
        ok = ok and sum(o.hh_dim for o in orc) == 2 * p
        for s, o in zip(rep.per_element, orc):
            ok = ok and s.total == 2 and o.hh_dim == 2
            ok = ok and [d for _, d in s.pieces] == [1, 1]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    announce(1, ok, "transvection total = 2p (formula and oracle, "
             "per element 1+1) for p in {3,5,7,11,13}; %.2fs" % elapsed)


def test_criterion_2_formula_oracle_equivalence(announce):
    t0 = time.perf_counter()
    ok = len(SUITE) >= 12
    for name in sorted(SUITE):
        gr = suite_group(name)
        rep = full_report(gr)
        orc = oracle_report(gr)
        for s, o in zip(rep.per_element, orc):
            ok = ok and s.total == o.hh_dim
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    announce(2, ok, "per-element formula = oracle across %d suite groups; %.2fs"
             % (len(SUITE), elapsed))


def test_criterion_3_nondiagonalizable_reflection_transfer(announce):
    ok = True
    groups_with = 0
    for name in sorted(SUITE):
        gr = suite_group(name)
        if any(gr.element(i).transvection for i in range(gr.order)):
            groups_with += 1
            ok = ok and gr.transfer().dim == 0
    ok = ok and groups_with >= 1
    big = suite_group("jordan4_refl_f3")
    ok = ok and big.transfer().dim == 1
    ok = ok and not any(big.element(i).transvection for i in range(big.order))
    announce(3, ok, "im T = 0 for all %d groups with a nondiagonalizable "
             "reflection; the order-6 GL4 group has dim im T = 1" % groups_with)


def test_criterion_4_coprime_split_vanishing(announce):
    ok = True
    checked = 0
    split_groups = 0
    for name in sorted(SUITE):
        gr = suite_group(name)
        p = gr.field.char
        if not (p == 0 or math.gcd(gr.order, p) == 1):
            continue
        if not poly_splits(gr.field, char_poly(gr.generator)):
            continue
        split_groups += 1
        rep = full_report(gr)
        for i, s in enumerate(rep.per_element):
            ed = gr.element(i)
            if ed.codim == 1:
                ok = ok and s.total == 0
                checked += 1
            if ed.codim in (1, 2) and gr.det(i) != gr.field.one():
                ok = ok and s.total == 0
                checked += 1
        ok = ok and nonmodular_crosscheck(gr, rep).verdict == "pass"
    ok = ok and checked >= 1
    announce(4, ok, "coprime split groups (%d in suite) have zero codim-1 "
             "and zero det != 1 codim-1/2 contributions (%d assertions)"
             % (split_groups, checked))


def test_criterion_5_representative_uniqueness(announce):
    ok = True
    reductions = 0
    for name in sorted(SUITE):
        gr = suite_group(name)
        record = group_rows(gr)
        for i in range(gr.order):
            pc = per_element_cohomology(gr, i, record)
            dist = cut_matrix(gr, i)
            cut = Matrix(gr.field, cocycle_conditions(gr, i).rows + dist.rows,
                         ncols=dist.ncols)
            ok = ok and kernel_basis(cut).dim == pc.hh_dim
        rng = random.Random(hash(name) & 0xFFFF)
        for k in range(100):
            gamma = random_cocycle(gr, k % gr.order, rng)
            rep1, _ = reduce_to_representative(gr, gamma)
            rep2, _ = reduce_to_representative(gr, rep1)
            ok = ok and rep2 == rep1
            reductions += 1
    announce(5, ok, "dim(distinguished cut of Z) = cohomology dim for every "
             "element of every suite group; reduction idempotent on %d random "
             "cocycles" % reductions)


def test_criterion_6_coboundaries_are_cocycles(announce):
    ok = True
    columns = 0
    for name in sorted(SUITE):
        gr = suite_group(name)
        for i in range(gr.order):
            prod = cocycle_conditions(gr, i) @ coboundary_matrix(gr, i)
            ok = ok and prod.is_zero()
            columns += prod.ncols
    announce(6, ok, "every coboundary column satisfies the cocycle "
             "conditions (%d columns over the suite)" % columns)


def test_criterion_7_deformation_lift(announce):
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        params = builtin_transvection_gamma(p)
        bracket = square_bracket_transvection(params)
        ok = ok and all(all(x == 0 for x in v) for v in bracket)
        rs = orbifold_algebra(params)
        conf = confluence_check(rs)
        ok = ok and conf.ok
        ok = ok and hilbert_check(rs, 4, confluence=conf) == 15 * p
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    announce(7, ok, "builtin deformation for p in {3,5,7}: bracket zero, "
             "confluent, degree-4 count = 15p; %.2fs" % elapsed)


def test_criterion_8_negative_control(announce):
    params = builtin_transvection_gamma(3)
    f = params.group.field
    table = dict(params.lambda_table)
    table[(1, 1)] = (f.one(), f.zero(), f.zero())
    bad = dataclasses.replace(params, lambda_table=table)
    conf = confluence_check(orbifold_algebra(bad))
    ok = (not conf.ok and conf.witness == "g*v2*v1"
          and len(conf.witness_forms) == 2
          and conf.witness_forms[0] != conf.witness_forms[1])
    announce(8, ok, "perturbed parameter table fails confluence with witness "
             "word %r" % (conf.witness,))
