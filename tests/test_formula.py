"""Closed-form summand dimensions, case dispatch, and the nonmodular
cross-checks."""

import pytest

import json

from skewcoh import (
    CohomologyReport,
    Field,
    NonmodularReport,
    SummandReport,
    WrongCaseError,
    codim1_contribution,
    codim2_contribution,
    full_report,
    group_from_generator,
    identity_contribution,
    nonmodular_crosscheck,
)
from skewcoh import formula, group_action

from conftest import suite_group

F5 = Field.prime(5)


# -- identity summand ---------------------------------------------------------

def test_identity_trivial_group():
    s = identity_contribution(suite_group("trivial_n2_f3"))
    assert s.case == "identity"
    assert s.pieces == (("(V^G/im T)*", 0), ("(V tensor wedge2 V*)^G", 2))
    assert s.total == 2


def test_identity_transvection():
    s = identity_contribution(suite_group("transvection_f3"))
    assert s.pieces == (("(V^G/im T)*", 1), ("(V tensor wedge2 V*)^G", 1))
    assert s.total == 2


def test_identity_diag_2_3():
    s = identity_contribution(suite_group("diag_2_3_f5"))
    assert s.pieces == (("(V^G/im T)*", 0), ("(V tensor wedge2 V*)^G", 0))
    assert s.total == 0


# -- codim 1 -------------------------------------------------------------------

def test_codim1_transvection():
    s = codim1_contribution(suite_group("transvection_f3"), 1)
    assert s.case == "codim1"
    assert s.pieces == (("F^{chi_h}", 1), ("(V/V_h tensor (V^h)*)^{chi_h}", 1))
    assert s.total == 2


def test_codim1_diag_reflection_contributes_nothing():
    s = codim1_contribution(suite_group("diag_1_m1_f5"), 1)
    assert s.pieces == (("F^{chi_h}", 0), ("(V/V_h tensor (V^h)*)^{chi_h}", 0))
    assert s.total == 0


def test_codim1_wrong_case():
    with pytest.raises(WrongCaseError):
        codim1_contribution(suite_group("transvection_f3"), 0)
    with pytest.raises(WrongCaseError):
        codim1_contribution(suite_group("diag_2_3_f5"), 1)


# -- codim 2 --------------------------------------------------------------------

def test_codim2_diag_2_3():
    gr = suite_group("diag_2_3_f5")
    for i in (1, 2, 3):
        s = codim2_contribution(gr, i)
        assert s.case == "codim2"
        assert s.pieces == (("(V/V_h)^{chi_h}", 0),)
        assert s.total == 0


def test_codim2_minus_identity():
    # h = g^2 = -1 for the order-4 rotation: 1 - h = 2 is invertible, V_h = V
    gr = suite_group("rot4_f5")
    s = codim2_contribution(gr, 2)
    assert s.total == 0


def test_codim2_wrong_case():
    with pytest.raises(WrongCaseError):
        codim2_contribution(suite_group("diag_1_m1_f5"), 1)


# -- full report -------------------------------------------------------------------

def test_full_report_matches_suite(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    rep = full_report(gr)
    assert [s.total for s in rep.per_element] == dims
    assert rep.total_dim == sum(dims)
    assert [s.element_index for s in rep.per_element] == list(range(order))
    case_by_codim = {0: "identity", 1: "codim1", 2: "codim2"}
    for s, c in zip(rep.per_element, codims):
        assert s.case == case_by_codim.get(c, "vanishing")
        assert s.total == sum(d for _, d in s.pieces)


def test_transvection_family_is_2p():
    for p in (3, 7):
        gr = suite_group("transvection_f%d" % p)
        assert full_report(gr).total_dim == 2 * p


def test_full_report_takes_chi_invariants_once_per_subgroup(monkeypatch):
    # the F_p transvection has one proper subgroup, of order 1, and one of
    # order p: the identity summand takes one chi-invariant dimension and
    # `summand_dim` one for all p - 1 codim-1 elements, whatever p is
    calls = []
    chi_invariants = group_action.chi_invariants

    def counted(*args):
        calls.append(args)
        return chi_invariants(*args)

    for module in (group_action, formula):
        monkeypatch.setattr(module, "chi_invariants", counted)
    counts = []
    for p in (11, 101):
        calls.clear()
        rep = full_report(group_from_generator(Field.prime(p), [[1, 1], [0, 1]]))
        assert rep.total_dim == 2 * p and len(rep.per_element) == p
        counts.append(len(calls))
    assert counts == [2, 2]


def test_trivial_n3_total():
    assert full_report(suite_group("trivial_n3_q")).total_dim == 9


def test_vanishing_case_is_zero():
    rep = full_report(suite_group("companion8_f3"))
    for s in rep.per_element[1:]:
        assert s.case == "vanishing"
        assert s.total == 0


def test_report_round_trip():
    # to_dict loses nothing: the report can be rebuilt from its JSON
    rep = full_report(suite_group("jordan3_refl_f3"))
    d = json.loads(json.dumps(rep.to_dict()))
    rebuilt = CohomologyReport(
        tuple(SummandReport(s["element_index"], s["case"], tuple(map(tuple, s["pieces"])),
                            s["total"]) for s in d["per_element"]),
        d["total_dim"])
    assert rebuilt == rep


# -- nonmodular cross-check -----------------------------------------------------------

def _crosscheck(name):
    gr = suite_group(name)
    return nonmodular_crosscheck(gr, full_report(gr))


def test_nonmodular_split_diagonal_passes_vacuously():
    r = _crosscheck("diag_2_3_f5")
    assert r.verdict == "pass"
    assert r.prop_applicable and r.cor_applicable
    assert r.checked == 0
    assert r.violations == ()


def test_nonmodular_diag_reflection_passes():
    r = _crosscheck("diag_1_m1_f5")
    assert r.verdict == "pass"
    assert r.checked == 2      # coprime check + split check on the reflection
    assert r.violations == ()


def test_nonmodular_modular_group_not_applicable():
    r = _crosscheck("transvection_f3")
    assert r.verdict == "not_applicable"
    assert not r.prop_applicable
    assert not r.cor_applicable    # split alone does not make the corollary apply
    assert r.checked == 0


def test_nonmodular_rational_rotation():
    # char 0 is always coprime; x^2+1 does not split over Q
    r = _crosscheck("rot4_q")
    assert r.verdict == "pass"
    assert r.prop_applicable and not r.cor_applicable


def test_nonmodular_report_round_trip():
    # to_dict loses nothing: the report can be rebuilt from its JSON
    r = _crosscheck("diag_1_m1_f5")
    d = json.loads(json.dumps(r.to_dict()))
    assert NonmodularReport(d["prop_applicable"], d["cor_applicable"], d["checked"],
                            tuple(d["violations"]), d["verdict"]) == r


def test_nonmodular_violations_name_the_element_and_its_summand():
    # a doctored report: the reflection of diag(1, -1) over F_5 (coprime and
    # split, det -1) said to contribute 3 breaks both statements
    gr = suite_group("diag_1_m1_f5")
    report = full_report(gr)
    doctored = SummandReport(1, "codim1", report.per_element[1].pieces, 3)
    r = nonmodular_crosscheck(gr, CohomologyReport((report.per_element[0], doctored), 3))
    assert r.verdict == "fail"
    assert r.checked == 2
    assert r.violations == (
        "codim-1 element 1 contributes 3 in the coprime case",
        "element 1 has det != 1 but contributes 3 in the split case")


def test_nonmodular_assertions_hold_across_suite(suite_entry):
    name, gr, order, codims, dims, imt = suite_entry
    r = nonmodular_crosscheck(gr, full_report(gr))
    assert r.verdict in ("pass", "not_applicable")
    assert r.violations == ()
