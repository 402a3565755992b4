"""Closed-form summand dimensions for the degree -1 part of HH^2 of
S(V) x| G, G cyclic, worked element by element:

    h = 1:            (V^G / im T)*  +  (V tensor wedge^2 V*)^G
    codim V^h = 1:    (F + V/V_h tensor (V^h)*)^{chi_h}
    codim V^h = 2:    (V/V_h)^{chi_h}
    codim V^h > 2:    0

plus the nonmodular cross-checks (coprime order: reflections contribute
nothing; split characteristic polynomial: only det(h) = 1 elements of
codimension at most 2 survive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .group_action import CyclicGroup, chi_invariants, kron
from .linalg import char_poly, poly_splits


class WrongCaseError(ValueError):
    pass


@dataclass(frozen=True)
class SummandReport:
    element_index: int
    case: str                      # identity | codim1 | codim2 | vanishing
    pieces: Tuple[Tuple[str, int], ...]
    total: int

    def to_dict(self) -> dict:
        return {"element_index": self.element_index, "case": self.case,
                "pieces": [[name, dim] for name, dim in self.pieces],
                "total": self.total}


@dataclass(frozen=True)
class CohomologyReport:
    per_element: Tuple[SummandReport, ...]
    total_dim: int

    def to_dict(self) -> dict:
        return {"per_element": [s.to_dict() for s in self.per_element],
                "total_dim": self.total_dim}


def identity_contribution(gr: CyclicGroup) -> SummandReport:
    # CyclicGroup.transfer asserts that im T lies in V^G
    piece1 = gr.invariants().dim - gr.transfer().dim
    piece2 = chi_invariants(gr.induced_action(1 % gr.order), gr.field.one()).dim
    pieces = (("(V^G/im T)*", piece1), ("(V tensor wedge2 V*)^G", piece2))
    return SummandReport(0, "identity", pieces, piece1 + piece2)


def codim1_contribution(gr: CyclicGroup, i: int) -> SummandReport:
    ed = gr.element(i)
    if ed.codim != 1:
        raise WrongCaseError("element %d has codim %d, expected 1" % (i, ed.codim))
    chi = ed.chi_of_generator
    piece_f = 1 if chi == gr.field.one() else 0
    # generator's action on V/V_h tensor (V^h)*
    piece_t = chi_invariants(kron(*gr.subgroup_actions(i)), chi).dim
    pieces = (("F^{chi_h}", piece_f), ("(V/V_h tensor (V^h)*)^{chi_h}", piece_t))
    return SummandReport(i, "codim1", pieces, piece_f + piece_t)


def codim2_contribution(gr: CyclicGroup, i: int) -> SummandReport:
    ed = gr.element(i)
    if ed.codim != 2:
        raise WrongCaseError("element %d has codim %d, expected 2" % (i, ed.codim))
    piece = chi_invariants(gr.subgroup_actions(i)[0], ed.chi_of_generator).dim
    return SummandReport(i, "codim2", (("(V/V_h)^{chi_h}", piece),), piece)


def full_report(gr: CyclicGroup) -> CohomologyReport:
    out: List[SummandReport] = []
    for i in range(gr.order):
        ed = gr.element(i)
        if ed.codim == 0:
            out.append(identity_contribution(gr))
        elif ed.codim == 1:
            out.append(codim1_contribution(gr, i))
        elif ed.codim == 2:
            out.append(codim2_contribution(gr, i))
        else:
            out.append(SummandReport(i, "vanishing", (("codim > 2", 0),), 0))
    return CohomologyReport(tuple(out), sum(s.total for s in out))


@dataclass(frozen=True)
class NonmodularReport:
    prop_applicable: bool          # gcd(|G|, char F) = 1
    cor_applicable: bool           # char poly of g splits over F
    checked: int                   # how many vanishing assertions were evaluated
    violations: Tuple[str, ...]
    verdict: str                   # pass | fail | not_applicable

    def to_dict(self) -> dict:
        return {"prop_applicable": self.prop_applicable,
                "cor_applicable": self.cor_applicable,
                "checked": self.checked,
                "violations": list(self.violations),
                "verdict": self.verdict}


def nonmodular_crosscheck(gr: CyclicGroup, report: CohomologyReport) -> NonmodularReport:
    """Cross-check the formula output `report` (`full_report(gr)`) against
    the nonmodular statements.

    Coprime case: every codimension-1 summand must vanish.  Split case
    (coprime + split characteristic polynomial): every codimension-1 or -2
    summand at an element with det(h) != 1 must vanish.  In the modular
    case neither statement applies and the verdict is not_applicable; a
    coprime group with nothing to check passes vacuously.
    """
    p = gr.field.char
    prop_ok = p == 0 or math.gcd(gr.order, p) == 1
    cor_ok = prop_ok and poly_splits(gr.field, char_poly(gr.generator))
    checked = 0
    violations: List[str] = []
    for s in report.per_element:
        if prop_ok and s.case == "codim1":
            checked += 1
            if s.total != 0:
                violations.append("codim-1 element %d contributes %d in the coprime case"
                                  % (s.element_index, s.total))
        if cor_ok and s.case in ("codim1", "codim2") and gr.det(s.element_index) != gr.field.one():
            checked += 1
            if s.total != 0:
                violations.append("element %d has det != 1 but contributes %d in the split case"
                                  % (s.element_index, s.total))
    if not prop_ok:
        verdict = "not_applicable"
    else:
        verdict = "pass" if not violations else "fail"
    return NonmodularReport(prop_ok, cor_ok, checked, tuple(violations), verdict)
