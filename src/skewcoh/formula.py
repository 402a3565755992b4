"""Closed-form summand dimensions for the degree -1 part of HH^2 of
S(V) x| G, G cyclic, worked element by element:

    h = 1:            (V^G / im T)*  +  (V tensor wedge^2 V*)^G
    codim V^h = 1:    (F + V/V_h tensor (V^h)*)^{chi_h}
    codim V^h = 2:    (V/V_h)^{chi_h}
    codim V^h > 2:    0

plus the nonmodular cross-checks (coprime order: reflections contribute
nothing; split characteristic polynomial: only det(h) = 1 elements of
codimension at most 2 survive).

Every summand is a function of the subgroup <h> (the `group_action`
docstring), so the codim-1 and codim-2 summands read their chi_h-invariant
dimension off `CyclicGroup.summand_dim`, derived once per divisor of |G|
from g's action on V/V_h, and at codim 1 on (V^h)*, which are not kept.
The report still has one summand per element; each call reads one int.

In the coprime case, whether the characteristic polynomial of g splits
over F is read off N = |G| and p = char F: it splits iff N divides p - 1
over F_p, and iff N divides 2 over Q.

- N is prime to p, so x^N - 1 is separable and g, a root of it, is
  diagonalizable over the algebraic closure.  Its eigenvalues are N-th
  roots of unity, and the lcm of their orders is N.
- The characteristic polynomial splits over F iff every eigenvalue lies
  in F.
- Over F_p a nonzero lambda lies in F_p iff lambda^(p-1) = 1.  So every
  eigenvalue does iff g^(p-1) = 1 (g is diagonalizable), that is, iff N
  divides p - 1.
- Over Q the only rational roots of unity are +-1.  So every eigenvalue is
  rational iff g^2 = 1, that is, iff N divides 2.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from .group_action import CyclicGroup, chi_invariants


class WrongCaseError(ValueError):
    pass


class SummandReport(NamedTuple):
    element_index: int
    case: str                      # identity | codim1 | codim2 | vanishing
    pieces: Tuple[Tuple[str, int], ...]
    total: int

    def to_dict(self) -> dict:
        return {"element_index": self.element_index, "case": self.case,
                "pieces": [[name, dim] for name, dim in self.pieces],
                "total": self.total}


class CohomologyReport(NamedTuple):
    per_element: Tuple[SummandReport, ...]
    total_dim: int

    def to_dict(self) -> dict:
        return {"per_element": [s.to_dict() for s in self.per_element],
                "total_dim": self.total_dim}


def identity_contribution(gr: CyclicGroup) -> SummandReport:
    # CyclicGroup.transfer asserts that im T lies in V^G
    piece1 = gr.invariants().dim - gr.transfer().dim
    piece2 = chi_invariants(gr.induced_action(1 % gr.order), gr.field.one())
    pieces = (("(V^G/im T)*", piece1), ("(V tensor wedge2 V*)^G", piece2))
    return SummandReport(0, "identity", pieces, piece1 + piece2)


def codim1_contribution(gr: CyclicGroup, i: int) -> SummandReport:
    ed = gr.element(i)
    if ed.codim != 1:
        raise WrongCaseError("element %d has codim %d, expected 1" % (i, ed.codim))
    chi = ed.chi_of_generator
    piece_f = 1 if chi == gr.field.one() else 0
    piece_t = gr.summand_dim(i)
    pieces = (("F^{chi_h}", piece_f), ("(V/V_h tensor (V^h)*)^{chi_h}", piece_t))
    return SummandReport(i, "codim1", pieces, piece_f + piece_t)


def codim2_contribution(gr: CyclicGroup, i: int) -> SummandReport:
    ed = gr.element(i)
    if ed.codim != 2:
        raise WrongCaseError("element %d has codim %d, expected 2" % (i, ed.codim))
    piece = gr.summand_dim(i)
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


class NonmodularReport(NamedTuple):
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
    (coprime + split characteristic polynomial, that is |G| dividing p - 1,
    or 2 over Q; see the module docstring): every codimension-1 or -2
    summand at an element with det(h) != 1 must vanish.  In the modular
    case neither statement applies and the verdict is not_applicable; a
    coprime group with nothing to check passes vacuously.
    """
    p = gr.field.char
    prop_ok = p == 0 or math.gcd(gr.order, p) == 1
    cor_ok = prop_ok and (p - 1 if p else 2) % gr.order == 0
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
