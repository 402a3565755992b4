"""The records the analyze, compare and reps commands pass around are
immutable NamedTuples: each refuses attribute assignment, names its fields
in its repr, and compares and hashes by value, so two records built from
equal values are interchangeable (and equal to the plain tuple of those
values).  `GroupRows` holds row lists, so it compares by value but has no
hash."""

import pytest

from skewcoh import (
    CochainOne,
    CochainTwo,
    CohomologyReport,
    ComplexDims,
    ElementData,
    Field,
    GroupRows,
    NonmodularReport,
    SummandReport,
    full_report,
    group_from_generator,
    group_rows,
    nonmodular_crosscheck,
    oracle_report,
    reduce_to_representative,
    representative_basis,
)


def transvection():
    """A new group each call, so its records share no object with another's."""
    return group_from_generator(Field.prime(3), [[1, 1], [0, 1]])


def cochain(gr):
    return representative_basis(gr, 1, group_rows(gr))[0]


RECORDS = [
    (ElementData, ["fixed_space", "moved_space", "codim", "chi_of_generator", "transvection"],
     lambda gr: gr.element(1)),
    (SummandReport, ["element_index", "case", "pieces", "total"],
     lambda gr: full_report(gr).per_element[1]),
    (CohomologyReport, ["per_element", "total_dim"], full_report),
    (NonmodularReport, ["prop_applicable", "cor_applicable", "checked", "violations", "verdict"],
     lambda gr: nonmodular_crosscheck(gr, full_report(gr))),
    (CochainTwo, ["field", "n", "element_index", "lam", "alpha"], cochain),
    (CochainOne, ["f"], lambda gr: reduce_to_representative(gr, cochain(gr))[1]),
    (ComplexDims, ["z_dim", "b_dim", "hh_dim"], lambda gr: oracle_report(gr)[1]),
    (GroupRows, ["transfer", "twist", "one_minus_g", "scale"], group_rows),
]


@pytest.mark.parametrize("cls, fields, build", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, build):
    a, b = build(transvection()), build(transvection())
    assert type(a) is cls and a is not b
    assert list(a._fields) == fields
    for name in fields:
        assert "%s=" % name in repr(a)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(b, fields[0]))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and a == tuple(b)
    if cls is GroupRows:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
