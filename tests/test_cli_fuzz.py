"""Fuzz the command line with malformed and hostile job files.

Whatever the job file holds, `main` must return 0 (pass), 1 (verification
failure) or 2 (input error, with an "error:" message), and no exception
may escape it.  Jobs mix valid documents with non-objects, bad field specs,
non-square and ragged generators, and entries that are floats, booleans,
nulls, lists, non-numeric strings, "1/p", "inf", "1/0", rationals with
hundreds of digits, and exponent strings such as "1e100000000", which
`Fraction` would expand to a hundred million digits and which must be
refused at once; a file that is not a JSON job at all must be an input
error.  `--max-order` is small, so no job can run long, `deform` included;
the primes are small as well.  Each listed
hostile entry is also run once on its own, so coverage of the list does
not depend on what the fuzzer draws.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skewcoh.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200,
                suppress_health_check=[HealthCheck.too_slow])

BAD_STRINGS = ["1/p", "inf", "-inf", "nan", "1/0", "abc", "", " ", "1e400", "0x10", "1/2/3",
               "--1", "1.5", "-7/3", str(10 ** 300), "1/%d" % 10 ** 300, "%d/7" % 10 ** 200,
               "1e100000000", "1e-100000000"]

hostile_entries = st.one_of(
    st.builds(lambda s, k: s * 10 ** k, st.sampled_from([1, -1]), st.integers(20, 400)),
    st.sampled_from(BAD_STRINGS),
    # a zero denominator, or one the prime of the field divides
    st.builds(lambda a, b: "%d/%d" % (a, b), st.integers(-9, 9), st.sampled_from([0, 3, 5, 7])),
    st.builds(lambda a, b: "%d/%d" % (a, b), st.integers(-9, 9), st.integers(-9, 9)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 3), max_size=2),
    st.text(max_size=4),
)
entries = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-1", "2/1"]), hostile_entries)


@st.composite
def square_generators(draw):
    """A signed permutation matrix (of finite order, so often a valid job)
    or a small-integer matrix, with one hostile entry in half the draws."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        rows = [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    else:
        rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(hostile_entries)
    return rows


malformed_generators = st.one_of(
    st.lists(st.lists(entries, max_size=4), max_size=4),            # ragged, empty
    st.one_of(st.none(), st.integers(), st.text(max_size=5),
              st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)),
)

valid_fields = st.one_of(
    st.builds(lambda p: {"type": "prime", "p": p}, st.sampled_from([3, 5, 7])),
    st.just({"type": "rational"}),
)
bad_fields = st.one_of(
    st.builds(lambda p: {"type": "prime", "p": p},
              st.sampled_from([2, 4, 9, 1, 0, -3, 10 ** 30, 3.0, "7", True, None, [3]])),
    st.sampled_from([{"type": "complex"}, {"p": 3}, {}, "Q", None, 3, [{"type": "rational"}],
                     {"type": "rational", "p": 3}, {"type": "prime", "p": 3, "q": 5}]),
)


@st.composite
def documents(draw):
    """Seven in ten: a valid field and a square generator (one hostile entry
    in half of those); the rest have a bad field (stray keys included), a
    malformed generator, no generator or an extra top-level key, or are not
    an object."""
    roll = draw(st.integers(0, 9))
    if roll < 7:
        return {"field": draw(valid_fields), "generator": draw(square_generators())}
    if roll == 7:
        return {"field": draw(bad_fields), "generator": draw(square_generators())}
    if roll == 8:
        return {"field": draw(valid_fields), "generator": draw(malformed_generators)}
    return draw(st.one_of(st.fixed_dictionaries({"field": valid_fields}),
                          st.fixed_dictionaries({"field": valid_fields,
                                                 "generator": square_generators(),
                                                 "max_order": st.integers(-3, 3)}),
                          st.lists(st.integers(), max_size=3), st.text(max_size=5), st.none()))


# files that are not JSON, or not even UTF-8
raw_files = st.one_of(st.sampled_from([b"", b"{", b"[1, 2", b"nul", b'{"field": }', b"\x00",
                                       b"\xff\xfe{}", b"[" * 50]),
                      st.text(max_size=20).map(str.encode), st.binary(max_size=20))

commands = st.sampled_from([["analyze"], ["analyze", "--nonmodular-check"], ["compare"],
                            ["reps"], ["deform"]])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def check(path, command, as_json):
    argv = command + [str(path), "--max-order", "12"] + (["--json"] if as_json else [])
    rc, err = run(argv)
    assert rc in (EXIT_PASS, EXIT_FAIL, EXIT_INPUT), argv
    if rc == EXIT_INPUT:
        assert err.startswith("error:"), err


@FUZZ
@given(documents(), commands, st.booleans())
def test_hostile_job_documents_keep_the_exit_code_contract(tmp_path_factory, doc, command,
                                                           as_json):
    path = tmp_path_factory.mktemp("fuzz") / "job.json"
    path.write_text(json.dumps(doc))
    check(path, command, as_json)


@settings(FUZZ, max_examples=50)
@given(raw_files, commands)
def test_unparsable_job_files_are_input_errors(tmp_path_factory, data, command):
    path = tmp_path_factory.mktemp("fuzz") / "job.json"
    path.write_bytes(data)
    rc, err = run(command + [str(path)])
    assert rc == EXIT_INPUT and err.startswith("error:"), (data, err)


@pytest.mark.parametrize("field", [{"type": "prime", "p": 3}, {"type": "rational"}],
                         ids=["F3", "Q"])
@pytest.mark.parametrize("entry", BAD_STRINGS + ["1/3", 0.5, None, True, [1], {}, 10 ** 400],
                         ids=lambda e: repr(e)[:12])
def test_each_hostile_entry_keeps_the_exit_code_contract(tmp_path, field, entry):
    # every listed entry once, whether or not the fuzzer above draws it
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": field, "generator": [[entry, 0], [0, 1]]}))
    check(path, ["analyze"], False)
