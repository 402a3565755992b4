"""End-to-end command-line tests, run in process via main(argv)."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcoh import (
    CochainTwo,
    ComplexDims,
    Field,
    Matrix,
    cli,
    coboundary_matrix,
    cochain_dim,
    deformation,
    formula,
    full_report,
    group_action,
    linalg,
    oracle,
    group_rows,
    reduce_to_representative,
    representative_basis,
)
from skewcoh.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from skewcoh.oracle import DimensionMismatchError
from skewcoh.group_action import group_from_generator

from conftest import SUITE, one_minus, span, suite_group, transfer_matrix

TRANSV3 = {"field": {"type": "prime", "p": 3}, "generator": [[1, 1], [0, 1]]}
DIAG23 = {"field": {"type": "prime", "p": 5}, "generator": [[2, 0], [0, 3]]}
DIAG_1_M1 = {"field": {"type": "prime", "p": 5}, "generator": [[1, 0], [0, -1]]}
ROT4Q = {"field": {"type": "rational"}, "generator": [[0, -1], [1, 0]]}
JORDAN3_REFL = {"field": {"type": "prime", "p": 3},
                "generator": [[1, 1, 0], [0, 1, 0], [0, 0, -1]]}
JORDAN4 = {"field": {"type": "prime", "p": 3},
           "generator": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, -1]]}


@pytest.fixture
def job(tmp_path):
    def write(doc, name="job.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


# -- analyze -------------------------------------------------------------------

def test_analyze_transvection(job, capsys):
    assert main(["analyze", job(TRANSV3)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "total dim = 6" in out
    assert "|G| = 3" in out
    assert "nondiagonalizable reflection" in out


def test_analyze_rational_identity(job, capsys):
    assert main(["analyze", job({"field": {"type": "rational"},
                                 "generator": [[1, 0], [0, 1]]})]) == EXIT_PASS
    assert "total dim = 2" in capsys.readouterr().out


def test_analyze_coprime_diagonal(job, capsys):
    assert main(["analyze", job(DIAG23)]) == EXIT_PASS
    assert "total dim = 0" in capsys.readouterr().out


def test_analyze_json_round_trip(job, capsys):
    assert main(["analyze", "--json", job(TRANSV3)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "analyze"
    assert doc["group"]["order"] == 3
    gr = group_from_generator(Field.prime(3), TRANSV3["generator"])
    assert doc["formula"] == full_report(gr).to_dict()


def test_analyze_nonmodular_flag(job, capsys):
    assert main(["analyze", "--nonmodular-check", job(DIAG23)]) == EXIT_PASS
    assert "nonmodular cross-check: pass (0 assertions)" in capsys.readouterr().out
    assert main(["analyze", "--nonmodular-check", job(TRANSV3)]) == EXIT_PASS
    assert "not_applicable" in capsys.readouterr().out


def test_analyze_nonmodular_check_at_a_61_bit_prime(job, capsys):
    # primality and the split condition must not scan F_p: the group has
    # order 4, and 4 does not divide p - 1 = 2^61 - 2
    p = 2 ** 61 - 1
    rot = {"field": {"type": "prime", "p": p}, "generator": [[0, -1], [1, 0]]}
    assert main(["analyze", "--nonmodular-check", "--json", job(rot)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"]["order"] == 4
    # p = 3 mod 4, so x^2 + 1 has no root and only the coprime statement applies
    assert doc["nonmodular"]["verdict"] == "pass"
    assert doc["nonmodular"]["cor_applicable"] is False


def test_analyze_nonmodular_check_on_a_12_cycle(job, capsys):
    # the split condition on a 12x12 generator is one divisibility: 12 does
    # not divide p - 1 = 4
    n = 12
    cycle = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
    doc = {"field": {"type": "prime", "p": 5}, "generator": cycle}
    assert main(["analyze", "--nonmodular-check", "--json", job(doc)]) == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["group"]["order"] == 12
    # F_5 has no primitive 12th root of unity, so x^12 - 1 does not split
    assert out["nonmodular"]["verdict"] == "pass"
    assert out["nonmodular"]["cor_applicable"] is False


def test_analyze_nonmodular_json(job, capsys):
    assert main(["analyze", "--nonmodular-check", "--json", job(DIAG_1_M1)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["nonmodular"]["verdict"] == "pass"
    assert doc["nonmodular"]["checked"] == 2


def test_consecutive_calls_share_no_flags(job, capsys):
    # main reuses one parser; nothing one call sets may reach the next
    path = job(DIAG23)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--max-order", "x", path])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main(["analyze", "--nonmodular-check", "--json", "--max-order", "4", path]) \
        == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["nonmodular"]["verdict"] == "pass"
    assert main(["analyze", path]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "total dim = 0" in out and "nonmodular" not in out
    assert main(["analyze", "--max-order", "3", path]) == EXIT_INPUT
    assert main(["analyze", path]) == EXIT_PASS
    assert cli.build_parser() is cli.build_parser()


# -- compare -------------------------------------------------------------------

def test_compare_transvection(job, capsys):
    assert main(["compare", job(TRANSV3)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "total dim = 6; verdict: pass" in out
    assert "MISMATCH" not in out


def test_compare_diagonal_reflection(job, capsys):
    assert main(["compare", job(DIAG_1_M1)]) == EXIT_PASS
    assert "total dim = 1; verdict: pass" in capsys.readouterr().out


def test_compare_json(job, capsys):
    assert main(["compare", "--json", job(JORDAN4)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"]["transfer_image_dim"] == 1
    assert doc["verdict"] == "pass"
    assert all(row["agree"] for row in doc["oracle"])
    assert sum(row["formula"] for row in doc["oracle"]) == 6


# -- reps ----------------------------------------------------------------------

def test_reps_transvection_json(job, capsys):
    assert main(["reps", "--json", job(TRANSV3)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert [e["hh_dim"] for e in doc["elements"]] == [2, 2, 2]
    for e in doc["elements"]:
        assert len(e["basis"]) == e["hh_dim"]
        for rep in e["basis"]:
            assert rep["alpha_tag"] == e["h"]
            assert rep["lambda_tag"] == e["hg"]
            assert set(rep["alpha"]) == {"e1^e2"}
    assert doc["elements"][2]["hg"] == "g^0"


def test_reps_trivial_group(job, capsys):
    assert main(["reps", job({"field": {"type": "prime", "p": 3},
                              "generator": [[1, 0], [0, 1]]})]) == EXIT_PASS
    assert "2 representative(s)" in capsys.readouterr().out


def test_reps_empty(job, capsys):
    assert main(["reps", job(DIAG23)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("0 representative(s)") == 4
    assert "rep 1:" not in out


def test_reps_builds_the_group_record_once(job, capsys, monkeypatch):
    # the element-independent rows (one wedge^2 g among them) are built once
    # per reps call, not once per element
    calls = []
    real = oracle.wedge2_matrix

    def counted(m):
        calls.append(m)
        return real(m)
    monkeypatch.setattr(oracle, "wedge2_matrix", counted)
    assert main(["reps", "--json", job(JORDAN3_REFL)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert [e["hh_dim"] for e in doc["elements"]] == [3, 0, 3, 0, 3, 0]
    assert len(calls) == 1


def test_reps_prints_alpha_in_wedge_pair_order(job, capsys):
    # from n = 10 string order would put e1^e10 before e1^e2; the text
    # lists alpha in the order of --json and the flat coordinates
    n = 10
    gen = [[-1 if a == b == 0 else int(a == b) for b in range(n)] for a in range(n)]
    assert main(["reps", job({"field": {"type": "prime", "p": 3}, "generator": gen})]) == EXIT_PASS
    out = capsys.readouterr().out
    want = ["e%d^e%d" % (a + 1, b + 1) for a, b in group_action.wedge_pairs(n)]
    blocks = out.split("  rep ")[1:]
    assert blocks
    for block in blocks:
        keys = [line.split(": ", 1)[1].split(" -> ")[0]
                for line in block.splitlines() if line.startswith("    alpha")]
        assert keys == want


# -- deform --------------------------------------------------------------------

def test_deform_builtin_prime(capsys):
    assert main(["deform", "--deform-prime", "3"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "square bracket values: all zero" in out
    assert "verdict: pass" in out


def test_deform_from_job(job, capsys):
    assert main(["deform", job(TRANSV3)]) == EXIT_PASS
    assert "verdict: pass" in capsys.readouterr().out


def test_deform_json(capsys):
    assert main(["deform", "--json", "--deform-prime", "3"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["prime"] == 3
    assert doc["bracket_zero"] is True
    assert doc["bracket"] == [["0", "0", "0"]] * 3
    assert doc["confluence"]["ok"] is True
    assert doc["confluence"]["witness"] is None
    assert doc["hilbert"] == {"ok": True, "degree": 4, "count": 45, "expected": 45}
    assert doc["verdict"] == "pass"


def test_deform_rejects_other_generators(job, capsys):
    assert main(["deform", job(DIAG23)]) == EXIT_INPUT
    assert "worked example" in capsys.readouterr().err


@pytest.mark.parametrize("max_order", [None, "3"], ids=["default", "p_above_max_order"])
def test_deform_refuses_another_generator_before_building_tables(job, capsys, monkeypatch,
                                                                  max_order):
    # the generator is checked first, so the Theta(p^2) tables are never
    # built for a job they cannot serve, even one whose p is above --max-order
    def refuse(*args):
        raise AssertionError("tables built for a refused job")
    monkeypatch.setattr(deformation, "builtin_transvection_gamma", refuse)
    argv = ["deform", job(DIAG23)] + (["--max-order", max_order] if max_order else [])
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "worked example generator [[1,1],[0,1]] over F_p" in err


@pytest.mark.parametrize("from_job", [False, True], ids=["prime", "job"])
def test_deform_builds_the_group_once(job, capsys, monkeypatch, from_job):
    built = []
    real = deformation.group_from_generator

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(deformation, "group_from_generator", counted)
    source = ([job({"field": {"type": "prime", "p": 5}, "generator": [[1, 1], [0, 1]]})]
              if from_job else ["--deform-prime", "5"])
    assert main(["deform"] + source) == EXIT_PASS
    assert "verdict: pass" in capsys.readouterr().out
    assert len(built) == 1


def test_deform_needs_job_or_prime(capsys):
    assert main(["deform"]) == EXIT_INPUT
    assert "job file or --deform-prime" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["valid", "missing", "unparsable"])
def test_deform_rejects_job_file_with_prime(job, tmp_path, capsys, kind):
    # neither argument is dropped in silence, whatever the job file holds
    if kind == "valid":
        path = job(TRANSV3)
    elif kind == "missing":
        path = str(tmp_path / "nope.json")
    else:
        path = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text("{not json")
    assert main(["deform", path, "--deform-prime", "3"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "job file" in err and "--deform-prime" in err and "not both" in err


def test_deform_char_two_rejected(capsys):
    assert main(["deform", "--deform-prime", "2"]) == EXIT_INPUT


def test_deform_frees_the_system_and_the_tables_before_writing(monkeypatch, capsys):
    # the output needs neither the rewrite system, with its cached reducts,
    # nor the dense parameter tables, so both are gone when it is written
    made = []

    def recorded(construct):
        def wrapped(*args):
            out = construct(*args)
            made.append(weakref.ref(out))
            return out
        return wrapped

    def print_json(doc):
        assert len(made) == 2 and all(ref() is None for ref in made)
        real(doc)

    real = cli._print_json
    # cmd_deform imports both from the rewriting layer when it runs
    monkeypatch.setattr(deformation, "builtin_transvection_gamma",
                        recorded(deformation.builtin_transvection_gamma))
    monkeypatch.setattr(deformation, "orbifold_algebra", recorded(deformation.orbifold_algebra))
    monkeypatch.setattr(cli, "_print_json", print_json)
    assert main(["deform", "--deform-prime", "5", "--json"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


# -- input validation ------------------------------------------------------------

@pytest.mark.parametrize("field", [{"type": "prime", "p": 3}, {"type": "rational"}],
                         ids=["F3", "Q"])
def test_a_zero_denominator_names_itself(job, capsys, field):
    # Fraction("1/0") alone says only "Fraction(1, 0)"
    assert main(["analyze", job({"field": field, "generator": [[1, "1/0"], [0, 1]]})]) \
        == EXIT_INPUT
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n"


def test_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_unopenable_path_is_reported_as_unreadable(capsys):
    # open() rejects a NUL byte in the path with ValueError, not OSError
    assert main(["analyze", "a\x00b"]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == EXIT_INPUT


def test_deeply_nested_job_file_is_an_input_error(tmp_path, capsys):
    # too deep for the JSON parser, which gives up with a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert main(["analyze", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: bad JSON")


def test_non_square_generator(job, capsys):
    assert main(["analyze", job({"field": {"type": "prime", "p": 3},
                                 "generator": [[1, 1, 0], [0, 1, 0]]})]) == EXIT_INPUT


def test_singular_generator(job, capsys):
    assert main(["analyze", job({"field": {"type": "prime", "p": 3},
                                 "generator": [[1, 1], [1, 1]]})]) == EXIT_INPUT


def test_char_two_field(job, capsys):
    assert main(["analyze", job({"field": {"type": "prime", "p": 2},
                                 "generator": [[1, 0], [0, 1]]})]) == EXIT_INPUT


@pytest.mark.parametrize("p", [3.7, "7", True, None])
def test_non_integer_prime_rejected(job, capsys, p):
    field = {"type": "prime"} if p is None else {"type": "prime", "p": p}
    assert main(["analyze", job({"field": field, "generator": [[1, 0], [0, 1]]})]) == EXIT_INPUT
    assert 'integer "p"' in capsys.readouterr().err


def test_unknown_field_type(job, capsys):
    assert main(["analyze", job({"field": {"type": "real"},
                                 "generator": [[1]]})]) == EXIT_INPUT


def test_generator_not_a_matrix(job, capsys):
    assert main(["analyze", job({"field": {"type": "prime", "p": 3},
                                 "generator": "nope"})]) == EXIT_INPUT


def test_fraction_entries(job, capsys):
    assert main(["analyze", job({"field": {"type": "rational"},
                                 "generator": [["-1/1", 0], [0, "-1"]]})]) == EXIT_PASS
    assert "|G| = 2" in capsys.readouterr().out


def test_fraction_entry_bad_denominator(job, capsys):
    assert main(["analyze", job({"field": {"type": "prime", "p": 3},
                                 "generator": [["1/3", 0], [0, 1]]})]) == EXIT_INPUT


def test_float_entry_rejected(job, capsys):
    assert main(["analyze", job({"field": {"type": "rational"},
                                 "generator": [[1.5, 0], [0, 1]]})]) == EXIT_INPUT


def test_an_exponent_string_is_refused_at_once(job, capsys):
    # Fraction("1e10000000") alone takes seconds to build its ten-million-digit
    # integer; the entry grammar refuses the string before Fraction reads it
    path = job({"field": {"type": "prime", "p": 3}, "generator": [["1e10000000"]]})
    start = time.perf_counter()
    assert main(["analyze", path]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert "not an integer or 'a/b' fraction: '1e10000000'" in capsys.readouterr().err


# -- internal invariant failures ---------------------------------------------------

# past the input boundary no exception is the input's fault, whatever its type
@pytest.mark.parametrize("exc", [AssertionError, DimensionMismatchError, ValueError,
                                 ZeroDivisionError, KeyError])
def test_invariant_failure_is_verification_failure(job, capsys, monkeypatch, exc):
    def broken(gr, i, rows):
        raise exc("distinguished space has the wrong dimension")
    monkeypatch.setattr(cli, "representative_basis", broken)
    assert main(["reps", job(TRANSV3)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ")
    assert "wrong dimension" in err


@pytest.mark.parametrize("command, name", [("analyze", "full_report"),
                                           ("compare", "oracle_report"),
                                           ("reps", "representative_basis")])
def test_out_of_memory_is_an_input_error_not_a_verification_failure(job, capsys, monkeypatch,
                                                                     command, name):
    def exhausted(*args):
        raise MemoryError()
    monkeypatch.setattr(cli, name, exhausted)
    assert main([command, job(TRANSV3)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "verification failed" not in err


def test_transfer_outside_the_invariants_is_verification_failure(job, capsys, monkeypatch):
    # only im T goes wrong: image_basis answers the whole space for the transfer
    # matrix T = 1 + g of diag(1, -1), and V^G is the line of e1
    gr = group_from_generator(Field.prime(5), DIAG_1_M1["generator"])
    t = transfer_matrix(gr)
    assert all(t != one_minus(h) for h in gr.powers)
    real = group_action.image_basis
    monkeypatch.setattr(group_action, "image_basis",
                        lambda m: span(m.field, 2, [[1, 0], [0, 1]]) if m == t else real(m))
    assert main(["compare", job(DIAG_1_M1)]) == EXIT_FAIL
    assert "im T not contained in V^G" in capsys.readouterr().err


def _raise(*args):
    raise AssertionError("a function this test patched out was called")


def test_library_calls_no_field_arithmetic_and_no_matrix_inverse(job, capsys, monkeypatch):
    # scalars are combined inline and inverses are read off the stored powers;
    # Field's arithmetic and Matrix.inverse are kept for the benchmark's tracer
    for name in ("add", "sub", "mul", "neg", "div"):
        monkeypatch.setattr(Field, name, _raise)
    monkeypatch.setattr(Matrix, "inverse", _raise)
    for name, (field, rows, *_) in sorted(SUITE.items()):
        doc = {"field": {"type": "rational"} if field.p is None else
               {"type": "prime", "p": field.p}, "generator": rows}
        path = job(doc, name + ".json")
        for cmd in (["analyze", "--nonmodular-check"], ["compare"], ["reps"]):
            assert main(cmd + ["--json", path]) == EXIT_PASS, (name, cmd)
    assert main(["deform", "--deform-prime", "5", "--json"]) == EXIT_PASS
    assert capsys.readouterr().err == ""
    for name in ("jordan3_refl_f3", "trivial_n3_q", "rot4_q"):
        gr = suite_group(name)
        record = group_rows(gr)
        for i in range(gr.order):
            basis = representative_basis(gr, i, record)
            rep = basis[0].flat() if basis else (0,) * cochain_dim(gr.n)
            cob = coboundary_matrix(gr, i).apply(range(1, gr.n + 1))
            gamma = CochainTwo.from_flat(gr.field, gr.n, i, [x + y for x, y in zip(rep, cob)])
            assert reduce_to_representative(gr, gamma)[0].flat() == rep



def test_formula_reads_no_eigenspace_and_no_kernel_vectors(job, capsys, monkeypatch):
    # every summand reads only the dimension of its chi-invariants, one rank:
    # once the element records (whose fixed spaces are kernels) are built,
    # neither eigenspace nor kernel_basis is called on the formula route
    for name, (field, rows, *_) in sorted(SUITE.items()):
        gr = suite_group(name)
        for i in range(gr.order):
            gr.element(i)
        want = full_report(gr)
        path = job({"field": {"type": "rational"} if field.p is None else
                    {"type": "prime", "p": field.p}, "generator": rows}, name + ".json")
        assert main(["analyze", "--json", "--nonmodular-check", path]) == EXIT_PASS
        want_out = capsys.readouterr().out
        with monkeypatch.context() as mp:
            for mod in (formula, group_action, linalg):
                for fn in ("eigenspace", "kernel_basis"):
                    if hasattr(mod, fn):
                        mp.setattr(mod, fn, _raise)
            assert full_report(gr) == want, name
            mp.setattr(cli, "build_group", lambda args: gr)
            assert main(["analyze", "--json", "--nonmodular-check", path]) == EXIT_PASS
        assert capsys.readouterr().out == want_out, name


# -- the --json writer -------------------------------------------------------------

def _printed(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._print_json(doc)
    return out.getvalue()


# every kind of character json escapes or passes through: quotes, backslashes,
# control characters, DEL, non-ASCII, beyond the BMP, and lone surrogates
json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'),
                              st.characters(exclude_categories=())))
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(json_text, kids)),
    max_leaves=20)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(json_trees)
def test_print_json_writes_the_text_of_json_dumps(doc):
    assert _printed(doc) == json.dumps(doc, indent=2) + "\n"


# a record is a tuple, but an unconverted one must not be written as an array
@pytest.mark.parametrize("doc", [1.0, {"x": [0.5]}, {1: "a"}, {2, 3},
                                 {"oracle": [ComplexDims(2, 0, 2)]}],
                         ids=["float", "nested float", "int key", "set", "record"])
def test_print_json_refuses_what_it_cannot_write_exactly(doc):
    with pytest.raises(TypeError):
        _printed(doc)


# -- stray keys ------------------------------------------------------------------

@pytest.mark.parametrize("doc, key", [
    # a rational field with a "p" used to run over Q and fail as infinite order
    ({"field": {"type": "rational", "p": 3}, "generator": [[1, 1], [0, 1]]}, "p"),
    ({"field": {"type": "prime", "p": 3, "q": 5}, "generator": [[1, 1], [0, 1]]}, "q"),
    # a cap in the job was ignored; only --max-order sets it
    (dict(TRANSV3, max_order=2), "max_order"),
    (dict(ROT4Q, generators=[[[1, 0], [0, 1]]]), "generators"),
], ids=["p in rational", "q in prime", "max_order", "generators"])
@pytest.mark.parametrize("command", ["analyze", "compare", "reps", "deform"])
def test_stray_job_keys_are_input_errors(job, capsys, doc, key, command):
    assert main([command, job(doc)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown key %r" % key), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, key", [
    # json.load keeps a repeated key's last value: this would run over F_5
    ('{"field": {"type": "prime", "p": 3}, "field": {"type": "prime", "p": 5}, '
     '"generator": [[1, 1], [0, 1]]}', "field"),
    # and this over F_7
    ('{"field": {"type": "prime", "p": 3, "p": 7}, "generator": [[1, 1], [0, 1]]}', "p"),
], ids=["field twice", "p twice"])
@pytest.mark.parametrize("command", ["analyze", "compare", "reps", "deform"])
def test_duplicate_job_keys_are_input_errors(tmp_path, capsys, text, key, command):
    path = tmp_path / "job.json"
    path.write_text(text)
    assert main([command, str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == "error: duplicate key %r in the job\n" % key, captured.err
    assert captured.out == ""


# -- order bound -----------------------------------------------------------------

def test_max_order_flag(job, capsys):
    path = job(ROT4Q)
    assert main(["analyze", "--max-order", "3", path]) == EXIT_INPUT
    assert "order exceeds" in capsys.readouterr().err.lower()
    assert main(["analyze", "--max-order", "4", path]) == EXIT_PASS
    capsys.readouterr()
    # a cap below 1 admits no group, not even the identity, and is refused
    # as the flag's own error before the job is read
    for field in ({"type": "prime", "p": 3}, {"type": "rational"}):
        ident = job({"field": field, "generator": [[1, 0], [0, 1]]}, "ident.json")
        for cap in ("0", "-5"):
            assert main(["analyze", "--max-order", cap, ident]) == EXIT_INPUT
            assert "error: --max-order must be at least 1, got %s" % cap \
                in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--nonmodular-check"], ["compare"],
                                  ["reps"], ["deform"], ["deform", "--deform-prime", "3"]],
                         ids=lambda a: " ".join(a))
def test_max_order_below_one_names_the_flag(job, capsys, argv):
    path = [] if "--deform-prime" in argv else [job(TRANSV3)]
    for cap in ("0", "-3"):
        assert main(argv + path + ["--max-order", cap]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "error: --max-order must be at least 1, got %s\n" % cap
        assert captured.out == ""
    assert main(argv + path + ["--max-order", "3"]) == EXIT_PASS


def test_max_order_bounds_deform_prime(capsys):
    assert main(["deform", "--deform-prime", "11", "--max-order", "3"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "order exceeds bound 3" in err
    assert main(["deform", "--deform-prime", "3", "--max-order", "3"]) == EXIT_PASS


def test_max_order_bounds_deform_job(job, capsys):
    path = job({"field": {"type": "prime", "p": 11}, "generator": [[1, 1], [0, 1]]})
    assert main(["deform", "--max-order", "3", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "order exceeds bound 3" in err


SRC = str(Path(__file__).resolve().parent.parent / "src")
BOUNDED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from skewcoh.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("generator", [
    [[10 ** 20, 0], [0, "1/%d" % 10 ** 20]],
    [[10 ** 100, 0], [0, 1]],
], ids=["diag(1e20,1e-20)", "diag(1e100,1)"])
def test_infinite_order_rational_generator_is_rejected_at_once(job, generator):
    # run apart, with 1 GB of address space and 30 s, so that storing the
    # growing powers fails this test instead of exhausting the machine
    path = job({"field": {"type": "rational"}, "generator": generator})
    env = dict(os.environ, PYTHONPATH=SRC)
    r = subprocess.run([sys.executable, "-c", BOUNDED_MAIN, "analyze", path],
                       capture_output=True, text=True, timeout=30, env=env)
    assert r.returncode == EXIT_INPUT, r.stderr
    assert r.stderr.startswith("error:")
    assert "infinite order" in r.stderr


# everything `import skewcoh, skewcoh.cli` loads beyond what a bare
# interpreter had, then the rewriting layer's names, first read through the
# package and the first of them before the layer is loaded
STARTUP = """
import sys
bare = set(sys.modules)
import skewcoh, skewcoh.cli
loaded = sorted(set(sys.modules) - bare)
hilbert = skewcoh.hilbert_check
from skewcoh import DeformationParams, confluence_check
from skewcoh import deformation
same = [hilbert is deformation.hilbert_check, DeformationParams is deformation.DeformationParams,
        confluence_check is deformation.confluence_check]
same += [getattr(skewcoh, name) is getattr(deformation, name) for name in sys.argv[1:]]
try:
    skewcoh.no_such_name
    unknown = None
except AttributeError as e:
    unknown = str(e)
import json
print(json.dumps({"loaded": loaded, "same": same, "unknown": unknown}))
"""
REWRITING_NAMES = ["ConfluenceReport", "DeformationParams", "PrerequisiteFailed", "RewriteSystem",
                   "UnsupportedKappaShape", "builtin_transvection_gamma", "confluence_check",
                   "hilbert_check", "orbifold_algebra", "square_bracket_transvection",
                   "transvection_group"]


def test_import_loads_neither_dataclasses_nor_the_rewriting_layer():
    # a CLI process pays this import before every job; only deform needs the
    # rewriting layer, and no record needs dataclasses.  pyproject.toml
    # declares no dependencies, so no test dependency may load either
    env = dict(os.environ, PYTHONPATH=SRC)
    r = subprocess.run([sys.executable, "-c", STARTUP, *REWRITING_NAMES],
                       capture_output=True, text=True, timeout=60, env=env, check=True)
    d = json.loads(r.stdout)
    assert "skewcoh.cli" in d["loaded"]
    assert not {"dataclasses", "skewcoh.deformation"} & set(d["loaded"]), d["loaded"]
    assert not {"sympy", "hypothesis", "pytest"} & set(d["loaded"]), d["loaded"]
    assert d["same"] == [True] * (3 + len(REWRITING_NAMES))
    assert d["unknown"] == "module 'skewcoh' has no attribute 'no_such_name'"


# -- the end-to-end table ------------------------------------------------------

# Each row runs one command on one job (None: deform's builtin prime) and
# reads its output, parsed when the command has --json and plain text
# otherwise.  The command must exit 0, and READ[name](output) must equal
# each expected value.  Where two commands on one job must agree, both rows
# carry the same literal.
READ = {
    "verdict": lambda d: d["verdict"],
    "hilbert": lambda d: d["hilbert"],
    "hilbert line": lambda text: [ln.strip() for ln in text.splitlines()
                                  if ln.strip().startswith("Hilbert count")],
    "last line": lambda text: text.splitlines()[-1],
    "order": lambda d: d["group"]["order"],
    "codims": lambda d: sorted({e["codim"] for e in d["group"]["elements"]}),
    "total": lambda d: d["formula"]["total_dim"],
    "formula column": lambda d: [e["formula"] for e in d["oracle"]],
    "oracle column": lambda d: [e["oracle"] for e in d["oracle"]],
    "hh_dim": lambda d: [e["hh_dim"] for e in d["elements"]],
    "basis sizes": lambda d: [len(e["basis"]) for e in d["elements"]],
    "per-element totals": lambda d: [s["total"] for s in d["formula"]["per_element"]],
    "nonmodular verdict": lambda d: d["nonmodular"]["verdict"],
}
# readers of the stdout text itself, --json or not
READ_TEXT = {
    "stdout sha256": lambda text: hashlib.sha256(text.encode()).hexdigest(),
}

# diag(3, 3, 2) over F_7: element 3 has codim 2 and hh = 1
DIAG332_F7 = {"field": {"type": "prime", "p": 7}, "generator": [[3, 0, 0], [0, 3, 0], [0, 0, 2]]}
CYCLE4_Q = {"field": {"type": "rational"},
            "generator": [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]}
# J_2(1) + (2) over F_11, conjugated: 11 divides |G| = 110, and the elements
# have codim 0, 1 and 2, so every summand kind occurs
J2_F11 = {"field": {"type": "prime", "p": 11}, "generator": [[7, 6, 5], [5, 7, 6], [0, 1, 1]]}
J2_F11_COLUMN = ([3] + [0] * 9) * 11
# an order-4 generator over Q with denominators 2, 4 and 8 (codims 0, 2, 2,
# 2): its conditions eliminate through pivots other than +-1, and its
# representatives have denominators
DENOM4_Q = {"field": {"type": "rational"},
            "generator": [["-3/4", "3/4", "1/2"], ["-3/2", "1/2", "1"], ["1/8", "-5/8", "5/4"]]}
# an order-6 generator over Q with denominators 2, 3 and 6: its elements
# have codims 0 to 3, g^3 is a reflection, and chi_h(g) = -1 with fractions
# in the quotient action (elements 1, 3 and 5)
REFL6_Q = {"field": {"type": "rational"},
           "generator": [["-5/6", "5/6", "-1/3"], ["1/6", "-1/6", "-1/3"], ["0", "3", "-1"]]}
# (-1) + (order-3 rotation) + (1) over Q, |G| = 6, conjugated by an
# integer matrix of determinant 10, so g has denominators 10: its elements
# have codims 0 to 3, and its representatives have fractions, read off the
# Q `rref` and `kernel_basis` of the group layer and the oracle
ROT3_REFL_Q = {"field": {"type": "rational"},
               "generator": [["-1/10", "-1/10", "-9/10", "3/10"],
                             ["21/10", "-9/10", "-21/10", "7/10"],
                             ["1/10", "1/10", "-11/10", "7/10"],
                             ["3/10", "-7/10", "-3/10", "11/10"]]}

CLI_TABLE = {
    # the deform verdict and its degree-4 Hilbert block, 15p words at p
    "deform-p13-json": (None, ["deform", "--deform-prime", "13", "--json"], {
        "verdict": "pass", "hilbert": {"ok": True, "degree": 4, "count": 195, "expected": 195}}),
    # plain text at p = 1009, where the tables have p^2 entries and the
    # rewriting layer reads only their nonzeros
    "deform-p1009-text": (None, ["deform", "--deform-prime", "1009"], {
        "hilbert line": ["Hilbert count at degree 4: 15135 (expected 15135) pass"],
        "last line": "verdict: pass"}),
    "compare-diag332-f7": (DIAG332_F7, ["compare", "--json"], {
        "verdict": "pass", "oracle column": [1, 0, 0, 1, 0, 0]}),
    "reps-diag332-f7": (DIAG332_F7, ["reps", "--json"], {
        "hh_dim": [1, 0, 0, 1, 0, 0], "basis sizes": [1, 0, 0, 1, 0, 0]}),
    "compare-cycle4-q": (CYCLE4_Q, ["compare", "--json"], {
        "verdict": "pass", "oracle column": [6, 0, 1, 0]}),
    "reps-cycle4-q": (CYCLE4_Q, ["reps", "--json"], {
        "hh_dim": [6, 0, 1, 0], "basis sizes": [6, 0, 1, 0]}),
    "compare-denom4-q": (DENOM4_Q, ["compare", "--json"], {
        "verdict": "pass", "total": 6, "oracle column": [3, 1, 1, 1]}),
    "reps-denom4-q": (DENOM4_Q, ["reps", "--json"], {
        "hh_dim": [3, 1, 1, 1],
        "stdout sha256": "56c47c13e374722f4e7dd739823b5c3c2efd1dc20b701ef15d573217e2d4bfd5"}),
    "compare-j2-f11": (J2_F11, ["compare", "--json"], {
        "verdict": "pass", "total": 33, "order": 110, "codims": [0, 1, 2],
        "formula column": J2_F11_COLUMN}),
    "analyze-j2-f11": (J2_F11, ["analyze", "--json", "--nonmodular-check"], {
        "per-element totals": J2_F11_COLUMN, "nonmodular verdict": "not_applicable"}),
    "analyze-refl6-q": (REFL6_Q, ["analyze", "--json", "--nonmodular-check"], {
        "per-element totals": [0] * 6, "codims": [0, 1, 2, 3], "nonmodular verdict": "pass",
        "stdout sha256": "8c4de6ca9da220fa819c41da3db6cbf545b7149db3e1a0d914200b565779c26d"}),
    "reps-rot3-refl-q": (ROT3_REFL_Q, ["reps", "--json"], {
        "hh_dim": [4, 0, 1, 0, 1, 0], "basis sizes": [4, 0, 1, 0, 1, 0],
        "stdout sha256": "0e638359b419f9bd0fc8615faca23ea3c6093bec40495fc599dd808fff4cad39"}),
}


def _table_argv(row, job):
    doc, argv, _ = CLI_TABLE[row]
    return argv if doc is None else argv + [job(doc)]


@pytest.mark.parametrize("row", CLI_TABLE)
def test_cli_table(row, job, capsys):
    argv = _table_argv(row, job)
    assert main(argv) == EXIT_PASS, argv
    text = capsys.readouterr().out
    out = json.loads(text) if "--json" in argv else text
    for name, want in CLI_TABLE[row][2].items():
        got = READ_TEXT[name](text) if name in READ_TEXT else READ[name](out)
        assert got == want, (row, name)


def test_cli_table_row_across_the_process_boundary(job, capsys):
    # `python -m skewcoh.cli` runs the same main through the __main__ guard:
    # same exit code, same stdout bytes
    argv = _table_argv("compare-j2-f11", job)
    code = main(argv)
    out = capsys.readouterr().out
    r = subprocess.run([sys.executable, "-m", "skewcoh.cli", *argv], capture_output=True,
                       timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert (r.returncode, r.stdout) == (code, out.encode()), r.stderr


def test_a_closed_stdout_pipe_exits_141_quietly(job):
    # `analyze` on the transvection over F_9973 prints about 1.4 MB, more
    # than a pipe holds; the reader takes one line and closes the pipe, so
    # the rest of the output meets a closed pipe: no traceback, no
    # "verification failed", nothing on stderr, and exit 128 + SIGPIPE
    path = job({"field": {"type": "prime", "p": 9973}, "generator": [[1, 1], [0, 1]]})
    r = subprocess.Popen([sys.executable, "-m", "skewcoh.cli", "analyze", path],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=dict(os.environ, PYTHONPATH=SRC))
    try:
        assert r.stdout.readline().startswith(b"group: F_9973, n = 2, |G| = 9973")
        r.stdout.close()
        err = r.stderr.read()
        assert (r.wait(timeout=60), err) == (141, b"")
    finally:
        r.kill()
        r.wait()
        r.stderr.close()
