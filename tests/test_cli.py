"""End-to-end command-line tests, run in process via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewcoh import (
    CochainTwo,
    Field,
    Matrix,
    Subspace,
    cli,
    coboundary_matrix,
    cochain_dim,
    full_report,
    group_action,
    oracle,
    reduce_to_representative,
    representative_basis,
)
from skewcoh.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from skewcoh.oracle import DimensionMismatchError
from skewcoh.group_action import group_from_generator

from conftest import SUITE, suite_group, transfer_matrix

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
    # primality and the splitting test must not scan F_p
    p = 2 ** 61 - 1
    rot = {"field": {"type": "prime", "p": p}, "generator": [[0, -1], [1, 0]]}
    assert main(["analyze", "--nonmodular-check", "--json", job(rot)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["group"]["order"] == 4
    # p = 3 mod 4, so x^2 + 1 has no root and only the coprime statement applies
    assert doc["nonmodular"]["verdict"] == "pass"
    assert doc["nonmodular"]["cor_applicable"] is False


def test_analyze_nonmodular_check_on_a_12_cycle(job, capsys):
    # char_poly of a 12x12 matrix: cofactor expansion would take 12! steps
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


# -- input validation ------------------------------------------------------------

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


# -- internal invariant failures ---------------------------------------------------

# past the input boundary no exception is the input's fault, whatever its type
@pytest.mark.parametrize("exc", [AssertionError, DimensionMismatchError, ValueError,
                                 ZeroDivisionError, KeyError])
def test_invariant_failure_is_verification_failure(job, capsys, monkeypatch, exc):
    def broken(gr, i, rows=None):
        raise exc("distinguished space has the wrong dimension")
    monkeypatch.setattr(cli, "representative_basis", broken)
    assert main(["reps", job(TRANSV3)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ")
    assert "wrong dimension" in err


def test_transfer_outside_the_invariants_is_verification_failure(job, capsys, monkeypatch):
    # only im T goes wrong: image_basis answers the whole space for the transfer
    # matrix T = 1 + g of diag(1, -1), and V^G is the line of e1
    gr = group_from_generator(Field.prime(5), DIAG_1_M1["generator"])
    t = transfer_matrix(gr)
    assert all(t != Matrix.identity(gr.field, 2) - h for h in gr.powers)
    real = group_action.image_basis
    monkeypatch.setattr(group_action, "image_basis",
                        lambda m: Subspace(m.field, 2, [[1, 0], [0, 1]]) if m == t else real(m))
    assert main(["compare", job(DIAG_1_M1)]) == EXIT_FAIL
    assert "im T not contained in V^G" in capsys.readouterr().err


def _raise(*args):
    raise AssertionError("Field arithmetic or Matrix.inverse called")


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
        for i in range(gr.order):
            basis = representative_basis(gr, i)
            rep = basis[0].flat() if basis else (0,) * cochain_dim(gr.n)
            cob = coboundary_matrix(gr, i).apply(range(1, gr.n + 1))
            gamma = CochainTwo.from_flat(gr.field, gr.n, i, [x + y for x, y in zip(rep, cob)])
            assert reduce_to_representative(gr, gamma)[0].flat() == rep


# -- order bound -----------------------------------------------------------------

def test_max_order_flag(job, capsys):
    path = job(ROT4Q)
    assert main(["analyze", "--max-order", "3", path]) == EXIT_INPUT
    assert "order exceeds" in capsys.readouterr().err.lower()
    assert main(["analyze", "--max-order", "4", path]) == EXIT_PASS
    capsys.readouterr()
    # the identity has order 1, above any cap below 1
    for field in ({"type": "prime", "p": 3}, {"type": "rational"}):
        ident = job({"field": field, "generator": [[1, 0], [0, 1]]}, "ident.json")
        for cap in ("0", "-5"):
            assert main(["analyze", "--max-order", cap, ident]) == EXIT_INPUT
            assert "order exceeds bound %s" % cap in capsys.readouterr().err


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
