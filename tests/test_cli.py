"""End-to-end command-line tests, run in process via main(argv)."""

import json

import pytest

from skewcoh import CohomologyReport, Field, cli, full_report
from skewcoh.cli import EXIT_FAIL, EXIT_INPUT, EXIT_PASS, main
from skewcoh.oracle import DimensionMismatchError
from skewcoh.group_action import group_from_generator

TRANSV3 = {"field": {"type": "prime", "p": 3}, "generator": [[1, 1], [0, 1]]}
DIAG23 = {"field": {"type": "prime", "p": 5}, "generator": [[2, 0], [0, 3]]}
DIAG_1_M1 = {"field": {"type": "prime", "p": 5}, "generator": [[1, 0], [0, -1]]}
ROT4Q = {"field": {"type": "rational"}, "generator": [[0, -1], [1, 0]]}
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
    assert CohomologyReport.from_dict(doc["formula"]) == full_report(gr)


def test_analyze_nonmodular_flag(job, capsys):
    assert main(["analyze", "--nonmodular-check", job(DIAG23)]) == EXIT_PASS
    assert "nonmodular cross-check: pass (0 assertions)" in capsys.readouterr().out
    assert main(["analyze", "--nonmodular-check", job(TRANSV3)]) == EXIT_PASS
    assert "not_applicable" in capsys.readouterr().out


def test_analyze_nonmodular_json(job, capsys):
    assert main(["analyze", "--nonmodular-check", "--json", job(DIAG_1_M1)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["nonmodular"]["verdict"] == "pass"
    assert doc["nonmodular"]["checked"] == 2


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


def test_deform_char_two_rejected(capsys):
    assert main(["deform", "--deform-prime", "2"]) == EXIT_INPUT


# -- input validation ------------------------------------------------------------

def test_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == EXIT_INPUT


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

@pytest.mark.parametrize("exc", [AssertionError, DimensionMismatchError])
def test_invariant_failure_is_verification_failure(job, capsys, monkeypatch, exc):
    def broken(gr, i):
        raise exc("distinguished space has the wrong dimension")
    monkeypatch.setattr(cli, "representative_basis", broken)
    assert main(["reps", job(TRANSV3)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ")
    assert "wrong dimension" in err


# -- order bound -----------------------------------------------------------------

def test_max_order_flag(job, capsys):
    path = job(ROT4Q)
    assert main(["analyze", "--max-order", "3", path]) == EXIT_INPUT
    assert "order exceeds" in capsys.readouterr().err.lower()
    assert main(["analyze", "--max-order", "4", path]) == EXIT_PASS


def test_max_order_env(job, capsys, monkeypatch):
    path = job(ROT4Q)
    monkeypatch.setenv("SKEWCOH_MAX_ORDER", "3")
    assert main(["analyze", path]) == EXIT_INPUT
    # an explicit flag wins over the environment
    assert main(["analyze", "--max-order", "4", path]) == EXIT_PASS
