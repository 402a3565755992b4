"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from skewcoh import Field, formula, linalg, oracle  # noqa: E402
from skewcoh.group_action import group_from_generator  # noqa: E402
from skewcoh.deformation import ConfluenceReport  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_byte_identical_job_files(name, tmp_path):
    written = []
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        state = workloads.setup(name, 7)
        paths = workloads.write_round(name, state, 7, 0, str(tmp_path / d))
        written.append({f: Path(p).read_bytes() for f, p in paths.items()})
    assert written[0] == written[1] and written[0]
    other = workloads.round_files(name, workloads.setup(name, 8), 8, 0)
    if name != "deform-ladder":      # its job file is the same for every seed
        assert {f: t.encode() for f, t in other.items()} != written[0]


def test_rounds_draw_fresh_conjugates():
    state = workloads.setup("modular-sweep", 1)
    r0 = workloads.round_files("modular-sweep", state, 1, 0)
    r1 = workloads.round_files("modular-sweep", state, 1, 1)
    assert sorted(r0.values()) != sorted(r1.values())


def test_conjugates_keep_the_group():
    b = workloads.block(2, [-1, 1])
    rng = random.Random(3)
    m = workloads.conjugate_mod(b, 5, rng)
    assert workloads.formula_totals({"type": "prime", "p": 5}, m) == \
        workloads.formula_totals({"type": "prime", "p": 5}, b)
    q = workloads.conjugate_small(workloads.CYCLE4, rng, 2)
    assert linalg.Matrix(Field.rational(), q).det() == -1


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "j"],
        ["oracle.per_element_cohomology", 1.0, 6.0, 0, "j"],
        ["linalg.rref", 2.0, 3.0, 1, "j"],
        ["linalg.rref", 4.0, 5.5, 1, "j"],
        ["linalg.kernel_basis", 7.0, 9.0, 0, "j"],
        ["linalg.rref", 7.5, 8.0, 4, "j"],
        ["linalg.rref", 7.6, 7.8, 5, "j"],      # recursion: not counted twice in rref.s
    ]
    s = tracing.span_stats(spans)
    assert s["cli.self_s"] == pytest.approx(3.0)
    assert s["oracle.self_s"] == pytest.approx(2.5)
    assert s["linalg.self_s"] == pytest.approx(4.5)
    assert sum(s[l + ".self_s"] for l in ("cli", "oracle", "linalg")) == pytest.approx(10.0)
    assert s["linalg.rref.s"] == pytest.approx(3.0)
    assert s["linalg.rref.calls"] == 4
    assert s["linalg.kernel_basis.with_children"] == 1
    assert tracing.covered((0, 10), [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7.0)


def test_spans_rebind_every_importing_module_and_restore():
    orig = linalg.rank
    assert oracle.rank is orig
    rec = tracing.Recorder()
    m = linalg.Matrix(Field.prime(3), [[1, 2], [2, 1]])
    with rec.patches():
        assert oracle.rank is linalg.rank is not orig
        oracle.rank(m)                       # no job running: not recorded
        rec.job = "j0"
        assert oracle.rank(m) == 1
        rec.job = None
    assert oracle.rank is linalg.rank is orig
    assert [(s[0], s[3], s[4]) for s in rec.spans] == [("linalg.rank", -1, "j0"),
                                                      ("linalg.rref", 0, "j0")]


def test_counting_pass_counts_only_inside_jobs():
    cnt = tracing.Counter()
    f = Field.prime(5)
    with cnt.patches():
        linalg.rank(linalg.Matrix(f, [[1, 2], [3, 4]]))     # no job running: not counted
        cnt.job = "j0"
        f.mul(2, 3)
        linalg.rank(linalg.Matrix(f, [[1, 0], [0, 0]]))
        t = dict(cnt.totals())
        assert t["linalg.rref_calls"] == 1 and t["linalg.rref_cells"] == 4
        assert t["linalg.rref_nonzero"] == 1
        for job in ("j1", "j2"):         # two jobs, each with 2 classes in 3 summands
            cnt.job = job
            formula.full_report(group_from_generator(Field.prime(3), [[1, 1], [0, 1]]))
        cnt.job = None
    t = cnt.totals()
    assert t["formula.summand_calls"] == 6 and t["formula.classes"] == 4
    assert t["linalg.rref_calls"] > 1 and t["linalg.rref_cells"] > 4
    assert t["linalg.matrix_new_calls"] >= 1 and t["fields.arith_calls"] >= 1
    assert Field.add.__name__ == "add" and not hasattr(Field.add, "__wrapped__")


def _transvection_compare(tmp_path):
    job = tmp_path / "t.json"
    job.write_text(json.dumps({"field": {"type": "prime", "p": 3},
                               "generator": [[1, 1], [0, 1]]}))
    return workloads.cli_job("compare", ["compare", str(job), "--json"], None).run()


def test_corrupted_compare_output_is_a_failure(tmp_path):
    o = _transvection_compare(tmp_path)
    assert workloads.check_compare(o, [2, 2, 2]) is None
    assert workloads.check_compare(o, [2, 2, 1]) is not None
    doc = json.loads(o.stdout)
    doc["formula"]["total_dim"] = 7                       # flipped total
    bad = workloads.Outcome(rc=0, stdout=json.dumps(doc))
    assert "total_dim" in workloads.check_compare(bad, [2, 2, 2])
    doc = json.loads(o.stdout)
    doc["oracle"][1]["oracle"] = 1                        # one element disagrees
    bad = workloads.Outcome(rc=0, stdout=json.dumps(doc))
    assert workloads.check_compare(bad, [2, 2, 2]) is not None
    assert workloads.check_compare(workloads.Outcome(rc=1, stdout=o.stdout), [2, 2, 2])
    assert workloads.check_compare(workloads.Outcome(rc=0, stdout="{"), [2, 2, 2])


def test_corrupted_reps_and_deform_outputs_are_failures():
    reps = {"elements": [{"index": 0, "hh_dim": 1, "basis": [{}]},
                         {"index": 1, "hh_dim": 1, "basis": []}]}
    o = workloads.Outcome(rc=0, stdout=json.dumps(reps))
    assert workloads.check_reps(o, [1, 1]) is not None        # missing representative
    assert workloads.check_reps(o, [1, 2]) is not None
    deform = {"prime": 3, "verdict": "pass", "bracket": [["0"]], "bracket_zero": True,
              "confluence": {"ok": True, "witness": None},
              "hilbert": {"ok": True, "degree": 4, "count": 45, "expected": 45}}
    o = workloads.Outcome(rc=0, stdout=json.dumps(deform))
    assert workloads.check_deform(o, 3) is None
    deform["hilbert"]["count"] = deform["hilbert"]["expected"] = 44
    o = workloads.Outcome(rc=0, stdout=json.dumps(deform))
    assert workloads.check_deform(o, 3) is not None


def test_negative_controls_that_pass_are_failures():
    ok = ConfluenceReport(False, 3, "g*v2*v1", ("a", "b"))
    assert workloads.check_confluence_control(workloads.Outcome(value=ok)) is None
    for bad in (ConfluenceReport(True, 3, None, ()),                 # control passed
                ConfluenceReport(False, 3, None, ("a", "b")),        # missing witness
                ConfluenceReport(False, 3, "v2*v1", ("a", "b"))):    # wrong witness
        assert workloads.check_confluence_control(workloads.Outcome(value=bad)) is not None
    assert workloads.check_raises(workloads.Outcome(value=1), oracle.NotACocycleError)
    assert workloads.check_raises(workloads.Outcome(error=oracle.NotACocycleError("x")),
                                  oracle.NotACocycleError) is None
    assert workloads.check_input_error(workloads.Outcome(rc=0)) is not None
    assert workloads.check_input_error(workloads.Outcome(rc=2, stderr="error: x")) is None


def test_deform_controls_catch_the_perturbed_table():
    state = workloads.setup("deform-ladder", 2)
    jobs = list(workloads.round_jobs("deform-ladder", state, 2, 0,
                                     {"r0-transvection.json": "unused"}))
    control = jobs[-1]
    assert control.check(control.run()) is None


def test_tail_percentile_keeps_ten_jobs_beyond():
    for n in (20, 41, 68, 100, 164, 2000):
        q = run.tail_percentile(n)
        assert n * (100 - q) >= 1000 and (q == 99 or n * (99 - q) < 1000)
    assert run.tail_percentile(100) == 90 and run.tail_percentile(12) == 50


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    for name in e2e + layer + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert e2e == list(run.END_TO_END)
    assert layer == list(run.layer_metrics({}, {}, [], []))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, (_, unit) in run.layer_metrics({}, {}, [], []).items():
        assert units[name] == unit


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deform-ladder",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
