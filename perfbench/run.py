"""Benchmark for skewcoh: one workload per process, driven in-process
through ``skewcoh.cli.main`` and the library's public calls.

    python3 perfbench/run.py --workload modular-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it runs whole rounds of seeded jobs until ``--seconds``
have passed and reports the end-to-end metrics; with ``--trace 1`` it runs
round 0 three times (plain, with spans, with counters) and reports the
per-layer metrics.  Every job's output is checked; the last line of
standard output is one JSON object with the verdict and the metrics.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"      # job files, removed when the run ends
OUT = ROOT / ".bench_out"        # span dumps of traced runs

# end-to-end metrics reported with --trace 0, and their units
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s", "job_s.tail": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 15
IMPORT_PROBE = ("import time; t = time.perf_counter(); import skewcoh, skewcoh.cli; "
                "t = time.perf_counter() - t; import reference; print(t, reference.probe())")


class Result(NamedTuple):
    job: object
    seconds: float          # wall time of job.run()
    scale: float            # reference.NOMINAL_S / probe time around the job
    reason: Optional[str]   # None when the output was verified
    nbytes: int             # length of the CLI's standard output

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def measure_setup():
    """Import time of skewcoh and skewcoh.cli in a fresh interpreter, median
    of SETUP_SAMPLES after one unrecorded import that warms the bytecode
    cache; returns (scaled, raw) seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    raw, scaled = [], []
    for k in range(SETUP_SAMPLES + 1):
        r = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
        t, ref = map(float, r.stdout.split())
        if k:
            raw.append(t)
            scaled.append(t * reference.NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def run_round(workloads, name, state, seed, k, paths, tracer=None) -> List[Result]:
    """Run the jobs of round k, each between two speed probes."""
    results = []
    gen = workloads.round_jobs(name, state, seed, k, paths)
    outcome = None
    before = reference.probe()
    while True:
        try:
            job = gen.send(outcome)
        except StopIteration:
            return results
        if tracer is not None:
            tracer.job = "r%d.j%d" % (k, len(results))
        t0 = time.perf_counter()
        o = job.run()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.job = None
        after = reference.probe()
        scale = 2 * reference.NOMINAL_S / (before + after)
        before = after
        try:
            reason = job.check(o)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
            reason = "malformed output: %s: %s" % (type(e).__name__, e)
        results.append(Result(job, dt, scale, reason, len(o.stdout)))
        outcome = o if reason is None else None


def tail_percentile(n: int) -> int:
    """The highest whole percentile, from 50 to 99, that leaves at least ten
    of n jobs beyond it."""
    return min(99, max(50, (100 * n - 1000) // n))


def percentile(times, q: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def timed_run(workloads, name, seed, seconds, workdir):
    """Whole rounds until both the workload's min_rounds and ``seconds`` are
    done.  The tail percentile is fixed by the job count of min_rounds
    rounds, so it is the same in every run of a workload."""
    min_rounds = workloads.WORKLOADS[name].min_rounds
    state = workloads.setup(name, seed)
    results: List[Result] = []
    k = 0
    start = time.perf_counter()
    while k < min_rounds or time.perf_counter() - start < seconds:
        paths = workloads.write_round(name, state, seed, k, workdir)
        gc.collect()
        results += run_round(workloads, name, state, seed, k, paths)
        if k == 0:
            q = tail_percentile(min_rounds * len(results))
        k += 1
    scaled = [r.scaled for r in results]
    raw = [r.seconds for r in results]
    setup_scaled, setup_raw = measure_setup()
    values = {
        "setup_s": setup_scaled,
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_s.p50": statistics.median(scaled),
        "job_s.tail": percentile(scaled, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": "median of %d fresh-interpreter imports; %.4f s unscaled"
                   % (SETUP_SAMPLES, setup_raw),
        "jobs_per_s": "%d jobs in %d rounds, %.2f s of job time; %.3f/s unscaled"
                      % (len(raw), k, sum(raw), len(raw) / sum(raw)),
        "job_s.p50": "%.4f s unscaled" % statistics.median(raw),
        "job_s.tail": "p%d of %d jobs; %.4f s unscaled" % (q, len(raw), percentile(raw, q)),
    }
    return results, {k: (v, END_TO_END[k]) for k, v in values.items()}, notes


def _frac(a, b):
    return a / b if b else 0.0


LAYERS = tuple(tracing.LAYER_OF_MODULE.values())

# metric -> span statistic (from tracing.span_stats) it reports
FROM_SPANS = {
    "linalg.rref_calls": "linalg.rref.calls",
    "linalg.rref_s": "linalg.rref.s",
    "linalg.contains_calls": "linalg.Subspace.contains.calls",
    "linalg.matmul_calls": "linalg.Matrix.__matmul__.calls",
    "linalg.matmul_s": "linalg.Matrix.__matmul__.s",
    "linalg.det_s": "linalg.Matrix.det.s",
    "linalg.char_poly_s": "linalg.char_poly.s",
    "linalg.poly_splits_s": "linalg.poly_splits.s",
    "group.init_s": "group.CyclicGroup.__init__.s",
    "group.element_calls": "group.CyclicGroup.element.calls",
    "group.element_derived": "group.CyclicGroup.element.with_children",
    "group.element_s": "group.CyclicGroup.element.s",
    "group.transfer_s": "group.CyclicGroup.transfer.s",
    "group.induced_action_calls": "group.CyclicGroup.induced_action.calls",
    "group.induced_action_s": "group.CyclicGroup.induced_action.s",
    "formula.nonmodular_s": "formula.nonmodular_crosscheck.s",
    "oracle.cond_calls": "oracle.cocycle_conditions.calls",
    "oracle.cond_s": "oracle.cocycle_conditions.s",
    "oracle.coboundary_s": "oracle.coboundary_matrix.s",
    "oracle.distinguished_s": "oracle.distinguished_constraints.s",
    "oracle.per_element_s": "oracle.per_element_cohomology.s",
    "oracle.reps_s": "oracle.representative_basis.s",
    "oracle.reduce_calls": "oracle.reduce_to_representative.calls",
    "oracle.reduce_s": "oracle.reduce_to_representative.s",
    "deform.bracket_s": "deform.square_bracket_transvection.s",
    "deform.confluence_s": "deform.confluence_check.s",
    "deform.hilbert_s": "deform.hilbert_check.s",
    "cli.calls": "cli.main.calls",
}
# metrics taken as they are from the counting pass (tracing.Counter.totals)
FROM_COUNTS = (
    "fields.coerce_calls", "fields.arith_calls", "linalg.matrix_new_calls",
    "linalg.rref_cells", "formula.summand_calls", "formula.classes",
    "oracle.cond_cells", "oracle.per_element_calls", "oracle.per_element_distinct",
    "deform.confluence_words", "deform.hilbert_words", "deform.normal_form_calls",
    "deform.rewrite_at_calls",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_fill", ".coverage")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def layer_metrics(S, C, plain, spanned):
    """Per-layer metrics, name -> (value, unit), from span statistics S,
    counting-pass totals C and the job results of the plain and span passes."""
    m = {}
    for name in FROM_COUNTS:
        m[name] = C.get(name, 0)
    for name, key in FROM_SPANS.items():
        m[name] = S.get(key, 0)
    m["linalg.rref_fill"] = _frac(C.get("linalg.rref_nonzero", 0), C.get("linalg.rref_cells", 0))
    m["formula.summand_s"] = sum(S.get("formula.%s_contribution.s" % c, 0)
                                 for c in ("identity", "codim1", "codim2"))
    m["formula.useful_frac"] = _frac(C.get("formula.classes", 0),
                                     C.get("formula.summand_calls", 0))
    m["oracle.per_element_useful_frac"] = _frac(C.get("oracle.per_element_distinct", 0),
                                                C.get("oracle.per_element_calls", 0))
    m["cli.output_bytes"] = sum(r.nbytes for r in plain)
    for layer in LAYERS:
        m[layer + ".self_s"] = S.get(layer + ".self_s", 0)
    plain_wall = sum(r.scaled for r in plain)
    traced_wall = sum(r.scaled for r in spanned)
    m["trace.spans"] = S.get("spans", 0)
    m["trace.overhead_frac"] = _frac(traced_wall - plain_wall, plain_wall)
    m["trace.coverage"] = _frac(sum(S.get(l + ".self_s", 0) for l in LAYERS), traced_wall)
    return {k: (int(v) if _unit(k) in ("count", "bytes") else v, _unit(k))
            for k, v in sorted(m.items())}


def traced_run(workloads, name, seed, workdir):
    """Round 0 three times: plain (for the overhead), with spans, with counters."""
    state = workloads.setup(name, seed)
    paths = workloads.write_round(name, state, seed, 0, workdir)
    gc.collect()
    plain = run_round(workloads, name, state, seed, 0, paths)
    rec = tracing.Recorder()
    gc.collect()
    with rec.patches():
        spanned = run_round(workloads, name, state, seed, 0, paths, tracer=rec)
    cnt = tracing.Counter()
    with cnt.patches():
        counted = run_round(workloads, name, state, seed, 0, paths, tracer=cnt)
    OUT.mkdir(exist_ok=True)
    rec.write(str(OUT / ("spans-%s-seed%d.tsv" % (name, seed))))
    S = tracing.span_stats(rec.spans, {"r0.j%d" % i: r.scale for i, r in enumerate(spanned)})
    S["spans"] = len(rec.spans)
    metrics = layer_metrics(S, cnt.totals(), plain, spanned)
    notes = {"trace.coverage": "%.3f s traced job time, %.3f s plain (scaled)"
                               % (sum(r.scaled for r in spanned), sum(r.scaled for r in plain))}
    return plain + spanned + counted, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "skewcoh" / "__init__.py").is_file():
        print("error: no skewcoh package under %s; run from a checkout of the repository"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / ("%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir()
    print("workload %s, seed %d: %s" % (args.workload, args.seed,
                                        workloads.WORKLOADS[args.workload].why))
    try:
        if args.trace:
            results, metrics, notes = traced_run(workloads, args.workload, args.seed,
                                                 str(workdir))
        else:
            results, metrics, notes = timed_run(workloads, args.workload, args.seed,
                                                args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(r.job.label, r.reason) for r in results if r.reason is not None]
    for label, reason in failures[:20]:
        print("  FAILED %s: %s" % (label, reason))
    # failed_frac is printed but kept out of the JSON metrics: it is 0 on a
    # correct program, and the JSON carries attempted and failed instead.
    print("  %-32s %.6g ratio  (%d of %d jobs)" % (
        "failed_frac", len(failures) / max(len(results), 1), len(failures), len(results)))
    for key, (value, unit) in metrics.items():
        note = notes.get(key)
        print("  %-32s %.6g %s%s" % (key, value, unit, "  (%s)" % note if note else ""))
    print(json.dumps({
        "correct": not failures and bool(results),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
