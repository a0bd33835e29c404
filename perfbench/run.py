#!/usr/bin/env python3
"""orbitlab benchmark: time `build` and `verify` end to end and per module.

    python3 perfbench/run.py --workload mini --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One client process performs the
workload's operations one after another (a closed loop): the CLI workloads
call ``orbitlab.cli.main(argv)`` in-process, ``r1-lib`` calls the library.
A pass is the workload's whole operation list; passes repeat while the next
one is expected to end inside ``--seconds``, and at least one runs.  Between
passes the package's ``lru_cache`` tables are cleared, so every pass starts
as cold as a fresh ``orbitlab`` command.

Operation times are pace-adjusted.  A shared VM's speed can drift by tens
of percent over seconds, so a pace probe (``pace.py``) samples a fixed loop
every 50 ms.  An operation's time is its wall time, minus the probe's own
share, times ``NOMINAL_LOOP_S`` over the mean loop time seen during it: the
seconds it would have taken at the host's usual pace.  Unadjusted wall times
are kept in the result file and printed in the summary.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pairs of
passes, one untraced and one traced, and prints the per-layer metrics of the
traced passes (span wall times) plus ``trace_overhead_s`` (traced minus
untraced pass time, both pace-adjusted).
The last line of standard output is one JSON object; a human summary and a
result file with provenance (``perfbench/results/``) come with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from pace import PaceProbe
from tracer import Tracer, install_orbitlab_probes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

# Pinned before numpy loads; the 2-core sizing in NOTES.md assumes 1 thread.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# The pace probe's typical loop time on a 2-vCPU x86-64 VM with Python 3.11;
# it only sets the scale of the adjusted seconds.
NOMINAL_LOOP_S = 0.0008

END_TO_END = {            # name: (unit, what)
    "setup_s": ("s", "process start until orbitlab is imported and the "
                     "inputs are ready, median of fresh processes"),
    "build_s": ("s", "build-phase operations of one pass, pace-adjusted, "
                     "median over passes"),
    "verify_s": ("s", "verify-phase operations of one pass, pace-adjusted, "
                      "median over passes"),
    "peak_rss_mb": ("MB", "peak resident memory of the client process"),
}

PER_LAYER = {              # name: (unit, better)
    "cli.build.s": ("s", "lower"),
    **{f"cli.verify.{s}.s": ("s", "lower") for s in workloads.ALL_SUITES},
    "cli.verify.reassemble.s": ("s", "lower"),
    "schedule.load_config.calls": ("count", "lower"),
    "schedule.load_config.s": ("s", "lower"),
    "geometry.classify.calls": ("count", "lower"),
    "geometry.stage_table.calls": ("count", "lower"),
    "polynet.s": ("s", "lower"),
    "basis.assemble.float.self_s": ("s", "lower"),
    "basis.assemble.rational.self_s": ("s", "lower"),
    "basis.assemble.calls": ("count", "lower"),
    "basis.n_trunc": ("count", "lower"),
    "basis.nnz": ("count", "lower"),
    "basis.csc.s": ("s", "lower"),
    "basis.export_matrix_market.s": ("s", "lower"),
    "basis.export_matrix_market.bytes": ("bytes", "lower"),
    "basis.frame_conversion.calls": ("count", "lower"),
    "basis.frame_conversion.s": ("s", "lower"),
    "basis.solve_F.s": ("s", "lower"),
    "basis.roundtrip_exact.s": ("s", "lower"),
    "operators.conjugated_power.calls": ("count", "lower"),
    "operators.conjugated_power.s": ("s", "lower"),
    "operators.sigma_max_block.calls": ("count", "lower"),
    "operators.sigma_max_block.self_s": ("s", "lower"),
    "operators.op_norm.dense_svd.calls": ("count", "lower"),
    "operators.op_norm.dense_svd.s": ("s", "lower"),
    "operators.op_norm.power_iter.calls": ("count", "lower"),
    "operators.op_norm.power_iter.s": ("s", "lower"),
    "operators.op_norm.power_iter.iterations": ("count", "lower"),
    "operators.op_norm.power_iter.converged_ratio": ("1", "higher"),
    "operators.block_estimates.s": ("s", "lower"),
    "operators.full_norm_entry.s": ("s", "lower"),
    "operators.tail_bound_entry.s": ("s", "lower"),
    "hypercyclic.frame_constant.calls": ("count", "lower"),
    "hypercyclic.frame_constant.s": ("s", "lower"),
    "hypercyclic.certify_hypercyclic_step.s": ("s", "lower"),
    "hypercyclic.fan_entries.s": ("s", "lower"),
    "hypercyclic.bfan_entries.s": ("s", "lower"),
    "hypercyclic.modulus_reduction_chain.s": ("s", "lower"),
    "unicell.unicell_entries.s": ("s", "lower"),
    "reflexivity.reflexivity_entries.s": ("s", "lower"),
    "reflexivity.build_A.s": ("s", "lower"),
    "report.write.s": ("s", "lower"),
    "report.rows.pass": ("count", "higher"),
    "report.rows.fail": ("count", "lower"),
    "report.rows.informational": ("count", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


# -- statistics ------------------------------------------------------------------

def tail_percentile(samples: list) -> tuple:
    """Highest percentile p (of 50, 90, 99, 99.9) with at least ten samples
    above it, with its value; (None, None) when there are too few samples."""
    xs = sorted(samples)
    best = (None, None)
    for p in (50, 90, 99, 99.9):
        k = int(len(xs) * p / 100)
        if len(xs) - k - 1 >= 10:
            best = (p, xs[k])
    return best


def summarize(samples: list) -> dict:
    p, v = tail_percentile(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "tail_percentile": p, "tail_value": v, "samples": samples}


# -- one pass --------------------------------------------------------------------

def clear_caches() -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("orbitlab"):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_pass(ops, rec, probe, tracer=None) -> dict:
    t_pass = time.perf_counter()
    results = []
    for op in ops:
        idx = tracer.open(op.label) if tracer else None
        busy0 = probe.busy_s
        t0 = time.perf_counter()
        try:
            problems = op.fn()
        except Exception as exc:  # an op that raises is a failed op
            problems = [f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(limit=-3)]
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.close(idx)
        probe_s = probe.busy_s - busy0
        loop_s = probe.mean_loop(t0, t1)
        results.append({
            "phase": op.phase, "label": op.label, "wall_s": t1 - t0,
            "probe_s": probe_s, "loop_s": loop_s,
            "s": (t1 - t0 - probe_s) * NOMINAL_LOOP_S / loop_s,
            "problems": problems})
    wall = time.perf_counter() - t_pass
    rec.finish()
    out = {"wall_s": wall, "s": sum(r["s"] for r in results), "ops": results,
           "rows": dict(rec.rows), "bases": rec.bases}
    for phase in ("build", "verify"):
        mine = [r for r in results if r["phase"] == phase]
        out[f"{phase}_s"] = sum(r["s"] for r in mine)
        out[f"{phase}_wall_s"] = sum(r["wall_s"] for r in mine)
    return out


# -- per-layer metrics -------------------------------------------------------------

def layer_metrics(tr, rows: dict) -> dict:
    dur = tr.durations()
    selfs = tr.self_times()
    spans = tr.spans

    def total(name, idxs=None):
        return sum(dur[i] for i in (tr.outermost(name) if idxs is None else idxs))

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    m = {"cli.build.s": total("cli.build")}
    for s in workloads.ALL_SUITES:
        m[f"cli.verify.{s}.s"] = total(f"cli.verify.{s}")
    assembles = [i for i, s in enumerate(spans) if s[0] == "basis.assemble"]
    m["cli.verify.reassemble.s"] = total(None, [
        i for i in tr.outermost("basis.assemble")
        if any(a.startswith("cli.verify.") for a in tr.ancestors(i))])
    m["schedule.load_config.calls"] = count("schedule.load_config")
    m["schedule.load_config.s"] = total("schedule.load_config")
    m["geometry.classify.calls"] = tr.counters.get("geometry.classify", 0)
    m["geometry.stage_table.calls"] = tr.counters.get("geometry.stage_table", 0)
    m["polynet.s"] = total("polynet")
    for mode in ("float", "rational"):
        m[f"basis.assemble.{mode}.self_s"] = sum(
            selfs[i] for i in assembles if spans[i][4]
            and spans[i][4]["mode"] == mode)
    m["basis.assemble.calls"] = len(assembles)
    infos = [spans[i][4] for i in assembles if spans[i][4]]
    largest = max(infos, key=lambda d: d["n_trunc"], default=None)
    m["basis.n_trunc"] = largest["n_trunc"] if largest else 0
    m["basis.nnz"] = largest["nnz"] if largest else 0
    m["basis.csc.s"] = total("basis.csc")
    m["basis.export_matrix_market.s"] = total("basis.export_matrix_market")
    m["basis.export_matrix_market.bytes"] = sum(
        s[4]["bytes"] for s in spans
        if s[0] == "basis.export_matrix_market" and s[4])
    m["basis.frame_conversion.calls"] = count("basis.frame_conversion")
    m["basis.frame_conversion.s"] = total("basis.frame_conversion")
    m["basis.solve_F.s"] = total("basis.solve_F")
    m["basis.roundtrip_exact.s"] = total("basis.roundtrip_exact")
    m["operators.conjugated_power.calls"] = count("operators.conjugated_power")
    m["operators.conjugated_power.s"] = total("operators.conjugated_power")
    sigma = [i for i, s in enumerate(spans) if s[0] == "operators.sigma_max_block"]
    m["operators.sigma_max_block.calls"] = len(sigma)
    m["operators.sigma_max_block.self_s"] = sum(selfs[i] for i in sigma)
    # op_norm: top-level calls only; the rescaling recursion is a child span.
    norms = [i for i in tr.outermost("operators.op_norm") if spans[i][4]]
    for method in ("dense_svd", "power_iter"):
        idxs = [i for i in norms if spans[i][4]["method"] == method]
        m[f"operators.op_norm.{method}.calls"] = len(idxs)
        m[f"operators.op_norm.{method}.s"] = total(None, idxs)
    power = [spans[i][4] for i in norms if spans[i][4]["method"] == "power_iter"]
    m["operators.op_norm.power_iter.iterations"] = sum(
        d["iterations"] for d in power)
    # No power iteration at all wastes nothing: the ratio reads 1.
    m["operators.op_norm.power_iter.converged_ratio"] = (
        sum(d["converged"] for d in power) / len(power) if power else 1.0)
    for name in ("block_estimates", "full_norm_entry", "tail_bound_entry"):
        m[f"operators.{name}.s"] = total(f"operators.{name}")
    m["hypercyclic.frame_constant.calls"] = count("hypercyclic.frame_constant")
    for name in ("frame_constant", "certify_hypercyclic_step", "fan_entries",
                 "bfan_entries", "modulus_reduction_chain"):
        m[f"hypercyclic.{name}.s"] = total(f"hypercyclic.{name}")
    m["unicell.unicell_entries.s"] = total("unicell.unicell_entries")
    for name in ("reflexivity_entries", "build_A"):
        m[f"reflexivity.{name}.s"] = total(f"reflexivity.{name}")
    m["report.write.s"] = total("report.write")
    for status in ("pass", "fail", "informational"):
        m[f"report.rows.{status}"] = rows.get(status, 0)
    return m


# -- provenance ----------------------------------------------------------------------

def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orbitlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(seed: int, fingerprint: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "source_sha256": fingerprint,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {k: os.environ[k] for k in BLAS_ENV}},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "orbitlab_threads": os.environ.get("ORBITLAB_THREADS", "1 (default)"),
        "seed": seed,
        "platform": platform.platform(),
    }


# -- running a workload ----------------------------------------------------------------

def measure_setup(workload: str, workdir: Path) -> list:
    """Wall time from spawning a fresh interpreter until it has imported
    orbitlab and prepared the workload inputs (CLOCK_MONOTONIC is shared by
    all processes on the host)."""
    probe = BENCH / "setup_probe.py"
    samples = []
    for k in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(workdir / f"probe{k}")],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def load_manifests(fingerprint: str) -> tuple[Path, dict]:
    path = RESULTS / f"manifests-{fingerprint[:16]}.json"
    return path, (json.loads(path.read_text()) if path.exists() else {})


def save_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def run_passes(args, inputs, workdir: Path, manifests: dict) -> tuple:
    """Untraced passes (and, with --trace 1, a traced pass after each) until
    the next lap would end past --seconds; at least one lap."""
    deadline = time.perf_counter() + args.seconds
    plain, traced, spans = [], [], []
    with PaceProbe() as probe:
        while True:
            for tracing in ((False, True) if args.trace else (False,)):
                clear_caches()
                rec = workloads.Record(manifests)
                ops = workloads.operations(args.workload, inputs, workdir,
                                           args.seed, rec)
                if not tracing:
                    plain.append(run_pass(ops, rec, probe))
                    continue
                tr = Tracer()
                install_orbitlab_probes(tr)
                try:
                    p = run_pass(ops, rec, probe, tr)
                finally:
                    tr.uninstall()
                p["layers"] = layer_metrics(tr, p["rows"])
                traced.append(p)
                t_first = tr.spans[0][1]
                spans.append([[s[0], s[1] - t_first, s[2] - t_first, s[3], s[4]]
                              for s in tr.spans])
            lap = plain[-1]["wall_s"] + (traced[-1]["wall_s"] if traced else 0)
            if time.perf_counter() + lap > deadline:
                return plain, traced, spans


def run(args) -> dict:
    fingerprint = source_fingerprint()
    RESULTS.mkdir(exist_ok=True)
    manifest_path, manifests = load_manifests(fingerprint)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup = measure_setup(args.workload, workdir)
        inputs = workloads.prepare(args.workload, workdir / "inputs")
        plain, traced, spans = run_passes(args, inputs, workdir, manifests)
        save_json(manifest_path, manifests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup": setup, "plain": plain, "traced": traced, "spans": spans,
            "peak_rss_mb": peak, "fingerprint": fingerprint}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "orbitlab" / "cli.py").is_file():
        print(f"no orbitlab sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    os.environ.pop("ORBITLAB_THREADS", None)   # the package default, 1
    # One client on one CPU: no migrations between cores mid-operation.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(BENCH)]

    res = run(args)
    passes = res["plain"] + res["traced"]
    attempted = sum(len(p["ops"]) for p in passes)
    failed_ops = [(p_i, o) for p_i, p in enumerate(passes) for o in p["ops"]
                  if o["problems"]]
    if args.trace:
        layers = {k: statistics.median(p["layers"][k] for p in res["traced"])
                  for k in PER_LAYER if k != "trace_overhead_s"}
        layers["trace_overhead_s"] = (
            statistics.median(p["s"] for p in res["traced"])
            - statistics.median(p["s"] for p in res["plain"]))
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in layers.items()}
    else:
        values = {"setup_s": summarize(res["setup"]),
                  "build_s": summarize([p["build_s"] for p in res["plain"]]),
                  "verify_s": summarize([p["verify_s"] for p in res["plain"]]),
                  "peak_rss_mb": summarize([res["peak_rss_mb"]])}
        metrics = {k: {"value": v["median"], "unit": END_TO_END[k][0]}
                   for k, v in values.items()}

    result = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args.seed, res["fingerprint"]),
        "setup_samples_s": res["setup"], "peak_rss_mb": res["peak_rss_mb"],
        "passes": passes, "metrics": metrics,
        "attempted": attempted, "failed": len(failed_ops),
        "ops_failed_ratio": len(failed_ops) / attempted,
    }
    if not args.trace:
        result["end_to_end"] = values
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    save_json(RESULTS / f"{stem}.json", result)
    if res["spans"]:
        save_json(RESULTS / f"{stem}-spans.json", res["spans"])

    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(res['plain'])} untraced + {len(res['traced'])} traced")
    for p_i, op in failed_ops:
        print(f"FAILED pass {p_i} {op['label']}: {op['problems'][0]}")
    print(f"ops_failed_ratio {len(failed_ops)}/{attempted}")
    if not args.trace:
        for k, v in values.items():
            tail = (f"p{v['tail_percentile']:g} {v['tail_value']:.4f}"
                    if v["tail_percentile"] else "no tail percentile (<11)")
            print(f"{k:13s} median {v['median']:.4f} {END_TO_END[k][0]}  "
                  f"n={v['n']}  {tail}")
        for phase in ("build", "verify"):
            wall = statistics.median(p[f"{phase}_wall_s"] for p in res["plain"])
            print(f"{phase}_s unadjusted wall time, median {wall:.4f} s")
    print(json.dumps({"correct": not failed_ops, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
