import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_benchmark_span_annotations_read_the_library():
    # the benchmark's annotate callbacks read BasisMap.F_cols/E_cols and
    # OpNormResult.converged/iterations: run them, not only install them
    from orbitlab import basis, operators
    from orbitlab.profiles import reference_schedule

    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    sched, fams = reference_schedule()
    try:
        tracer.install_orbitlab_probes(tr)
        b = basis.assemble(sched, fams)
        res = operators.op_norm(b.F_csc)
    finally:
        tr.uninstall()
    info = {}
    for name, _, _, _, span_info in tr.spans:
        info.setdefault(name, []).append(span_info)
    assert info["basis.assemble"] == [{"mode": b.mode, "n_trunc": b.n_trunc,
                                       "nnz": b.F_csc.nnz + b.E_csc.nnz}]
    assert info["operators.op_norm"][-1] == {
        "method": res.method, "converged": res.converged,
        "iterations": res.iterations}
