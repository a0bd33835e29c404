import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_benchmark_probes_install():
    # every orbitlab name the benchmark wraps must still exist
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        tracer.install_orbitlab_probes(tr)
    finally:
        tr.uninstall()
    from orbitlab import basis
    assert not hasattr(basis.assemble, "__wrapped__")
