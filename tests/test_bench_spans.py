import os

from cgdyn import evolve, qcore

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_traced_benchmark_installs_and_restores(monkeypatch):
    # the benchmark's traced run (`perfbench/run.py --trace 1`) rebinds cgdyn
    # functions by module attribute; deleting or renaming one of them must
    # fail here, not only there
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    before = (evolve.trajectory, evolve.apply_cg, qcore.propagate)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (evolve.trajectory, evolve.apply_cg, qcore.propagate) == before
