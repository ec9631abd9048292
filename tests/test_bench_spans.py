import ast
import os

import numpy as np

from cgdyn import evolve, qcore
from cgdyn.coarse_grain import non_preferential, preferential

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _expected_spans():
    """perfbench's EXPECTED_SPANS, read from its self-test without importing it."""
    path = os.path.join(PERFBENCH, "tests", "test_perfbench.py")
    tree = ast.parse(open(path, encoding="utf-8").read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EXPECTED_SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no EXPECTED_SPANS in {path}")


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


def test_traced_trajectories_record_the_benchmark_spans(monkeypatch):
    # one small trajectory per engine reaches every span that the joint-state
    # and large-n workloads expect, so a refactor that moves a call off a
    # traced name fails here and not only in the benchmark's slow self-test
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    mixed = qcore.density_from_bloch([0.5, 0.2, 0.3])
    pure = qcore.density_from_bloch([1.0, 0.0, 0.0])
    field = evolve.FieldAllToAll((1.0, 1.3, 1.7, 2.1), include_interaction=True)
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    cases = [
        (mixed, preferential(4, 0.4), field, [0.0, 0.5, 1.0], "dense"),
        (mixed, preferential(4, 0.4), evolve.IsingChain(4, g=0.5), [0.0, 0.5, 1.0]),
        # Krylov on the closed chain's sector of rotation and reflection and on the open chain's of reflection
        # (the closed n = 10 chain's 78 orbits take eigh)
        (pure, non_preferential(13), evolve.IsingChain(13, g=0.5), np.linspace(0.0, 2.0, 10)),
        (pure, non_preferential(10), evolve.IsingChain(10, g=0.5, boundary="open"), np.linspace(0.0, 2.0, 10)),
        (mixed, preferential(6, 0.4), evolve.IsingChain(6), [0.0, 0.5, 1.0]),
    ]
    runs = []
    try:
        for case in cases:
            tracer.op = len(runs)
            runs.append(evolve.trajectory(*case))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert [r.route for r in runs] == ["dense", "statevector", "statevector", "statevector", "fast"]
    expected = _expected_spans()
    names = {s[1] for s in tracer.spans}
    missing = (expected["joint-state"] | expected["large-n"]) - names
    assert not missing, missing
    for op in (2, 3):
        krylov = {"evolve.sparse_build", "evolve.krylov_step"} - {s[1] for s in tracer.spans if s[6] == op}
        assert not krylov, (op, krylov)


def test_traced_cli_runs_record_the_configs_spans(monkeypatch, tmp_path):
    # three small CLI runs reach every span the configs workload expects: the
    # diagnostics battery, the fast field route and the two-qubit Heisenberg form
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    from cgdyn import cli

    argvs = [
        ["diagnostics", "--target", "swap", "--samples", "2", "--steps", "3"],
        ["field", "--n", "4", "--interaction", "--steps", "5"],
        ["cnot", "--steps", "5"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    tracer.active = True
    try:
        for k, argv in enumerate(argvs):
            tracer.op = k
            assert cli.main(argv + ["--output", str(tmp_path / f"run{k}.out")]) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    missing = _expected_spans()["configs"] - {s[1] for s in tracer.spans}
    assert not missing, missing
