"""The benchmark tracer wraps package attributes by name; a renamed layer
boundary must fail here rather than only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from brickforge import stability
from brickforge.decode import GreedyGeometryPolicy, generate
from brickforge.geometry import VoxelGrid

from conftest import grow_random_assembly

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_column_generate_counts_and_restores():
    tracer = load_tracer().Tracer()
    occ = np.zeros((20, 20, 20), dtype=bool)
    occ[4, 7, 0:3] = True
    with tracer.installed():
        wrapped = [(owner, attr, original, vars(owner)[attr])
                   for owner, attr, original in tracer._saved]
        result = generate(GreedyGeometryPolicy(0.0), VoxelGrid(occ), seed=0)
        column = tracer.layer_metrics(1)
        # the column's LP is solved in presolve (0 iterations); this one is not
        stability.stability_scores(grow_random_assembly(np.random.default_rng(0), 20))
    assert len(result.assembly) == 3
    assert column["decode.propose.calls"] > 0
    assert column["decode.validate_tuple.calls"] > 0
    # scipy's linprog is imported lazily; every solve must still pass
    # through the module-level name the tracer wraps
    assert column["stability.linprog.calls"] > 0
    assert tracer.layer_metrics(1)["stability.linprog.nit"] > 0
    assert wrapped and not tracer._saved
    for owner, attr, original, wrapper in wrapped:
        assert wrapper is not original
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
