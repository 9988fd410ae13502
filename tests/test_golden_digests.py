"""The benchmark's seed-1 outputs, pinned.

One pass of each in-process workload over ``bench/inputs.build(name, seed)``
is hashed the way ``bench/run.py`` hashes its first pass, and compared with
``golden_digests.json``.  The corpus digest uses neither numpy nor scipy and
is always compared.  The score and generate digests follow numpy's
``Generator`` and the HiGHS release inside scipy, so they are compared only
on the versions the file names and printed on any other.  A change that
moves a digest on purpose updates the file and says why.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy
import pytest
import scipy

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json").read_text())
VERSION_BOUND = {"score", "generate"}


def seed_digest(name: str, workdir: Path) -> str:
    wl = workloads.make(name, workdir)
    prepared = wl.prepare(inputs.build(name, GOLDEN["seed"]))
    outs, _, _ = wl.run_pass(prepared)
    assert all(wl.check(x, out) for x, out in zip(prepared, outs))
    canon = "\n".join(wl.canonical(x, out) for x, out in zip(prepared, outs))
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_seed_digest(name, tmp_path):
    digest = seed_digest(name, tmp_path)
    recorded = (numpy.__version__, scipy.__version__) == (GOLDEN["numpy"], GOLDEN["scipy"])
    if name in VERSION_BOUND and not recorded:
        print(f"{name} digest {digest} on numpy {numpy.__version__}, scipy {scipy.__version__}")
        return
    assert digest == GOLDEN["digests"][name]
