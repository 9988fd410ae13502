"""Property test over every CLI input file: whatever bytes a file holds, a
command exits 0, or exits 1 with the {"error", "detail"} envelope on
stderr; it never raises."""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brickforge.bricks import Brick, BrickAssembly
from brickforge.cli import main
from brickforge.stability import PARAM_CEILINGS
from brickforge.tokenizer import tokenize

# Each command with the arbitrary file as {bad}; other inputs are valid.
COMMANDS = [
    ["tokenize", "{bad}.json"],
    ["detokenize", "{bad}.tok"],
    ["detokenize", "--lenient", "{bad}.tok"],
    ["roundtrip", "{bad}.json"],
    ["validate", "{bad}.json"],
    ["stability", "{bad}.json"],
    ["export-ldraw", "{bad}.json"],
    ["voxelize", "{bad}.xyz"],
    ["stats", "{bad}.tok"],
    ["score", "--samples", "64", "--target", "{bad}.xyz", "{assembly}"],
    ["score", "--samples", "64", "--target", "{cloud}", "{bad}.json"],
    ["score", "--samples", "64", "--target", "{cloud}", "{assembly}", "{bad}.json"],
    ["prefpairs", "--samples", "64", "--target", "{cloud}", "{assembly}", "{bad}.json"],
    ["generate", "--max-bricks", "8", "--max-rollbacks", "1", "--target", "{bad}.xyz"],
    ["generate", "--max-bricks", "8", "--max-rollbacks", "1", "--target", "{bad}.json"],
]

ASSEMBLY = BrickAssembly((Brick(2, 4, 9, 8, 0), Brick(2, 2, 9, 9, 1)))
VALID = [json.dumps({"bricks": [b.to_dict() for b in ASSEMBLY.bricks]}).encode(),
         tokenize(ASSEMBLY).to_text().encode(),
         b"0 0 0\n1 2 3\n4 1 0\n2 2 2\n",
         b'{"shape": [20, 20, 20], "occupied": [[5, 5, 0], [5, 5, 1]]}']

# Raw bytes; text over the characters the loaders parse; and valid inputs
# with a few bytes replaced, so that many payloads get past the first check.
PAYLOADS = st.one_of(
    st.binary(max_size=80),
    st.text(alphabet='{}[]":, \n-.0123456789eEnaif bricks hwxyz BOS EOS EOP XYZHWFM',
            max_size=80).map(str.encode),
    st.builds(lambda text, start, cut, junk: text[:start] + junk + text[start + cut:],
              st.sampled_from(VALID), st.integers(0, 120), st.integers(0, 4),
              st.binary(max_size=4)),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    assembly = root / "assembly.json"
    assembly.write_text(ASSEMBLY.to_json())
    cloud = root / "cloud.xyz"
    cloud.write_bytes(VALID[2])
    return {"bad": str(root / "bad"), "assembly": str(assembly), "cloud": str(cloud)}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(payload=PAYLOADS)
def test_any_file_bytes_exit_0_or_1_with_the_envelope(argv, payload, inputs):
    argv = [a.format(**inputs) for a in argv]
    bad = next(a for a in argv if a.startswith(inputs["bad"]))
    with open(bad, "wb") as handle:
        handle.write(payload)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        envelope = json.loads(err.getvalue().splitlines()[-1])
        assert set(envelope) == {"error", "detail"}


# Finite coordinates at the edges of the float range: subnormals, values
# whose sum or square overflows, and the largest floats.
EXTREMES = [0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 2.2e-308, 1e-160, 1e200, -1e200,
            8e307, 9e307, 1.7e308, -1.7e308]
EXTREME_CLOUDS = st.lists(
    st.tuples(*[st.one_of(st.sampled_from(EXTREMES),
                          st.floats(allow_nan=False, allow_infinity=False))] * 3),
    min_size=1, max_size=6)
TETRAHEDRON = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


@pytest.mark.parametrize("argv", [["voxelize", "{bad}.xyz"],
                                  ["score", "--samples", "64", "--target", "{bad}.xyz",
                                   "{assembly}"]], ids=" ".join)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(points=EXTREME_CLOUDS)
@example(points=[(8e307, 0.0, 0.0)] * 3 + [(9e307, 0.0, 0.0)])  # the centroid overflows
@example(points=[tuple(1e200 * v for v in p) for p in TETRAHEDRON])  # the radius overflows
def test_extreme_finite_coordinates_give_finite_output_or_the_envelope(argv, points, inputs):
    argv = [a.format(**inputs) for a in argv]
    bad = next(a for a in argv if a.startswith(inputs["bad"]))
    with open(bad, "w") as handle:
        handle.write("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    if code == 1:
        envelope = json.loads(err.getvalue().splitlines()[-1])
        assert set(envelope) == {"error", "detail"}
        return
    assert code == 0
    result = json.loads(out.getvalue())
    if argv[0] == "score":
        assert all(math.isfinite(v) for k, v in result.items() if k != "candidate")
    else:
        assert len(result["occupied"]) > 0


# Finite flag values at the edges: subnormals, each physics ceiling and the
# float just below it, 1e308 and negatives, beside any finite float.
CEILINGS = [c for c in PARAM_CEILINGS.values() if math.isfinite(c)]
FLAG_EXTREMES = [5e-324, -5e-324, 2.2e-308, 1e-300, 1e308, -1e308, -1.0, 0.0, -0.0]
FLAG_EXTREMES += CEILINGS + [math.nextafter(c, 0.0) for c in CEILINGS]
FLAG_VALUES = st.one_of(st.sampled_from(FLAG_EXTREMES),
                        st.floats(allow_nan=False, allow_infinity=False))
# Sample counts outside [2, 1048576], 1 among them (one point has no
# extent), a few inside (the ceiling itself takes seconds to score), and
# float text, which is no count.
SAMPLE_COUNTS = st.one_of(st.integers(max_value=1), st.integers(min_value=(1 << 20) + 1),
                          st.integers(2, 256), FLAG_VALUES)

SCORE = ["score", "--samples", "64", "--target", "{cloud}", "{assembly}"]
FLAGGED = [(["stability", "{assembly}"], flag) for flag in ("--clutch", "--weight", "--slack-eps")]
FLAGGED += [(SCORE, flag) for flag in ("--clutch", "--weight", "--slack-eps")]
FLAGGED += [(["generate", "--max-bricks", "4", "--max-rollbacks", "1", "--target", "{cloud}"],
             "--temperature")]


def all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def run_flagged(argv, value, inputs):
    """main() on ``argv`` plus ``value``: (exit code, stdout, stderr), with
    numpy's RuntimeWarning raised as an error."""
    argv = [a.format(**inputs) for a in argv[:-1]] + [argv[-1] + "=" + repr(value)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exit_:  # a usage error
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def check_flag_outcome(code, out, err):
    """Exit 0 with finite JSON, 1 with the envelope, or 2 with a usage error."""
    if code == 0:
        assert all_finite(json.loads(out))
    elif code == 1:
        envelope = json.loads(err.splitlines()[-1])
        assert set(envelope) == {"error", "detail"}
    else:
        assert code == 2 and "usage:" in err


@pytest.mark.parametrize("argv, flag", FLAGGED, ids=lambda v: v if isinstance(v, str) else v[0])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(value=FLAG_VALUES)
def test_extreme_flag_values_give_finite_output_the_envelope_or_a_usage_error(argv, flag, value,
                                                                              inputs):
    check_flag_outcome(*run_flagged(argv + [flag], value, inputs))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(value=SAMPLE_COUNTS)
@example(value=(1 << 20) + 1)
def test_extreme_sample_counts_give_finite_output_or_a_usage_error(value, inputs):
    check_flag_outcome(*run_flagged(SCORE + ["--samples"], value, inputs))
