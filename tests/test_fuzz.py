"""Generated inputs break no command: each exits with a documented code.

Instance files are drawn from magnitudes between zero and overflow, NaN and
inf, wrong types, missing keys and couplings out of order, and run through
``cdanneal run`` and ``cdanneal gap`` in process for every drive.  Nothing
may escape ``main``: neither an exception nor a warning, which pytest turns
into an error.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdanneal.cli import main
from cdanneal.gauge import Ansatz

#: The documented exit codes: success, usage, resource cap, numerical
#: failure and I/O failure.
EXIT_CODES = {0, 2, 3, 4, 5}

NUMBERS = st.sampled_from(
    [0.0, 5e-324, -5e-324, 1.0, -1.0, 1e77, -1e77, 1e160, -1e160, 1e300, -1e300]
    + [math.nan, math.inf, -math.inf]
)
WRONG_TYPES = st.sampled_from(["1", None, True, 2.5, [], {}])


@st.composite
def instance_payloads(draw):
    """An instance file's JSON object, valid or broken in one way."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.permutations([[i, j] for i in range(n) for j in range(i + 1, n)]))
    pairs = pairs[: draw(st.integers(0, len(pairs)))]
    if draw(st.booleans()):
        pairs.sort()  # lexicographic, as a valid file lists them
    payload = {
        "n": n,
        "seed": draw(st.integers(0, 3)),
        "h": [draw(NUMBERS) for _ in range(n)],
        "J": [[i, j, draw(NUMBERS)] for i, j in pairs],
    }
    flaw = draw(st.sampled_from(["none", "none", "none", "missing", "retyped", "entry"]))
    key = draw(st.sampled_from(sorted(payload)))
    if flaw == "missing":
        del payload[key]
    elif flaw == "retyped":
        payload[key] = draw(WRONG_TYPES)
    elif flaw == "entry":
        entries = [(payload["h"], k) for k in range(n)]
        entries += [(coupling, k) for coupling in payload["J"] for k in range(3)]
        container, k = draw(st.sampled_from(entries))
        container[k] = draw(WRONG_TYPES)
    return payload


def run_quietly(*argv) -> tuple[int, str]:
    """The exit code and stdout of ``main`` on ``argv``; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(instance_payloads())
@example({"n": 2, "seed": 0, "h": [0.0, 1e160], "J": []})
@example({"n": 3, "seed": 1, "h": [1e300] * 3, "J": [[0, 1, 1e300], [0, 2, 1e300], [1, 2, 1e300]]})
def test_instance_files_break_no_command(payload):
    with tempfile.TemporaryDirectory() as tmp:
        instance, curve = Path(tmp) / "inst.json", Path(tmp) / "gap.csv"
        instance.write_text(json.dumps(payload))
        for ansatz in Ansatz:
            code, out = run_quietly("run", "--instance", str(instance), "--ansatz", ansatz.value)
            assert code in EXIT_CODES, (ansatz, code)
            if code == 0:
                assert math.isfinite(float(out.split()[1])), out  # "P_s <value>"
            args = ("gap", "--instance", str(instance), "--ansatz", ansatz.value)
            code, _ = run_quietly(*args, "--samples", "3", "--out", str(curve))
            assert code in EXIT_CODES, (ansatz, code)
            if code == 0:
                rows = [line.split(",")[:3] for line in curve.read_text().splitlines()[1:]]
                assert rows and all(math.isfinite(float(v)) for row in rows for v in row), rows
                curve.unlink()
