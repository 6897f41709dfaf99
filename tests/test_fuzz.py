"""Generated inputs break no command: each exits with a documented code.

Instance files are drawn from magnitudes between zero and overflow, NaN and
inf, wrong types, missing keys and couplings out of order, and run through
``cdanneal run`` and ``cdanneal gap`` in process for every drive.  Config
files run through ``cdanneal sweep`` (n <= 5, at most 2 instances and 5
steps) and records files through ``cdanneal report``, with wrong types,
non-finite and out-of-range values, repeats, unknown keys, wrong field counts
and truncated files.  Nothing may escape ``main``: neither an exception nor a
warning, which pytest turns into an error, and every number a command writes
on success is finite.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdanneal import harness
from cdanneal.cli import main
from cdanneal.errors import ParameterError
from cdanneal.gauge import Ansatz
from cdanneal.harness import ExperimentConfig

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
    """The exit code and stdout of ``main`` on ``argv``; stderr holds no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert "Traceback" not in err.getvalue()
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


#: Config values by field: valid ones, then invalid ones.  Where they are
#: valid, sizes, counts and steps stay small so that every sweep drawn is
#: quick; large valid values are checked through ``ExperimentConfig.from_dict``
#: alone.
CONFIG_VALUES = {
    "master_seed": ([0, 99, 2**64], [-1, -(2**70)]),
    "n_values": ([[1], [3], [5], [2, 4]], [[], [4, 4], [0], [-1], [21], [10**20]]),
    "instances_per_n": ([1, 2], [0, -1, -(10**20)]),
    "total_time": ([1.0, 0.5, 1, 3.0], [0.0, -1.0, 5e-324, 1e308, 10**400, math.nan, math.inf]),
    "trotter_steps": ([1, 5], [0, -1]),
    "ansatz": (
        [[a.value] for a in Ansatz] + [["none", "nc1"], ["two-local", "local-y"]],
        [[], ["flux"], ["NC1"], ["nc1", "nc1"]],
    ),
    "shots": ([None, None, 1, 7, 2**62], [2**63, 0, -1]),
    "jobs": ([1], [0, -1]),
    "compute_gaps": ([False, True], [None]),
    "gap_samples": ([2, 3], [1, 0, -1]),
}
#: Keys whose default starts a large sweep.
REQUIRED = {"n_values", "instances_per_n", "gap_samples"}


@st.composite
def config_texts(draw, output_dir):
    """A config file's text, valid or broken in one way; it writes to ``output_dir``."""
    payload = {name: draw(st.sampled_from(valid)) for name, (valid, _) in CONFIG_VALUES.items()}
    flaw = draw(st.sampled_from(["none", "invalid", "missing", "retyped", "unknown", "truncated"]))
    key = draw(st.sampled_from(sorted(payload)))
    if flaw == "invalid":
        payload[key] = draw(st.sampled_from(CONFIG_VALUES[key][1]))
    elif flaw == "missing" and key not in REQUIRED:
        del payload[key]
    elif flaw == "retyped":
        payload[key] = draw(WRONG_TYPES)
    elif flaw == "unknown":
        payload[draw(st.sampled_from(["bogus", "record_timings"]))] = draw(st.booleans())
    text = json.dumps(payload | {"output_dir": output_dir})
    if flaw == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def assert_finite_numbers(directory: Path) -> None:
    """Every number in every JSON and CSV file under ``directory`` is finite."""

    def leaves(value):
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, list):
            return [leaf for item in value for leaf in leaves(item)]
        return [value]

    for path in directory.iterdir():
        if path.suffix == ".json":
            numbers = [v for v in leaves(json.loads(path.read_text())) if isinstance(v, float)]
        else:
            numbers = []
            for field in path.read_text().replace("\n", ",").split(","):
                with contextlib.suppress(ValueError):
                    numbers.append(float(field))
        assert all(math.isfinite(v) for v in numbers), path


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_config_files_break_no_sweep(data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config = Path(tmp) / "config.json"
        config.write_text(data.draw(config_texts(str(out))))
        code, _ = run_quietly("sweep", "--config", str(config), "--quiet")
        assert code in EXIT_CODES, code
        assert (code == 0) == out.exists(), code
        if code == 0:
            assert_finite_numbers(out)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["instances_per_n", "trotter_steps", "gap_samples", "jobs", "shots"]),
    st.sampled_from([10**9, 2**63, 10**30, 10**400, -(10**400)]),
)
def test_large_config_counts_build_or_refuse(name, value):
    # A sweep with these is never started: building its config either
    # succeeds or refuses with a usage error, whatever the magnitude.
    try:
        cfg = ExperimentConfig.from_dict({name: value})
    except ParameterError:
        return
    assert getattr(cfg, name) == value


#: Records fields by column after the instance's: valid values, then invalid ones.
RECORD_VALUES = {
    "instance_id": (["0", "1"], ["-1", "x", "1.5"]),
    "n": (["1", "4"], ["0", "21", "4.0", ""]),
    "seed": (["17", str(2**70)], ["-3", "x"]),
    "degenerate": (["false", "true"], ["yes", ""]),
    "excluded": (["false", "true"], ["no", ""]),
    "ansatz": ([a.value for a in Ansatz], ["flux", "NC1", ""]),
    "P_s": (["0.0", "0.5", "1.0", "1.000000001", "1e-300"], ["1.1", "-0.1", "", "nan", "inf"]),
    "wall_ms": (["0.0", "3.25"], ["inf", "nan", "x"]),
    "entangling_count": (["0", "120"], ["-1", "1e3", ""]),
    "delta_min": (["", "0.1", "0.0", "1e308"], ["-1.0", "inf", "nan", "x"]),
}

#: The fields every row of one instance repeats.
INSTANCE_FIELDS = ("n", "seed", "degenerate", "excluded")


@st.composite
def records_texts(draw):
    """A records file's text, valid or broken in one way."""
    rows = []
    for rid in range(draw(st.integers(0, 3))):
        shared = {name: draw(st.sampled_from(RECORD_VALUES[name][0])) for name in INSTANCE_FIELDS}
        for tag in draw(st.lists(st.sampled_from([a.value for a in Ansatz]), unique=True)):
            row = {name: draw(st.sampled_from(valid)) for name, (valid, _) in RECORD_VALUES.items()}
            row.update(shared, instance_id=str(rid), ansatz=tag)
            if row["excluded"] == "true" and draw(st.booleans()):
                row["P_s"] = ""  # a drive excluded on a singular gauge
            rows.append(row)
    flaw = draw(st.sampled_from(["none", "invalid", "repeated", "count", "header", "truncated"]))
    if rows and flaw == "invalid":
        name = draw(st.sampled_from(sorted(RECORD_VALUES)))
        draw(st.sampled_from(rows))[name] = draw(st.sampled_from(RECORD_VALUES[name][1]))
    lines = [",".join(row.values()) for row in rows]
    if lines and flaw == "repeated":
        lines.append(draw(st.sampled_from(lines)))
    elif lines and flaw == "count":
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k].rsplit(",", 1)[0] if draw(st.booleans()) else lines[k] + ",0.0"
    header = harness._CSV_HEADER if flaw != "header" else harness._CSV_HEADER.replace("P_s", "Ps")
    text = "\n".join(["# config_hash=0123456789abcdef", header, *lines]) + "\n"
    if flaw == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=150, deadline=None)
@given(records_texts())
def test_records_files_break_no_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        records, out = Path(tmp) / "records.csv", Path(tmp) / "summary"
        records.write_text(text)
        code, _ = run_quietly("report", "--records", str(records), "--out-dir", str(out))
        assert code in EXIT_CODES, code
        assert (code == 0) == out.exists(), code
        if code == 0:
            assert_finite_numbers(out)
