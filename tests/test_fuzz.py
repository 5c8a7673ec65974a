"""Hypothesis fuzz of the scenario loader and the CLI.

Each example mutates a shipped input: it drops keys or entries, or replaces
a value with one of another JSON type or an out-of-range number. Every
mutated input must load, or be rejected with an obskit error; the CLI must
answer with exit code 0, 1 or 2 and never raise.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from obskit.ambiguity import DopplerAmbiguitySpec, generate_doppler_ambiguous
from obskit.cli import run_cli
from obskit.errors import ObskitError
from obskit.scenario_io import load_scenario, scenario_from_dict, write_trajectory_csv

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(SCENARIOS.glob("*.json"))]
DOPPLER_BASE = SCENARIOS / "doppler_pair_base.json"

NUMBERS = st.one_of(
    st.integers(-2001, 2001),
    st.sampled_from([10**15, -10**15, 10**400, -10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
)
VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), NUMBERS,
    st.lists(NUMBERS, max_size=3), st.dictionaries(st.text(max_size=6), NUMBERS, max_size=2),
)


def _paths(value, path=()):
    """Paths to every value nested in ``value``, the root's own path () first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with 1-3 values dropped or replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        drop = draw(st.booleans())
        if not path:
            doc = {} if drop else draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return doc


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(argv)


@given(mutated_scenarios())
def test_loader_raises_only_obskit_errors(doc):
    try:
        scenario_from_dict(doc)
    except ObskitError:
        pass


@given(mutated_scenarios())
def test_observability_cli_exits_with_a_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _run_cli(["observability", str(path)]) in (0, 1, 2)


def _candidate_rows() -> list[str]:
    """Rows of a Doppler counterpart of the shipped base target, header first."""
    scenario = load_scenario(DOPPLER_BASE)
    spec = DopplerAmbiguitySpec(l_prime=1.0, b_prime=100.0, rotation=0.05)
    generated = generate_doppler_ambiguous(
        scenario.targets[0].trajectory, scenario.observer, spec, scenario.grid())
    out = io.StringIO()
    write_trajectory_csv(generated, out)
    return out.getvalue().splitlines()


CANDIDATE = _candidate_rows()
FIELDS = st.one_of(
    st.text(max_size=8), NUMBERS.map(repr), st.sampled_from(["nan", "inf", "-inf", "1e400"]),
)


@given(st.integers(0, len(CANDIDATE) - 1), st.integers(0, 3), FIELDS,
       st.sampled_from(["doppler", "bearing", "combined"]))
def test_verify_cli_exits_with_a_code_on_a_mutated_csv_row(row, column, text, regime):
    lines = list(CANDIDATE)
    fields = lines[row].split(",")
    if column < len(fields):
        fields[column] = text
    else:
        fields.append(text)
    lines[row] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "candidate.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["ambiguity", "verify", str(DOPPLER_BASE), str(path), "--regime", regime]
        assert _run_cli(argv) in (0, 1, 2)
