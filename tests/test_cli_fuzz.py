"""The CLI contract on odd inputs: every run answers with JSON or exits with a documented code.

Each of twelve numeric fields of builtin wheel3 takes each of eighteen
fixed values, one field at a time, and every command below runs on each
document in process with warnings raised as errors. A run must exit 0, 2,
3 or 4, and a run that exits 0 must print JSON that parses and holds no
NaN or Infinity.
"""

import json
import warnings
from importlib import resources

import pytest

from gridcap.cli import main

# (path into the document, name in test ids)
FIELDS = [
    (("nodes", 1, "gamma"), "gamma"),
    (("nodes", 1, "vol"), "vol"),
    (("nodes", 1, "mean"), "mean2"),
    (("nodes", 2, "mean"), "mean3"),
    (("lines", 0, "susceptance"), "susceptance0"),
    (("lines", 0, "rating"), "rating0"),
    (("lines", 0, "tau"), "tau0"),
    (("lines", 2, "susceptance"), "susceptance2"),
    (("defaults", "epsilon"), "epsilon"),
    (("defaults", "p"), "p"),
    (("defaults", "horizon"), "horizon"),
    (("defaults", "tau0"), "default_tau0"),
]

# JSON number literals: zeros of both signs, subnormals, the extremes of the
# float range, an integer past int64 and a literal that overflows to inf
VALUES = ["0", "-0.0", "5e-324", "-5e-324", "1e-310", "1e-300", "1e-17", "1e-8", "0.5", "1", "1.5", "-1", "1e8",
          "1e17", "1e300", "1.797e308", str(2**63), "1e400"]

BOX = "--bbox=-2,2,-2,2"
COMMANDS = {
    "rates": ["rates"],
    **{f"region_{kind}": ["region", "--kind", kind]
       for kind in ("deterministic", "current", "temperature_lb", "temperature_taylor")},
    "slice_current": ["region", "--kind", "current", "--slice", "2,3", BOX],
    "slice_temperature_lb": ["region", "--kind", "temperature_lb", "--slice", "3,2", BOX],
    "partition": ["region", "--kind", "current", "--slice", "2,3", BOX, "--partition", "--resolution", "20"],
    "mc_current": ["mc", "--kind", "current", "--n", "50", "--steps", "20"],
    "mc_temperature": ["mc", "--kind", "temperature", "--n", "50", "--steps", "20"],
}

PLACEHOLDER = "9.87654321e-99"


def _document_text(path, literal):
    """wheel3 as JSON text with the field at `path` written as the number literal `literal`."""
    doc = json.loads(resources.files("gridcap").joinpath("data", "wheel3.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = float(PLACEHOLDER)
    text = json.dumps(doc)
    assert text.count(PLACEHOLDER) == 1
    return text.replace(PLACEHOLDER, literal)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """(field name, literal, path of the edited document) for every field and value."""
    root = tmp_path_factory.mktemp("fuzz")
    out = []
    for path, name in FIELDS:
        for k, literal in enumerate(VALUES):
            target = root / f"{name}-{k}.json"
            target.write_text(_document_text(path, literal))
            out.append((name, literal, str(target)))
    return out


def _refuse_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


@pytest.mark.parametrize("command", COMMANDS.values(), ids=COMMANDS.keys())
def test_every_odd_input_answers_or_exits_documented(capsys, documents, command):
    failures = []
    for name, literal, path in documents:
        argv = [command[0], path, *command[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except Exception as exc:  # any escape, a warning raised as an error too, breaks the contract
                code = f"{type(exc).__name__}: {exc}"
        out, _ = capsys.readouterr()
        if code == 0:
            try:
                json.loads(out, parse_constant=_refuse_constant)
            except ValueError as exc:
                failures.append((name, literal, f"exit 0 with bad JSON: {exc}"))
        elif code not in (2, 3, 4):
            failures.append((name, literal, code))
    assert failures == []
