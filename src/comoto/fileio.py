"""Reading the package's YAML and CSV files.

A file that does not parse raises ``ContractViolation`` naming it, so
the CLI reports a malformed input instead of a parser's exception; so
does a mapping with a key its reader does not know, or without one its
reader needs (``check_keys``).
"""

from __future__ import annotations

from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ContractViolation

# libyaml's parser, where installed, reads the commented config 8x faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def data_file(name: str):
    """The packaged file ``data/<name>`` of the package this module belongs to."""
    return resources.files(__package__).joinpath("data").joinpath(name)


def _dotted(path: tuple) -> str:
    return ".".join(map(str, path))


def check_keys(data, known, kind: str, path: tuple = (), required: bool = False) -> None:
    """Raise a ``ContractViolation`` unless ``data`` is a mapping whose keys are all in
    ``known`` and, if ``required``, hold all of ``known``; the message names the
    ``kind`` of file and the dotted key ``path``."""
    if not isinstance(data, dict):
        raise ContractViolation(f"{kind} {_dotted(path) or 'file'} must be a mapping, got {type(data).__name__}")
    for key in data:
        if key not in known:
            # A misspelled key would otherwise fall back to its default silently.
            raise ContractViolation(f"unknown {kind} key {_dotted((*path, key))!r}")
    missing = [repr(_dotted((*path, key))) for key in known if required and key not in data]
    if missing:
        keys = "key" if len(missing) == 1 else "keys"
        raise ContractViolation(f"{kind} is missing {keys} {', '.join(missing)}")


def read_yaml(path):
    """Contents of a YAML file: a ``Path`` or a packaged resource."""
    try:
        with path.open() as stream:  # the parser's messages name the stream
            return yaml.load(stream, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ContractViolation(f"{path} is not valid YAML: {exc}") from None


def load_yaml(path, build):
    """``build`` of the contents of the YAML file at ``path`` (a ``Path`` or a packaged
    resource); a ``ContractViolation`` from ``build`` is raised again starting with the path."""
    data = read_yaml(path)
    with _named(path):
        return build(data)


def load_csv(path: str | Path, build):
    """``build(comments, rows)`` of ``float_rows(path)``; a ``ContractViolation`` from
    either is raised again starting with ``<path>: ``."""
    with _named(path):
        return build(*float_rows(path))


@contextmanager
def _named(path):
    """Raise a ``ContractViolation`` from the block again, starting with ``<path>: ``."""
    try:
        yield
    except ContractViolation as exc:
        raise ContractViolation(f"{path}: {exc}") from None


def float_rows(path: str | Path) -> tuple[list[str], np.ndarray]:
    """A CSV file's leading ``#`` comment lines, without the ``#``, and its
    non-blank lines after its header as floats, one column per header field."""
    lines = Path(path).read_text().splitlines()
    first = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    if first == len(lines):
        raise ContractViolation("no header line")
    width = len(lines[first].split(","))
    rows = []
    for number, line in enumerate(lines[first + 1 :], start=first + 2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ContractViolation(f"line {number}: {len(cells)} fields, header {width}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ContractViolation(f"line {number}: {exc}") from None
    return [line[1:].strip() for line in lines[:first]], np.array(rows, dtype=float).reshape(len(rows), width)
