"""Reading the package's YAML and CSV files.

A file that does not parse raises ``ContractViolation`` naming it, so
the CLI reports a malformed input instead of a parser's exception; so
does a mapping with a key its reader does not know (``check_keys``).
"""

from __future__ import annotations

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


def check_keys(data, known, kind: str, path: tuple = ()) -> None:
    """Raise a ``ContractViolation`` unless ``data`` is a mapping whose keys are all in
    ``known``; the message names the ``kind`` of file and the dotted key ``path``."""
    if not isinstance(data, dict):
        raise ContractViolation(f"{kind} {'.'.join(map(str, path)) or 'file'} must be a mapping, got {type(data).__name__}")
    for key in data:
        if key not in known:
            # A misspelled key would otherwise fall back to its default silently.
            raise ContractViolation(f"unknown {kind} key {'.'.join(map(str, (*path, key)))!r}")


def read_yaml(path):
    """Contents of a YAML file: a ``Path`` or a packaged resource."""
    try:
        with path.open() as stream:  # the parser's messages name the stream
            return yaml.load(stream, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ContractViolation(f"{path} is not valid YAML: {exc}") from None


def float_rows(path: str | Path) -> tuple[list[str], np.ndarray]:
    """A CSV file's leading ``#`` comment lines, without the ``#``, and its
    non-blank lines after its header as floats, one column per header field."""
    lines = Path(path).read_text().splitlines()
    first = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    if first == len(lines):
        raise ContractViolation(f"{path} has no header line")
    width = len(lines[first].split(","))
    rows = []
    for number, line in enumerate(lines[first + 1 :], start=first + 2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ContractViolation(f"{path}, line {number}: {len(cells)} fields, header {width}")
        try:
            rows.append([float(v) for v in cells])
        except ValueError as exc:
            raise ContractViolation(f"{path}, line {number}: {exc}") from None
    return [line[1:].strip() for line in lines[:first]], np.array(rows, dtype=float).reshape(len(rows), width)
