"""Typed reads of the JSON that comes from outside, with errors worded ``<where>: <problem>``.

``where`` names the source: a file line, a config path such as ``models[0].order``, or a field.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Iterator

_KIND_NAMES = {
    dict: "a JSON object", list: "a list", str: "a string",
    int: "an integer", float: "a number", bool: "a boolean",
}


def typed(value, kind: type, where: str):
    """``value`` if it has the JSON type ``kind``, else a ``ValueError`` naming ``where``.

    Only a ``bool`` field takes a bool; a ``float`` field takes any finite number.
    """
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"{where}: expected {_KIND_NAMES[kind]}, got {type(value).__name__}")
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return value


def required(obj: dict, name: str, where: str, kind: type | None = None):
    """``obj[name]``, checked to be a ``kind`` if given; its errors name ``where`` and the field."""
    if name not in obj:
        raise ValueError(f"{where}: missing field {name!r}")
    return obj[name] if kind is None else typed(obj[name], kind, f"{where}: field {name!r}")


def no_unknown_fields(obj: dict, names: Iterable[str], where: str) -> None:
    """A ``ValueError`` naming ``where`` and the keys of ``obj`` outside ``names``, if there are any."""
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")


def load_json(path: str):
    """The JSON value in the file at ``path``; bad or too deeply nested JSON is a ``ValueError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def jsonl_lines(path: str) -> Iterator[tuple[int, object]]:
    """The number and JSON value, or else the ``ValueError``, of each non-blank line of the JSONL file at ``path``.

    A line ends at ``\\n`` only (CRLF is accepted), and is decoded as UTF-8 and parsed on its own.
    """
    with open(path, "rb") as fh:
        lines = fh.read().replace(b"\r\n", b"\n").split(b"\n")
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                yield number, json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
                yield number, ValueError(exc)
