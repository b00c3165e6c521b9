"""The one loader of the JSON documents floerloops reads.

A reader declares the shape of the fields it uses and calls `check` first:
a wrong kind or version, a missing field or a field of the wrong JSON type
raises `DocumentError` with the path of the first bad value, such as
`export_bundle.category.mu[3]: lacks inputs`, built only on failure.

A shape is a JSON type (`int` is never a bool); `[item]`, a list of items;
`{str: value}`, an object of values; `{name: shape, ...}`, an object with
these fields and maybe others ("name?" is optional); a `Document`; or a
function of the value raising `DocumentError(reason)`.
"""

from __future__ import annotations

import json
from typing import Any

SCHEMA_VERSION = 1
_TYPES = {int: "an integer", str: "a string", bool: "a boolean", list: "a list", dict: "an object"}


class DocumentError(ValueError):
    """An input file that is not JSON, or a document without its shape.  In
    a shape check its args are the reason, then the path, innermost first."""


def read(path: str) -> Any:
    """The JSON value in the UTF-8 file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits or too deep
        raise DocumentError(f"{path}: not a JSON document: {exc}") from exc


def check(doc: Any, document: Document, where: str | None = None) -> None:
    """Refuse `doc` unless it has the shape of `document`; `where` names it
    in the error and defaults to its kind."""
    try:
        document(doc)
    except DocumentError as exc:
        reason, *path = exc.args
        raise DocumentError(f"{where or document.kind}{''.join(path[::-1])}: {reason}") from None


def generator_id(value, depth: int = 0) -> None:
    """A string, an integer or a list of generator ids, at most 8 deep."""
    if type(value) is list and depth < 8:
        for part in value:
            if type(part) is not str and type(part) is not int:
                generator_id(part, depth + 1)
    elif type(value) is not str and type(value) is not int:
        raise DocumentError("not a generator id")


class Document:
    """The shape of a document of `kind` at the current schema version."""

    def __init__(self, kind: str, fields: dict):
        self.kind, self._fields = kind, _compile(fields)

    def __call__(self, value) -> None:
        if type(value) is not dict or value.get("kind") != self.kind:
            article = "an" if self.kind[0] in "aeiou" else "a"
            raise DocumentError(f"not {article} {self.kind} document")
        version = value.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise DocumentError(f"unsupported schema_version {version!r}")
        self._fields(value)


def _compile(shape):
    """A function of a value raising `DocumentError` unless it has `shape`."""
    if isinstance(shape, type):
        return _each(shape, None, None)
    if isinstance(shape, list):
        return _each(list, enumerate, _compile(shape[0]))
    if isinstance(shape, dict) and list(shape) == [str]:
        return _each(dict, dict.items, _compile(shape[str]))
    if isinstance(shape, dict):
        return _object(shape)
    return shape


def _each(kind: type, entries, item):
    """A value of JSON type `kind` whose `entries` (key, entry) have shape `item`."""
    reason = f"not {_TYPES[kind]}"

    def check_each(value):
        if type(value) is not kind:
            raise DocumentError(reason)
        for key, entry in entries(value) if item else ():
            try:
                item(entry)
            except DocumentError as exc:
                exc.args += (f"[{json.dumps(key)}]",)
                raise
    return check_each


def _object(shape: dict):
    fields = [(name.rstrip("?"), name.endswith("?"), _compile(sub))
              for name, sub in shape.items()]

    def check_object(value):
        if type(value) is not dict:
            raise DocumentError("not an object")
        for name, optional, sub in fields:
            if name in value:
                try:
                    sub(value[name])
                except DocumentError as exc:
                    exc.args += (f".{name}",)
                    raise
            elif not optional:
                raise DocumentError(f"lacks {name}")
    return check_object
