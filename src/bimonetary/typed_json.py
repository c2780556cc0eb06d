"""Typed reader for the JSON input files: config, scenarios, coefficients,
diagram and functor.

A dataclass states the accepted keys, their types and defaults once;
:func:`parse` reads a JSON object into it by walking its annotations. An
unknown key, a missing required key, a wrong JSON type or a value that the
dataclass's ``__post_init__`` rejects with a ``ValueError`` or an
``InputError`` is one :class:`InputError` naming the key path
(``scenarios[0].shocks[1].window``). :func:`dump` is its inverse.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from datetime import date as Date

from .errors import InputError
from .panel import parse_iso_date

_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


@dataclasses.dataclass(frozen=True)
class _NonFinite:
    """A ``NaN``, ``Infinity``, ``-Infinity`` or overflowing number (``1e400``)
    in a JSON file, which RFC 8259 has no number for: no type that
    :func:`parse` reads accepts it, so parse rejects it with its key path."""

    text: str

    def __repr__(self) -> str:
        return self.text


def _number(text: str) -> float | _NonFinite:
    value = float(text)
    return value if math.isfinite(value) else _NonFinite(text)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_NonFinite, parse_float=_number)
        except RecursionError:
            raise InputError(f"{path}: nested deeper than the JSON reader goes") from None


def reject_repeats(key: str, names) -> None:
    """For a dataclass's ``__post_init__``: a ``ValueError`` when the name
    list ``key`` holds some name twice."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{key} lists {name!r} twice")
        seen.add(name)


def reject_reversed(key: str, window) -> None:
    """For a dataclass's ``__post_init__``: a ``ValueError`` when the
    ``(start, end)`` date window ``key`` starts after it ends."""
    start, end = window
    if start is not None and end is not None and start > end:
        raise ValueError(f"{key} must not start after it ends: {start} > {end}")


def tag(cls) -> str:
    """The ``"type"`` of a dataclass in a tagged union: its name in snake
    case, without a leading underscore (``ScaleBySeries`` -> ``scale_by_series``)."""
    name = "".join("_" + c.lower() if c.isupper() else c for c in cls.__name__)
    return name.lstrip("_")


def _wrong(where: str, kind: str, doc) -> InputError:
    return InputError(f"{where} must be {kind}: {doc!r}")


def parse(tp, doc, where: str):
    """``doc`` as a value of type ``tp``: ``bool``, ``int`` (not a bool),
    ``float`` (an int is accepted), ``str``, ``date`` (exactly ``YYYY-MM-DD``),
    ``X | None``, ``tuple[X, ...]`` or ``tuple[X, Y]`` (a list),
    ``dict[str, X]`` (an object), a dataclass (an object; fields with a
    default may be left out, and a field ``from_`` reads the key ``from``),
    or a union of dataclasses (an object whose ``"type"`` is the
    :func:`tag` of one of them)."""
    if dataclasses.is_dataclass(tp):
        return _parse_object(tp, doc, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        if doc is None and type(None) in args:
            return None
        members = [a for a in args if a is not type(None)]
        if len(members) == 1:
            return parse(members[0], doc, where)
        if not isinstance(doc, dict):
            raise _wrong(where, "an object", doc)
        for cls in members:
            if tag(cls) == doc.get("type"):
                fields = {key: v for key, v in doc.items() if key != "type"}
                return _parse_object(cls, fields, where)
        tags = "|".join(map(tag, members))
        raise _wrong(f"{where}.type", f"one of {tags}", doc.get("type"))
    if origin is dict:
        if not isinstance(doc, dict):
            raise _wrong(where, "an object", doc)
        return {key: parse(args[1], v, f"{where}[{key!r}]") for key, v in doc.items()}
    if origin is tuple:
        if not isinstance(doc, list):
            raise _wrong(where, "a list", doc)
        if args[1:] == (...,):
            args = (args[0],) * len(doc)
        elif len(doc) != len(args):
            raise _wrong(where, f"a list of {len(args)} elements", doc)
        return tuple(
            parse(arg, item, f"{where}[{i}]")
            for i, (arg, item) in enumerate(zip(args, doc))
        )
    if tp is Date:
        if isinstance(doc, str):
            try:
                return parse_iso_date(doc)
            except ValueError:
                pass
        raise _wrong(where, "an ISO date string", doc)
    if tp is float and type(doc) is int:
        try:
            return float(doc)
        except OverflowError:  # an integer literal past the float range
            raise _wrong(where, "a number", doc) from None
    if type(doc) is not tp:
        raise _wrong(where, _KINDS[tp], doc)
    return doc


def dump(tp, value):
    """The document that :func:`parse` reads as ``value`` of type ``tp``, for
    the types of written documents: a dataclass, a union of dataclasses, a
    tuple, ``dict[str, X]`` and a scalar (written as it is)."""
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return {
            key.removesuffix("_"): dump(hints[key], getattr(value, key))
            for key in (spec.name for spec in dataclasses.fields(tp))
        }
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        return {"type": tag(type(value)), **dump(type(value), value)}
    if origin is dict:
        return {key: dump(args[1], v) for key, v in value.items()}
    if origin is tuple:
        args = args[:1] * len(value) if args[1:] == (...,) else args
        return [dump(arg, item) for arg, item in zip(args, value)]
    return value


def _parse_object(cls, doc, where: str):
    if not isinstance(doc, dict):
        raise _wrong(where, "an object", doc)
    hints = typing.get_type_hints(cls)
    # a field named for a Python keyword carries a trailing underscore
    fields = {spec.name.removesuffix("_"): spec for spec in dataclasses.fields(cls)}
    for key in doc:
        if key not in fields:
            raise InputError(f"{where}.{key}: unknown key")
    kwargs = {}
    for key, spec in fields.items():
        if key in doc:
            kwargs[spec.name] = parse(hints[spec.name], doc[key], f"{where}.{key}")
        elif (
            spec.default is dataclasses.MISSING
            and spec.default_factory is dataclasses.MISSING
        ):
            raise InputError(f"{where}.{key}: missing key")
    try:
        return cls(**kwargs)
    except (ValueError, InputError) as error:  # a check in the __post_init__
        raise InputError(f"{where}: {error}") from None
