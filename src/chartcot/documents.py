"""The one reader of the JSON documents the package loads: specs, CoTs,
manifests and configs. Kept apart from ``util``, so that loading a config
imports neither ``json`` nor the file helpers."""

from __future__ import annotations

import dataclasses
import functools
import reprlib
import sys
import typing
from typing import Any, Callable

from .errors import ChartCotError


_SHAPES = {str: "a string", int: "an integer", float: "a number", bool: "true or false", dict: "an object", list: "a list"}


class _Fault(Exception):
    """A value that its annotation does not admit, as text; each holder of it puts its key in front of ``path``."""

    def __init__(self, shape: str, value: str):
        self.shape, self.value, self.path = shape, value, ""


def read_document(cls: type, obj: Any, error: type[ChartCotError], root: str, partial: bool = False) -> Any:
    """The dataclass or TypedDict ``cls`` read from the decoded JSON document ``obj``.

    Keys are exact: an unknown or missing key is a fault, but with ``partial`` a
    field that has a default may be left out. A value must be what its annotation
    names: str, int (no bool), float (or an int a float can hold, kept as it is),
    bool, dict, list, Optional, ``list[X]``, ``tuple[X, ...]``, ``tuple[X, Y]``,
    ``dict[str, X]``, or a dataclass or TypedDict. A class whose JSON is no object
    names its ``JSON_SHAPE`` and is read by its own ``from_json``. A fault raises
    ``error("<path> must be <shape>, not <value>")``, the path starting at ``root``.
    """
    try:
        return _reader(cls, partial)[0](obj)
    except _Fault as fault:
        raise error(f"{root}{fault.path} must be {fault.shape}, not {fault.value}") from None


@functools.cache
def _reader(hint: Any, partial: bool) -> tuple[Callable[[Any], Any], str]:
    """A function that reads one JSON value as ``hint``, and the shape it admits."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]: a fault names X alone
        read_value, shape = _reader(args[0], partial)
        return (lambda v: None if v is None else read_value(v)), shape
    if hint in _SHAPES:
        def read_scalar(v):
            if type(v) is hint or hint is float and type(v) is int and abs(v) <= sys.float_info.max:
                return v
            raise _Fault(_SHAPES[hint], reprlib.repr(v))
        return read_scalar, _SHAPES[hint]
    if origin in (list, tuple, dict):
        fixed = origin is tuple and args[-1] is not Ellipsis
        readers = [_reader(a, partial)[0] for a in args] if fixed else None
        read_item, item_shape = _reader(args[-1] if origin is dict else args[0], partial)
        shape = ("an object" if origin is dict else f"a list of length {len(args)}" if fixed
                 else f"a list of {item_shape.split(' ', 1)[1]}s")  # "a string" -> "a list of strings"
        kind = dict if origin is dict else list

        def read_items(v):
            if type(v) is not kind or fixed and len(v) != len(args):
                raise _Fault(shape, reprlib.repr(v))
            items, key = [], None
            try:
                if kind is dict:
                    return {(key := k): read_item(x) for k, x in v.items()}
                # extend keeps the items read before a fault, so their count is its index
                items.extend(map(read_item, v) if readers is None else map(lambda f, x: f(x), readers, v))
            except _Fault as fault:
                fault.path = f"[{key if kind is dict else len(items)!r}]{fault.path}"
                raise
            return items if origin is list else tuple(items)
        return read_items, shape
    if hasattr(hint, "JSON_SHAPE"):
        return hint.from_json, hint.JSON_SHAPE
    hints = typing.get_type_hints(hint)
    fields = [(name, *_reader(field_hint, partial)) for name, field_hint in hints.items()]
    required = hint.__required_keys__ if typing.is_typeddict(hint) else {
        f.name for f in dataclasses.fields(hint) if not partial or f.default is f.default_factory is dataclasses.MISSING}

    def read_object(v):
        if type(v) is not dict:
            raise _Fault("an object", reprlib.repr(v))
        kwargs, name = {}, None
        try:
            for name, read_field, shape in fields:
                if name in v:
                    kwargs[name] = read_field(v[name])
                elif name in required:
                    raise _Fault(shape, "missing")
            if len(kwargs) != len(v):
                name = next(k for k in v if k not in hints)
                raise _Fault("absent", reprlib.repr(v[name]))
        except _Fault as fault:
            fault.path = f".{name}{fault.path}"
            raise
        return hint(**kwargs)
    return read_object, "an object"
