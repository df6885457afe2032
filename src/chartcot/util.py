"""Small shared helpers: seeded RNG derivation, rounding, JSON and file I/O."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import random
import reprlib
import sys
import typing
from pathlib import Path
from typing import Any, Callable

from .errors import ChartCotError, InputError


def rng_for(*parts: Any) -> random.Random:
    """Derive an independent RNG from a tuple of key parts.

    Every random draw in the package is keyed this way (never taken from a
    shared sequential stream), so outputs are identical across worker counts
    and across resumed runs.
    """
    import hashlib  # loaded on the first draw, not by config loading

    tag = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def round_half_up(value: float, decimals: int = 0) -> float:
    """Round half away from zero (Python's round() is banker's)."""
    factor = 10.0 ** decimals
    scaled = value * factor
    if scaled >= 0:
        result = math.floor(scaled + 0.5)
    else:
        result = math.ceil(scaled - 0.5)
    return result / factor


def largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Apportion `total` units among weights, quotas exact to +-1 unit."""
    s = float(sum(weights))
    if not 0 < s < math.inf:
        raise ValueError(f"weights must have a finite sum > 0, not {s!r}")
    quotas = [w / s * total for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    remainder = total - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (quotas[i] - counts[i], -i), reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def canonical_json(obj: Any) -> str:
    """Single-line JSON with sorted keys; the stable on-disk record form."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dumps_pretty(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


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


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text as ``atomic_write_bytes`` does."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes | memoryview) -> None:
    """Write any bytes-like ``data`` via temp file + rename so readers never
    see a partial file. A write that fails removes its temp file and raises
    its own error."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:  # the parent directory is made only when missing
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the write's own error is the one to report
            tmp.unlink()
        raise


def read_buffer(path: str | Path) -> bytearray:
    """A file's bytes in a writable buffer sized from its stat and filled by one read."""
    with Path(path).open("rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        del buf[f.readinto(buf):]  # the file may have shrunk since the stat
    return buf


# json.loads wraps this in type, BOM and whitespace checks that a stripped
# str line does not need; read_jsonl calls it directly.
_raw_decode = json.JSONDecoder().raw_decode


def read_jsonl(path: str | Path, parse: Callable[[Any], Any] | None = None) -> list:
    """Records of a JSONL file, each passed through ``parse`` as its line is
    read when one is given; blank lines are skipped. Only what ``parse``
    returns is kept, so the decoded dicts do not pile up.

    A line that is not UTF-8 JSON (one value and nothing after it) raises
    InputError naming ``path:line``, and so does a record that ``parse``
    rejects (``_raise_bad_line`` gives the reasons). The file is searched for
    that line only after a failure, so reading a good file does no extra work
    per line.
    """
    records = []
    append = records.append
    try:
        with Path(path).open("r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    record, end = _raw_decode(line)
                    if end != len(line):
                        raise ValueError("extra data after the record")
                    append(record if parse is None else parse(record))
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError, ChartCotError):
        # ValueError: json.JSONDecodeError, UnicodeDecodeError or extra data;
        # RecursionError: nesting too deep to decode; the others can only come from parse.
        _raise_bad_line(path, parse)
        raise
    return records


def _raise_bad_line(path: str | Path, parse: Callable[[Any], Any] | None) -> None:
    """InputError naming the first line of ``path`` that is not UTF-8 JSON,
    or else the first record ``parse`` rejects: with KeyError (a missing
    field), TypeError or AttributeError (not a JSON object) or a
    ChartCotError (its message). Returns when no line fails."""
    rejected = None
    for lineno, line in jsonl_lines(path):
        try:
            line.encode("utf-8")  # lone surrogates stand for bytes that are not UTF-8
            record = json.loads(line)
        except UnicodeEncodeError:
            raise InputError(f"{path}:{lineno}: not UTF-8 text") from None
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if rejected is None and parse is not None:
            try:
                parse(record)
            except KeyError as exc:
                rejected = f"{path}:{lineno}: record has no {exc} field"
            except (TypeError, AttributeError):
                rejected = f"{path}:{lineno}: record is not a JSON object"
            except ChartCotError as exc:
                rejected = f"{path}:{lineno}: {exc}"
    if rejected is not None:
        raise InputError(rejected) from None


def jsonl_lines(path: str | Path):
    """Yield (line number, stripped text) for each non-blank line, split as
    ``read_jsonl`` splits them: the k-th pair holds the k-th record. Bytes
    that are not UTF-8 come through as lone surrogates."""
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if line:
                yield lineno, line
