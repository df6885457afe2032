"""Small shared helpers: seeded RNG derivation, rounding, JSON and file I/O."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import typing
from pathlib import Path
from typing import Any, Callable

from .errors import ChartCotError, ConfigError, InputError


def rng_for(*parts: Any) -> random.Random:
    """Derive an independent RNG from a tuple of key parts.

    Every random draw in the package is keyed this way (never taken from a
    shared sequential stream), so outputs are identical across worker counts
    and across resumed runs.
    """
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
    if s <= 0:
        raise ValueError("weights must sum to a positive value")
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


def known_fields(cls: type, obj: dict, what: str) -> dict:
    """``obj`` as keyword arguments for the dataclass ``cls``; a key that is
    not one of its fields raises ConfigError("unknown <what> keys: [...]")."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, not {type(obj).__name__}")
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(obj)


def is_number(value: Any) -> bool:
    """An int or float as JSON reads them; JSON true/false are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "a JSON object", type(None): "null"}
_type_hints = functools.cache(typing.get_type_hints)  # resolves string annotations once per class


def check_field_types(obj: Any, what: str) -> None:
    """ConfigError naming the first field of the dataclass instance ``obj``
    whose value its annotation does not admit; an int passes for a float."""
    for name, hint in _type_hints(type(obj)).items():
        admitted = typing.get_args(hint) or (hint,)  # Optional[X] admits X and None
        value = getattr(obj, name)
        if isinstance(value, bool) and bool not in admitted or not (
                isinstance(value, admitted) or float in admitted and is_number(value)):
            names = " or ".join(_JSON_NAMES.get(t, t.__name__) for t in admitted)
            raise ConfigError(f"{what} key {name!r} must be {names}, not {value!r}")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text as ``atomic_write_bytes`` does."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path: str | Path, data: bytes | memoryview) -> None:
    """Write any bytes-like ``data`` via temp file + rename so readers never
    see a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
    except FileNotFoundError:  # the parent directory is made only when missing
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
    os.replace(tmp, path)


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
