"""Typed readers for the package's input files.

A reader takes a decoded JSON value and ``where``, its JSON path (``scenario.nodes[3].id``),
and returns the value or raises ``ParseError("<where>: must be <kind>, got <value>")``. It
never coerces: ``true`` is not a number, and neither ``"7"`` nor ``1.5`` is an integer.
"""
from __future__ import annotations

import csv
import json
import math
import re
import reprlib
import sys
from dataclasses import MISSING

from .errors import ParameterError, ParseError

_FLOAT_MAX = sys.float_info.max
_INT_KEY = re.compile(r"-?(0|[1-9][0-9]*)")


def read_json(path):
    """Decode a UTF-8 JSON file; a syntax error names its line and column."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8: {exc.reason}") from exc


def write_json(data, path, **dump_kwargs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, **dump_kwargs)
        f.write("\n")


def read_csv(path, columns) -> list[dict]:
    """The rows of a CSV file whose header names all of columns."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        rows = list(reader)
    if missing:
        raise ParseError(f"{path}: missing column {missing[0]!r}")
    if any(None in row.values() for row in rows):
        raise ParseError(f"{path}: a row has fewer fields than the header")
    return rows


def _fail(where: str, kind: str, value):
    raise ParseError(f"{where}: must be {kind}, got {reprlib.repr(value)}")


def _reader(kind: str, test, convert=None):
    def read(value, where: str):
        if not test(value):
            _fail(where, kind, value)
        return value if convert is None else convert(value)
    return read


def _numeric(value) -> bool:
    # bool is an int, and an int beyond the float range would overflow float()
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, float) or abs(value) <= _FLOAT_MAX))


integer = _reader("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
boolean = _reader("true or false", lambda v: isinstance(v, bool))
string = _reader("a string", lambda v: isinstance(v, str))
number = _reader("a number", _numeric, float)  # NaN and the infinities included
finite = _reader("a finite number", lambda v: _numeric(v) and math.isfinite(v), float)


def csv_number(path, index: int, row: dict, column: str) -> float:
    """The number, in any spelling float() takes, in column of the index-th data row
    (from 1) of the CSV file at path."""
    try:
        return float(row[column])
    except ValueError:
        _fail(f"{path}: row {index}, column '{column}'", "a number", row[column])


def obj(value, where: str, keys=None) -> dict:
    """A JSON object; given keys, one whose keys all lie in that set."""
    if not isinstance(value, dict):
        _fail(where, "an object", value)
    unknown = sorted(set(value) - set(keys)) if keys is not None else []
    if unknown:
        raise ParseError(f"{where}: unknown fields {unknown}")
    return value


def array(value, where: str, item=None, size=None) -> list:
    """A JSON list, of size elements if given, with its elements read by item if given."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        _fail(where, "a list" if size is None else f"a list of length {size}", value)
    return value if item is None else [item(v, f"{where}[{i}]") for i, v in enumerate(value)]


def get(data: dict, key: str, where: str, read, default=MISSING):
    """Field key of the object data at where, read by read, or else default."""
    if key not in data:
        if default is MISSING:
            raise ParseError(f"{where}: missing field '{key}'")
        return default
    return read(data[key], f"{where}.{key}")


def unpack(value, where: str, **readers) -> list:
    """The required fields of the object value that readers names, each read by its reader."""
    data = obj(value, where)
    return [get(data, key, where, read) for key, read in readers.items()]


def nullable(read):
    return lambda value, where: None if value is None else read(value, where)


def list_of(item, size=None):
    """Lists of elements read by item, of size elements if given (as points are)."""
    return lambda value, where: array(value, where, item, size)


def by_int_key(read):
    """Objects keyed by integers, such as job ids, as {int: value read by read}."""
    def read_object(value, where: str) -> dict:
        for key in obj(value, where):
            if not _INT_KEY.fullmatch(key):
                _fail(where, "an object with integer keys", key)
        return {int(key): read(v, f"{where}.{key}") for key, v in value.items()}
    return read_object


def record(cls, read, ints=(), check=lambda made: None):
    """Dataclass cls from objects of its fields: those in ints integers, the rest by read.
    Given check, the record must also pass it: its ParameterError becomes a ParseError."""
    def read_record(value, where: str):
        data = obj(value, where, cls.__dataclass_fields__)
        made = cls(**{name: get(data, name, where, integer if name in ints else read, f.default)
                      for name, f in cls.__dataclass_fields__.items()})
        try:
            check(made)
        except ParameterError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        return made
    return read_record
