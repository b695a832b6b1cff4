"""One vocabulary for value constraints. A parser takes a value, or its text
from a scene or config file, and returns it converted or raises ValueError
saying what the value must be. Each parameter field, scalar or vector, declares
its parser once, with `param`; `validate`, the scene decoder and
`config.REGISTRY` read it."""

from __future__ import annotations

import operator
from dataclasses import MISSING, field, fields

import numpy as np


def finite_float(value) -> float:
    try:
        if isinstance(value, bool):  # float(True) is 1.0
            raise ValueError
        x = float(value)
    except ValueError:  # a bool, or text that spells no number
        raise ValueError(f"must be a number, got {value!r}") from None
    if not np.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def integer(value) -> int:
    """An int, or its decimal text from a file; 7.9, '7.9' and True are not integers."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer, str)):
            raise ValueError
        return int(value)
    except ValueError:
        raise ValueError(f"must be an integer, got {value!r}") from None


def vec(n: int):
    """A parser of exactly `n` finite floats, from a list or space-separated text."""
    def parse(value) -> np.ndarray:
        v = np.array([finite_float(x) for x in (value.split() if isinstance(value, str) else value)])
        if v.shape != (n,):
            raise ValueError(f"must be {n} values, got {v.size}")
        return v
    return parse


def one_of(*options):
    def parse(value):  # 1.0 and True are not 1
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValueError(f"must be one of {options}, got {value!r}")
        return value
    return parse


_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def bound(parse, op: str, limit):
    """`parse`, then require `x op limit` of every entry x, op one of > >= <=."""
    compare = _COMPARE[op]

    def within(value):
        x = parse(value)
        if not np.all(compare(x, limit)):
            raise ValueError(f"must be {op} {limit}, got {x!r}")
        return x
    return within


positive = bound(finite_float, ">", 0.0)
non_negative = bound(finite_float, ">=", 0.0)
count = bound(integer, ">=", 0)
positive_int = bound(integer, ">=", 1)


def param(default=MISSING, parse=None, *, factory=MISSING):
    """A dataclass field whose parser is `parse` and whose default is `default`,
    or `factory()`, or that has none."""
    return field(default=default, default_factory=factory, metadata={"parse": parse})


def parsers(cls) -> dict:
    """{name: parser} of each field of the dataclass (or instance) `cls` that declares one."""
    return {f.name: f.metadata["parse"] for f in fields(cls) if "parse" in f.metadata}


def check(name: str, value, parse):
    """parse(value), raising ValueError that starts with `name`. Text is refused:
    only the file readers parse text, before any object holds it."""
    try:
        if isinstance(value, str):
            raise ValueError(f"must not be text, got {value!r}")
        return parse(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} {exc}") from None


def validate(obj, prefix: str = "") -> None:
    """`check` each declared field of the dataclass instance `obj`, named `prefix` + its name."""
    for name, parse in parsers(obj).items():
        check(prefix + name, getattr(obj, name), parse)
