"""Domain types, dataset container, CSV ingestion/export and deterministic splits.

A Dataset is immutable after construction; all operations here either build a
new Dataset or read one. The CSV schema (header required, comma-separated,
UTF-8) is:

    id,ch1_mv,ch2_mv,ch3_mv,capillary_mgdl,serum_mgdl,mode,sex,age,split

capillary_mgdl / serum_mgdl / age may be empty; mode is one of
{fasting, postprandial, random} or empty; sex is one of
{male, female, unspecified} or empty (read as "unspecified");
split is one of {calibration, validation, testing} or empty.
Voltages are decimal millivolts.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import chain
from types import NoneType, UnionType
from typing import Annotated, Callable, get_args, get_origin, get_type_hints

import numpy as np

from .errors import DataError

GLUCOSE_KINDS = ("capillary", "serum")
MODES = ("fasting", "postprandial", "random")
SEXES = ("male", "female", "unspecified")
SPLITS = ("calibration", "validation", "testing")

CSV_HEADER = (
    "id", "ch1_mv", "ch2_mv", "ch3_mv", "capillary_mgdl", "serum_mgdl",
    "mode", "sex", "age", "split",
)

# a leaf type -> the types its values take in a field or in JSON, its name, its plural
_LEAVES = {float: ({float, int, np.float64}, "a number", "numbers"),
           int: ({int}, "an integer", "integers"), str: ({str}, "a string", "strings"),
           NoneType: ({NoneType}, "null", "nulls"), dict: ({dict}, "an object", "objects")}


@dataclass(frozen=True)
class Rule:
    """What a field's value must be beyond its type, declared on the field as
    Annotated[type, Rule(...)]; on a tuple field it holds for each item. says,
    if given, is the refusal, formatted with {name} and {v}, the value."""

    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    choices: tuple | None = None
    pattern: str | None = None  # the whole string must match
    nonempty: bool = False
    says: str | None = None


@functools.cache
def _compile(cls) -> Callable:
    """cls's check, written from the rules on its leaf fields (a float, int,
    str or object, maybe None, or a flat tuple of one) as one function, as
    dataclasses writes __init__: straight code costs a reading less than a
    loop over rules. A float lies within +-sys.float_info.max, which NaN,
    the infinities and ints beyond float range all fail."""
    hints = get_type_hints(cls, include_extras=True)
    lines, scope = ["def check(obj):", "    pass"], {"refuse": _refuse}
    for f in fields(cls):
        hint, *rules = get_args(h) if get_origin(h := hints[f.name]) is Annotated else (h,)
        many = get_origin(hint) is tuple
        item = get_args(hint)[0] if many else hint
        kinds = set(get_args(item)) if isinstance(item, UnionType) else {item}
        if not kinds <= _LEAVES.keys():
            continue  # a nested dataclass checks itself; nested tuples are checked by hand
        (leaf,), nullable = kinds - {NoneType}, NoneType in kinds
        for r in rules or [Rule()]:
            i, edge = len(scope), sys.float_info.max if leaf is float else math.inf
            lo = (-edge if r.ge is None else r.ge) if r.gt is None else \
                math.nextafter(r.gt, math.inf)  # v > gt, for an int too
            asks = [f"{op} {x}" for op, x in (
                (">=", r.ge), (">", r.gt), ("<=", r.le), ("one of", r.choices),
                ("a match of", r.pattern)) if x is not None] + ["non-empty"] * r.nonempty
            asks[:2] = [f"in [{r.ge}, {r.le}]"] if None not in (r.ge, r.le) else asks[:2]
            asks = " and ".join(asks) or "a tuple of " * many + _LEAVES[leaf][1 + many]
            asks = asks.replace("number", "finite number").replace("{", "{{").replace("}", "}}")
            says = r.says or f"{{name}} must be {asks}{' or None' * nullable}, got {{v}}"
            hi = edge if r.le is None else r.le
            scope.update({f"t{i}": _LEAVES[leaf][0], f"lo{i}": lo, f"hi{i}": hi,
                          f"c{i}": r.choices and frozenset(r.choices),
                          f"m{i}": r.pattern and re.compile(r.pattern).fullmatch,
                          f"s{i}": functools.partial(says.format, name=f.name)})
            ok = [f"type(v) in t{i}", f"lo{i} <= v <= hi{i}" * (leaf in (int, float)),
                  "v" * r.nonempty, f"v in c{i}" * bool(r.choices), f"m{i}(v)" * bool(r.pattern)]
            ok = "v is None or " * nullable + f"({' and '.join(filter(None, ok))})"
            get, tab = f"obj.{f.name}", "    " * many
            lines += [f"    if type({get}) is not tuple: refuse({get}, s{i})\n    for v in {get}:"
                      if many else f"    v = {get}"]
            lines += [f"    {tab}if not ({ok}):", f"    {tab}    refuse(v, s{i})"]
    exec("\n".join(lines), scope)
    return scope["check"]


def _refuse(v, says: Callable) -> None:
    """Raise says(v=...), v shown by repr, or by its size if an int of over 128 bits."""
    big = type(v) is int and v.bit_length() > 128
    raise DataError(says(v=f"an integer of {v.bit_length()} bits" if big else repr(v)))


class Checked:
    """Base of a dataclass whose declared field rules are checked on
    construction; the DataError names the first field that breaks one. A
    subclass with rules across fields extends __post_init__."""

    def __post_init__(self):
        _compile(type(self))(self)


# a reading's glucose kind, as every record and model document names it
GlucoseKind = Annotated[str, Rule(choices=GLUCOSE_KINDS,
                                  says=f"glucose_kind must be one of {GLUCOSE_KINDS}, got {{v}}")]
_Millivolts = Annotated[float, Rule(ge=0, says="{name} must be >= 0 mV, got {v}")]


@dataclass(frozen=True)
class ChannelVoltages(Checked):
    """Detector output voltages in millivolts, one per optical channel."""

    ch1_mv: _Millivolts
    ch2_mv: _Millivolts
    ch3_mv: _Millivolts

    def as_array(self) -> np.ndarray:
        return np.array([self.ch1_mv, self.ch2_mv, self.ch3_mv], dtype=float)

    def check_range(self, fsr_mv: float) -> None:
        """Raise DataError if any channel lies outside [0, fsr_mv]."""
        for name in ("ch1_mv", "ch2_mv", "ch3_mv"):
            v = getattr(self, name)
            if v < 0 or v > fsr_mv:
                raise DataError(
                    f"{name}={v} mV outside ADC full-scale range [0, {fsr_mv}]"
                )


@dataclass(frozen=True)
class GlucoseValue(Checked):
    """A reference or predicted glucose concentration in mg/dl."""

    value_mgdl: Annotated[float, Rule(gt=0, says="glucose value must be finite and > 0 mg/dl, "
                                                  "got {v}")]
    kind: GlucoseKind


@dataclass(frozen=True)
class Sample(Checked):
    """One measurement: channel voltages plus reference value(s) and demographics."""

    id: Annotated[str, Rule(nonempty=True, says="sample id must be a non-empty string")]
    voltages: ChannelVoltages
    capillary: GlucoseValue | None = None
    serum: GlucoseValue | None = None
    mode: Annotated[str | None, Rule(choices=MODES)] = None
    sex: Annotated[str, Rule(choices=SEXES)] = "unspecified"
    age_years: Annotated[int | None, Rule(
        ge=0, says="{name} must be a non-negative integer, got {v}")] = None

    def __post_init__(self):
        super().__post_init__()
        if self.id != self.id.strip():  # load_csv strips every cell
            raise DataError(f"sample id must not start or end with whitespace, got {self.id!r}")
        if self.capillary is not None and self.capillary.kind != "capillary":
            raise DataError(f"capillary reference has kind {self.capillary.kind!r}")
        if self.serum is not None and self.serum.kind != "serum":
            raise DataError(f"serum reference has kind {self.serum.kind!r}")

    def reference(self, kind: str) -> GlucoseValue | None:
        if kind not in GLUCOSE_KINDS:
            raise DataError(f"unknown glucose kind {kind!r}")
        return self.capillary if kind == "capillary" else self.serum

    def has_reference(self) -> bool:
        return self.capillary is not None or self.serum is not None


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of Samples plus an id -> split-label map."""

    samples: tuple[Sample, ...]
    split_labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise DataError(f"duplicate sample id {dup!r}")
        by_id = dict(zip(ids, self.samples))
        for sid, label in self.split_labels.items():
            s = by_id.get(sid)
            if s is None:
                raise DataError(f"split label refers to unknown sample id {sid!r}")
            if label not in SPLITS:
                raise DataError(f"invalid split label {label!r} for sample {sid!r}")
            if label in ("calibration", "validation") and not s.has_reference():
                raise DataError(
                    f"sample {sid!r} is labeled {label} but carries no reference glucose"
                )
            if label == "validation" and s.mode is None:
                raise DataError(f"validation sample {sid!r} has no measurement mode")

    def __len__(self) -> int:
        return len(self.samples)

    def split_of(self, sample_id: str) -> str | None:
        return self.split_labels.get(sample_id)

    def subset(self, split: str) -> "Dataset":
        """Samples carrying the given split label, in original order."""
        if split not in SPLITS:
            raise DataError(f"unknown split {split!r}")
        kept = tuple(s for s in self.samples if self.split_labels.get(s.id) == split)
        labels = {s.id: split for s in kept}
        return Dataset(kept, labels)

    def with_splits(self, labels: dict[str, str]) -> "Dataset":
        return Dataset(self.samples, dict(labels))


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at path, for json_reader to read; what
    names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as e:  # invalid JSON, invalid UTF-8, or too deep
        raise DataError(f"{what} {path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise DataError(f"{what} {path}: top level must be a JSON object")
    return doc


@functools.cache
def json_reader(hint, where: str) -> Callable:
    """The one reader from decoded JSON to a value typed hint, for model
    documents, configs and reports; where names the value in errors. A
    dataclass is an object: unknown keys are refused, and a missing key takes
    its field's default or, if it has none, is a KeyError naming where.key. A
    dict hint takes any object as it is. A tuple hint n deep is n levels of
    arrays. Each leaf has its hint's JSON type (true and "0.25" are not
    numbers), and a number reads as a float. Arrays are checked a level at a
    time at C speed, since every model load runs this. Anything else is a
    DataError."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        readers = {f.name: json_reader(hints[f.name], f"{where}.{f.name}") for f in fields(hint)}
        required = [f.name for f in fields(hint) if f.default is MISSING is f.default_factory]

        def read_object(v, **given):
            if type(v) is not dict:
                raise DataError(f"{where}: wants an object, got {v!r}")
            if v.keys() - readers:
                raise DataError(f"{where}: unknown keys {sorted(v.keys() - readers)}")
            if missing := [k for k in required if k not in v and k not in given]:
                raise KeyError(f"{where}.{missing[0]}")
            return hint(**{k: readers[k](x) for k, x in v.items()}, **given)
        return read_object
    depth = 0
    while get_origin(hint) is tuple:
        hint, depth = get_args(hint)[0], depth + 1
    leaves = [_LEAVES[t] for t in get_args(hint) or (hint,)]
    kinds = set().union(*(k for k, *_ in leaves))
    wants = ("an array of " * (depth > 0) + "arrays of " * (depth - 1)
             + " or ".join(names[depth > 0] for _, *names in leaves))
    # the value as is, or with its integers as floats; nested arrays become tuples
    same, to_float = (lambda v: v, float) if depth == 0 else (tuple, lambda r: tuple(map(float, r)))
    for _ in range(depth - 1):
        same, to_float = (lambda v, f=same: tuple(map(f, v))), (lambda v, f=to_float: tuple(map(f, v)))

    def read(v):
        arrays = [[v]]  # the arrays whose items are checked next
        for d in range(depth, -1, -1):  # each level of arrays, then the leaves
            want = {list} if d else kinds
            found = set(map(type, chain.from_iterable(arrays)))
            if not found <= want:
                bad = next(x for x in chain.from_iterable(arrays) if type(x) not in want)
                raise DataError(f"{where}: wants {wants}, got {bad!r}")
            arrays = [*chain.from_iterable(arrays)] if d else arrays
        if int not in found or float not in kinds:
            return same(v)
        try:
            return to_float(v)
        except OverflowError:
            raise DataError(f"{where}: a number is out of float range") from None
    return read


def _parse_float(text: str, what: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"{what} is not numeric: {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"{what} must be finite, got {text!r}")
    return v


def load_csv(path) -> Dataset:
    """Read a Dataset from the documented CSV schema.

    Row numbers in error messages are 1-based file lines (header is line 1).
    """
    samples: list[Sample] = []
    labels: dict[str, str] = {}
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 ({exc})") from None
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected CSV header") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataError(
                f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != len(CSV_HEADER):
                    raise DataError(f"expected {len(CSV_HEADER)} columns, got {len(row)}")
                (sid, ch1, ch2, ch3, cap, ser, mode, sex, age, split) = [c.strip() for c in row]
                if sid in seen:
                    raise DataError(f"duplicate sample id {sid!r}")
                seen.add(sid)
                voltages = ChannelVoltages(
                    _parse_float(ch1, "ch1_mv"),
                    _parse_float(ch2, "ch2_mv"),
                    _parse_float(ch3, "ch3_mv"),
                )
                if split and split not in SPLITS:
                    raise DataError(f"invalid split {split!r}")
                try:
                    age_years = int(age) if age else None
                except ValueError:
                    raise DataError(f"age is not an integer: {age!r}") from None
                capillary, serum = (
                    GlucoseValue(_parse_float(t, f"{kind}_mgdl"), kind) if t else None
                    for t, kind in ((cap, "capillary"), (ser, "serum"))
                )
                samples.append(Sample(
                    id=sid,
                    voltages=voltages,
                    capillary=capillary,
                    serum=serum,
                    mode=mode or None,
                    sex=sex or "unspecified",
                    age_years=age_years,
                ))
            except DataError as exc:
                raise DataError(f"row {lineno}: {exc}") from None
            if split:
                labels[sid] = split
    return Dataset(tuple(samples), labels)


def _fmt(v: float | int | None) -> str:
    if v is None:
        return ""
    return repr(float(v))


def export_csv(d: Dataset, path) -> None:
    """Write a Dataset using the documented CSV schema.

    Floats are written with repr so load_csv(export_csv(d)) round-trips exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in d.samples:
            writer.writerow([
                s.id,
                _fmt(s.voltages.ch1_mv),
                _fmt(s.voltages.ch2_mv),
                _fmt(s.voltages.ch3_mv),
                _fmt(s.capillary.value_mgdl if s.capillary else None),
                _fmt(s.serum.value_mgdl if s.serum else None),
                s.mode or "",
                s.sex,
                "" if s.age_years is None else str(s.age_years),
                d.split_labels.get(s.id, ""),
            ])


def _stratum_groups(samples: list[Sample]) -> list[list[Sample]]:
    """Partition samples into three contiguous glucose tertiles (low/mid/high)."""

    def strat_value(s: Sample) -> float:
        ref = s.capillary or s.serum
        if ref is None:
            raise DataError(f"sample {s.id!r} has no reference glucose; cannot stratify")
        return ref.value_mgdl

    ordered = sorted(samples, key=lambda s: (strat_value(s), s.id))
    n = len(ordered)
    base, extra = divmod(n, 3)
    sizes = [base + (1 if i < extra else 0) for i in range(3)]
    groups, start = [], 0
    for size in sizes:
        groups.append(ordered[start:start + size])
        start += size
    return groups


def _largest_remainder(targets: np.ndarray) -> np.ndarray:
    """Round non-negative targets to integers preserving the (integral) total."""
    floors = np.floor(targets).astype(int)
    remainder = int(round(targets.sum())) - floors.sum()
    order = np.argsort(-(targets - floors), kind="stable")
    out = floors.copy()
    for i in range(remainder):
        out[order[i]] += 1
    return out


def _balance_allocation(alloc: np.ndarray, target: np.ndarray, global_target: np.ndarray) -> np.ndarray:
    """Nudge a per-stratum allocation until per-class totals hit global_target.

    Keeps every cell within one sample of its fractional target. Moves one
    sample at a time between classes inside a stratum; when no direct move is
    safe, routes through the third class (two moves), which always exists.
    """
    alloc = alloc.copy()
    n_strata, n_classes = alloc.shape

    def dev():
        return alloc.sum(axis=0) - global_target

    def can_dec(s, c):
        return alloc[s, c] - target[s, c] > 0 and alloc[s, c] > 0

    def can_inc(s, c):
        return alloc[s, c] - target[s, c] < 0

    guard = 0
    while True:
        d = dev()
        if not d.any():
            break
        guard += 1
        if guard > 10 * n_strata * n_classes:
            raise DataError("split allocation failed to balance")  # pragma: no cover
        c_over = int(np.argmax(d))
        c_under = int(np.argmin(d))
        direct = [s for s in range(n_strata) if can_dec(s, c_over) and can_inc(s, c_under)]
        if direct:
            s = max(direct, key=lambda s: (alloc[s, c_over] - target[s, c_over])
                    - (alloc[s, c_under] - target[s, c_under]))
            alloc[s, c_over] -= 1
            alloc[s, c_under] += 1
            continue
        c3 = next(c for c in range(n_classes) if c not in (c_over, c_under))
        s1 = next(s for s in range(n_strata) if can_dec(s, c_over) and can_inc(s, c3))
        alloc[s1, c_over] -= 1
        alloc[s1, c3] += 1
        s2 = next(s for s in range(n_strata) if can_dec(s, c3) and can_inc(s, c_under))
        alloc[s2, c3] -= 1
        alloc[s2, c_under] += 1
    return alloc


def split_dataset(d: Dataset, seed: int, fractions) -> Dataset:
    """Assign calibration/validation/testing labels, stratified by glucose tertile.

    fractions is a (calibration, validation, testing) triple summing to 1.
    Deterministic for a fixed seed. Global split sizes follow the fractions
    exactly (largest-remainder rounding); per-stratum sizes stay within one
    sample of the fractional target.
    """
    fr = np.asarray(list(fractions), dtype=float)
    if fr.shape != (3,):
        raise DataError("fractions must be a (calibration, validation, testing) triple")
    if (fr < 0).any():
        raise DataError("fractions must be non-negative")
    total = float(fr.sum())
    if not abs(total - 1.0) <= 1e-9:  # written so that a NaN fails too
        raise DataError(f"fractions must sum to 1, got {total!r}")
    n = len(d.samples)
    if n == 0:
        return d.with_splits({})

    groups = _stratum_groups(list(d.samples))
    nonzero_classes = int(np.count_nonzero(fr > 0))
    if nonzero_classes > 1:
        for g in groups:
            if len(g) < 3:
                raise DataError(
                    "need at least 3 samples per glucose stratum to split "
                    f"(got a stratum of {len(g)})"
                )

    global_target = _largest_remainder(fr * n)
    sizes = np.array([len(g) for g in groups])
    target = np.outer(sizes, fr)
    alloc = np.stack([_largest_remainder(t) for t in target])
    alloc = _balance_allocation(alloc, target, global_target)

    rng = np.random.default_rng(seed)
    labels: dict[str, str] = {}
    for g, counts in zip(groups, alloc):
        order = rng.permutation(len(g))
        shuffled = [g[i] for i in order]
        start = 0
        for cls, count in zip(SPLITS, counts):
            for s in shuffled[start:start + count]:
                labels[s.id] = cls
            start += count
    return d.with_splits(labels)
