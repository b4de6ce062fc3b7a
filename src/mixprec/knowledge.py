"""Knowledge database of per-component FPGA resource utilization.

The database maps (sequence length, component, resource kind, bitwidth) to a
utilization percentage obtained by aggregating synthesis reports: one dense
(component, resource, bitwidth) table per sequence length. Values are
kept as :class:`decimal.Decimal` end to end so that medians, sums, and
threshold comparisons are exact and reproducible across platforms.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

import numpy as np

from .components import (
    ALL_COMPONENTS,
    RESOURCE_ORDER,
    VALID_BITWIDTHS,
    ComponentId,
    ResourceKind,
)
from .model import _expect, _get

SCHEMA_VERSION = 1

# A single component entry above this is a corrupt report, not a big design.
ENTRY_SANITY_LIMIT = Decimal("200")
# A sum of one table's 13 rows, each entry below ENTRY_SANITY_LIMIT, is below
# 2600: with at most this many decimal places it fits Decimal's default 28
# digits, so every estimate is exact.
MAX_ENTRY_PLACES = 24
_PLACES_GRID = Decimal(1).scaleb(-MAX_ENTRY_PLACES)


class ReportError(ValueError):
    """Malformed or schema-violating synthesis report file."""


class DatabaseFormatError(ValueError):
    """Database file does not match the versioned JSON schema."""


class CoverageError(KeyError):
    """Lookup key outside the database's covered range."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


def format_value(value: Decimal) -> str:
    """Canonical decimal string: minimal digits, at least one fractional digit."""
    text = format(value, "f")
    if "." not in text:
        return text + ".0"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return text


@dataclass(frozen=True)
class ResourceVector:
    """Utilization percentages for the four resource kinds.

    Values may exceed 100, which signals an infeasible design.
    """

    luts: Decimal
    dram: Decimal
    bram: Decimal
    dsps: Decimal

    def __post_init__(self) -> None:
        for kind in RESOURCE_ORDER:
            v = self[kind]
            if not isinstance(v, Decimal) or not v.is_finite():
                raise ValueError(f"{kind.value} must be a finite Decimal, got {v!r}")
            if v < 0:
                raise ValueError(f"{kind.value} must be >= 0, got {v}")

    def __getitem__(self, kind: ResourceKind) -> Decimal:
        return getattr(self, kind.value)

    @classmethod
    def of(cls, luts, dram, bram, dsps) -> "ResourceVector":
        return cls(Decimal(str(luts)), Decimal(str(dram)), Decimal(str(bram)), Decimal(str(dsps)))

    def to_dict(self) -> dict[str, str]:
        return {k.value: format_value(self[k]) for k in RESOURCE_ORDER}


@dataclass(frozen=True)
class SynthesisReport:
    """One synthesis run's per-component utilization for a (seq_len, bitwidth) config."""

    seq_len: int
    bitwidth: int
    entries: dict[ComponentId, ResourceVector]

    def __post_init__(self) -> None:
        if self.seq_len <= 0:
            raise ReportError(f"seq_len must be positive, got {self.seq_len}")
        if self.bitwidth not in VALID_BITWIDTHS:
            raise ReportError(f"bitwidth must be one of {VALID_BITWIDTHS}, got {self.bitwidth}")
        missing = [c.value for c in ALL_COMPONENTS if c not in self.entries]
        if missing:
            raise ReportError(f"report missing components: {', '.join(missing)}")
        for comp, vec in self.entries.items():
            for kind in RESOURCE_ORDER:
                if vec[kind] >= ENTRY_SANITY_LIMIT:
                    raise ReportError(
                        f"{comp.value} {kind.value} = {vec[kind]} exceeds sanity bound "
                        f"{ENTRY_SANITY_LIMIT}"
                    )


_COMPONENT_BY_NAME = {c.value: c for c in ALL_COMPONENTS}
_KIND_BY_NAME = {k.value: k for k in RESOURCE_ORDER}
_BITWIDTH_BY_NAME = {str(b): b for b in VALID_BITWIDTHS}
_REPORT_HEADER = ["component", "luts", "dram", "bram", "dsps"]


def parse_report(text: str) -> SynthesisReport:
    """Parse a synthesis report file.

    Format: line 1 is ``# n=<int> b=<4|6|8>``, line 2 the header
    ``component,luts,dram,bram,dsps``, then one row per component (13 rows).
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not lines:
        raise ReportError("empty report")

    lineno, meta = lines[0]
    if not meta.startswith("#"):
        raise ReportError(f"line {lineno}: expected metadata line '# n=<int> b=<4|6|8>'")
    meta_fields = dict()
    for tok in meta.lstrip("#").split():
        if "=" not in tok:
            raise ReportError(f"line {lineno}: bad metadata token {tok!r}")
        key, _, val = tok.partition("=")
        meta_fields[key] = val
    try:
        seq_len = int(meta_fields["n"])
        bitwidth = int(meta_fields["b"])
    except (KeyError, ValueError) as e:
        raise ReportError(f"line {lineno}: metadata needs integer n= and b= ({e})") from e

    if len(lines) < 2:
        raise ReportError("missing header line")
    lineno, header = lines[1]
    if [h.strip().lower() for h in header.split(",")] != _REPORT_HEADER:
        raise ReportError(f"line {lineno}: header must be {','.join(_REPORT_HEADER)}")

    entries: dict[ComponentId, ResourceVector] = {}
    for lineno, row in lines[2:]:
        cells = [c.strip() for c in row.split(",")]
        if len(cells) != 5:
            raise ReportError(f"line {lineno}: expected 5 fields, got {len(cells)}")
        name = cells[0].lower()
        comp = _COMPONENT_BY_NAME.get(name)
        if comp is None:
            raise ReportError(f"line {lineno}: unknown component {cells[0]!r}")
        if comp in entries:
            raise ReportError(f"line {lineno}: duplicate component {cells[0]!r}")
        values = []
        for cell in cells[1:]:
            try:
                value = Decimal(cell)
            except InvalidOperation as e:
                raise ReportError(f"line {lineno}: bad value {cell!r}") from e
            if not value.is_finite() or value < 0:
                raise ReportError(f"line {lineno}: value {cell!r} must be finite and >= 0")
            values.append(value)
        entries[comp] = ResourceVector(*values)

    return SynthesisReport(seq_len=seq_len, bitwidth=bitwidth, entries=entries)


TABLE_SHAPE = (len(ALL_COMPONENTS), len(RESOURCE_ORDER), len(VALID_BITWIDTHS))


def entry_name(seq_len: int, index: int) -> str:
    """The save-file path ``entries.<n>.<component>.<resource>.<bits>`` of a
    table cell, given its flat index."""
    c, k, b = np.unravel_index(index, TABLE_SHAPE)
    return (f"entries.{seq_len}.{ALL_COMPONENTS[c].value}.{RESOURCE_ORDER[k].value}."
            f"{VALID_BITWIDTHS[b]}")


@dataclass(frozen=True, eq=False)
class KnowledgeDatabase:
    """Aggregated utilization lookup table.

    ``tables[n]`` holds sequence length n's stored Decimals in one read-only
    object array of shape ``TABLE_SHAPE``, indexed by ALL_COMPONENTS,
    RESOURCE_ORDER and VALID_BITWIDTHS positions. Immutable after
    construction; safe for concurrent reads.
    """

    tables: dict[int, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for n, table in self.tables.items():
            if table.shape != TABLE_SHAPE:
                raise DatabaseFormatError(f"entries.{n}: shape {table.shape}, not {TABLE_SHAPE}")
            table.flags.writeable = False
        self.validate()

    @property
    def seq_lens(self) -> frozenset[int]:
        return frozenset(self.tables)

    def validate(self) -> None:
        """Check the value domain; raise DatabaseFormatError on failure."""
        for n, table in self.tables.items():
            for i, v in enumerate(table.flat):
                if not v.is_finite() or v < 0:
                    raise DatabaseFormatError(
                        f"{entry_name(n, i)}: must be finite and >= 0, got {v}"
                    )

    def table(self, seq_len: int) -> np.ndarray:
        """The table of ``seq_len``; CoverageError when it is not covered."""
        table = self.tables.get(seq_len)
        if table is None:
            covered = ", ".join(str(n) for n in sorted(self.tables))
            raise CoverageError(f"seq_len {seq_len} not covered; covered lengths: {covered}")
        return table

    def lookup(
        self, seq_len: int, component: ComponentId, resource: ResourceKind, bitwidth: int
    ) -> Decimal:
        """Return the stored utilization percentage exactly."""
        table = self.table(seq_len)
        if bitwidth not in VALID_BITWIDTHS:
            raise ValueError(f"bitwidth must be one of {VALID_BITWIDTHS}, got {bitwidth}")
        return table[ALL_COMPONENTS.index(component), RESOURCE_ORDER.index(resource),
                     VALID_BITWIDTHS.index(bitwidth)]


def check_entries(db: KnowledgeDatabase) -> KnowledgeDatabase:
    """``db``, if every entry obeys the rule of a stored database: finite and
    >= 0 (``KnowledgeDatabase`` checks that on construction), below
    ``ENTRY_SANITY_LIMIT``, with at most ``MAX_ENTRY_PLACES`` decimal places.
    Otherwise ValueError naming the entry's ``entry_name``."""
    for n, table in db.tables.items():
        for i, v in enumerate(table.flat):
            if v >= ENTRY_SANITY_LIMIT:
                raise ValueError(f"{entry_name(n, i)}: {v} exceeds sanity bound "
                                 f"{ENTRY_SANITY_LIMIT}")
            if v != v.quantize(_PLACES_GRID):
                raise ValueError(
                    f"{entry_name(n, i)} {v}: its {-v.as_tuple().exponent} decimal places "
                    f"exceed the {MAX_ENTRY_PLACES} an exact sum allows"
                )
    return db


def aggregate(reports: list[SynthesisReport], source: str = "aggregated reports") -> KnowledgeDatabase:
    """Build a database by taking per-entry medians over matching reports.

    For an even report count the median is the arithmetic mean of the two
    central values. Every bitwidth of a covered seq_len must have at least
    one report. Every median must obey ``check_entries``'s rule, as in a
    loaded database: the mean of two values can carry one decimal place
    more than either.
    """
    if not reports:
        raise ValueError("cannot aggregate an empty report list")

    cells: dict[tuple[int, int], list[SynthesisReport]] = {}
    for rep in reports:
        cells.setdefault((rep.seq_len, rep.bitwidth), []).append(rep)

    seq_lens = frozenset(n for n, _ in cells)
    missing = [
        (n, b) for n in sorted(seq_lens) for b in VALID_BITWIDTHS if (n, b) not in cells
    ]
    if missing:
        detail = ", ".join(f"n={n}/b={b}" for n, b in missing)
        raise ValueError(f"incomplete report set; no reports for: {detail}")

    tables = {n: np.empty(TABLE_SHAPE, dtype=object) for n in sorted(seq_lens)}
    for (n, b), group in cells.items():
        for c, comp in enumerate(ALL_COMPONENTS):
            for k, kind in enumerate(RESOURCE_ORDER):
                values = [rep.entries[comp][kind] for rep in group]
                tables[n][c, k, VALID_BITWIDTHS.index(b)] = statistics.median(values)

    counts = {f"{n}/{b}": len(group) for (n, b), group in sorted(cells.items())}
    metadata = {"source": source, "report_counts": counts}
    return check_entries(KnowledgeDatabase(tables=tables, metadata=metadata))


def table_doc(table: np.ndarray, components=ALL_COMPONENTS) -> dict:
    """``{component: {resource: {bitwidth: value}}}`` of one length's table,
    values as canonical decimal strings, as ``save`` writes it."""
    return {
        comp.value: {
            kind.value: {str(b): format_value(v) for b, v in zip(VALID_BITWIDTHS, row)}
            for kind, row in zip(RESOURCE_ORDER, table[ALL_COMPONENTS.index(comp)])
        }
        for comp in components
    }


def save(db: KnowledgeDatabase, path: str | Path) -> None:
    """Write the database as canonical JSON (stable key order, exact decimals)."""
    doc = {
        "version": SCHEMA_VERSION,
        "seq_lens": sorted(db.seq_lens),
        "metadata": db.metadata,
        "entries": {str(n): table_doc(db.tables[n]) for n in sorted(db.tables)},
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")


def _only(doc: dict, keys: dict, where: str) -> dict:
    """``doc``, refused when it holds more keys than ``keys``. A stray key in
    a ``doc`` no longer than ``keys`` displaces one of them, and the caller's
    ``_get`` names that one as missing."""
    if len(doc) > len(keys):
        raise ValueError(f"{where}.{min(doc.keys() - keys.keys())}: unexpected")
    return doc


def _database_from_doc(doc) -> KnowledgeDatabase:
    """The database a ``save`` document describes, each field checked where
    it is read."""
    _expect(doc, dict, "top level")
    version = doc.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"schema version {version!r} unsupported (expected {SCHEMA_VERSION})")
    declared = [_expect(n, int, "seq_lens") for n in _get(doc, "seq_lens", list, "seq_lens")]
    if len(set(declared)) != len(declared):
        raise ValueError(f"seq_lens: {declared} lists a length twice")
    metadata = _expect(doc.get("metadata", {}), dict, "metadata")

    tables = {}
    for n_str, comp_map in _get(doc, "entries", dict, "entries").items():
        where = f"entries.{n_str}"
        n = int(n_str) if n_str.isdigit() else 0
        if n <= 0 or str(n) != n_str:
            raise ValueError(f"{where}: bad seq_len")
        _only(_expect(comp_map, dict, where), _COMPONENT_BY_NAME, where)
        cells = []  # in ALL_COMPONENTS x RESOURCE_ORDER x VALID_BITWIDTHS order
        for comp_key in _COMPONENT_BY_NAME:
            comp_where = f"{where}.{comp_key}"
            kind_map = _only(_get(comp_map, comp_key, dict, comp_where), _KIND_BY_NAME, comp_where)
            for kind_key in _KIND_BY_NAME:
                kind_where = f"{comp_where}.{kind_key}"
                bw_map = _only(_get(kind_map, kind_key, dict, kind_where), _BITWIDTH_BY_NAME,
                               kind_where)
                for b_key in _BITWIDTH_BY_NAME:
                    raw = bw_map.get(b_key)
                    if type(raw) is not str:  # _get names the field; 468 leaves a load
                        _get(bw_map, b_key, str, f"{kind_where}.{b_key}")
                    try:
                        cells.append(Decimal(raw))
                    except InvalidOperation as e:
                        raise ValueError(f"{kind_where}.{b_key}: bad decimal {raw!r}") from e
        tables[n] = np.array(cells, dtype=object).reshape(TABLE_SHAPE)

    if set(declared) != tables.keys():
        raise ValueError(f"seq_lens {sorted(declared)} disagree with entries {sorted(tables)}")
    return check_entries(KnowledgeDatabase(tables=tables, metadata=metadata))


def _load_doc(doc, origin: str) -> KnowledgeDatabase:
    try:
        return _database_from_doc(doc)
    except ValueError as e:
        raise DatabaseFormatError(f"{origin}: {e}") from e


def load(path: str | Path) -> KnowledgeDatabase:
    """Load a database file; raises DatabaseFormatError without partial results."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as e:  # also undecodable bytes
        raise DatabaseFormatError(f"{path}: not valid JSON ({e})") from e
    return _load_doc(doc, str(path))


def bundled_database() -> KnowledgeDatabase:
    """The database asset shipped with the package (d_model=64, n in {12, 18, 24})."""
    raw = resources.files("mixprec").joinpath("assets/table2.json").read_text()
    return _load_doc(json.loads(raw), "assets/table2.json")
