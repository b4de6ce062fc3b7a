"""Knowledge database of per-component FPGA resource utilization.

The database maps (sequence length, component, resource kind, bitwidth) to a
utilization percentage obtained by aggregating synthesis reports. Values are
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

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.luts + other.luts,
            self.dram + other.dram,
            self.bram + other.bram,
            self.dsps + other.dsps,
        )


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


EntryKey = tuple[int, ComponentId, ResourceKind, int]


@dataclass
class KnowledgeDatabase:
    """Aggregated utilization lookup table.

    Immutable after construction; safe for concurrent reads.
    """

    entries: dict[EntryKey, Decimal]
    seq_lens: frozenset[int]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check completeness and value domain; raise DatabaseFormatError on failure."""
        for n in self.seq_lens:
            for comp in ALL_COMPONENTS:
                for kind in RESOURCE_ORDER:
                    for b in VALID_BITWIDTHS:
                        v = self.entries.get((n, comp, kind, b))
                        if v is None:
                            raise DatabaseFormatError(
                                f"missing entry n={n} {comp.value} {kind.value} {b}-bit"
                            )
                        if not v.is_finite() or v < 0:
                            raise DatabaseFormatError(
                                f"entry n={n} {comp.value} {kind.value} {b}-bit "
                                f"must be finite and >= 0, got {v}"
                            )

    def lookup(
        self, seq_len: int, component: ComponentId, resource: ResourceKind, bitwidth: int
    ) -> Decimal:
        """Return the stored utilization percentage exactly."""
        if seq_len not in self.seq_lens:
            covered = ", ".join(str(n) for n in sorted(self.seq_lens))
            raise CoverageError(f"seq_len {seq_len} not covered; covered lengths: {covered}")
        if bitwidth not in VALID_BITWIDTHS:
            raise ValueError(f"bitwidth must be one of {VALID_BITWIDTHS}, got {bitwidth}")
        return self.entries[(seq_len, component, resource, bitwidth)]


def aggregate(reports: list[SynthesisReport], source: str = "aggregated reports") -> KnowledgeDatabase:
    """Build a database by taking per-entry medians over matching reports.

    For an even report count the median is the arithmetic mean of the two
    central values. Every bitwidth of a covered seq_len must have at least
    one report.
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

    entries: dict[EntryKey, Decimal] = {}
    for (n, b), group in cells.items():
        for comp in ALL_COMPONENTS:
            for kind in RESOURCE_ORDER:
                values = [rep.entries[comp][kind] for rep in group]
                entries[(n, comp, kind, b)] = statistics.median(values)

    counts = {f"{n}/{b}": len(group) for (n, b), group in sorted(cells.items())}
    metadata = {"source": source, "report_counts": counts}
    return KnowledgeDatabase(entries=entries, seq_lens=seq_lens, metadata=metadata)


def save(db: KnowledgeDatabase, path: str | Path) -> None:
    """Write the database as canonical JSON (stable key order, exact decimals)."""
    doc = {
        "version": SCHEMA_VERSION,
        "seq_lens": sorted(db.seq_lens),
        "metadata": db.metadata,
        "entries": {
            str(n): {
                comp.value: {
                    kind.value: {
                        str(b): format_value(db.entries[(n, comp, kind, b)])
                        for b in VALID_BITWIDTHS
                    }
                    for kind in RESOURCE_ORDER
                }
                for comp in ALL_COMPONENTS
            }
            for n in sorted(db.seq_lens)
        },
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

    entries: dict[EntryKey, Decimal] = {}
    seq_lens = []
    for n_str, comp_map in _get(doc, "entries", dict, "entries").items():
        where = f"entries.{n_str}"
        n = int(n_str) if n_str.isdigit() else 0
        if n <= 0 or str(n) != n_str:
            raise ValueError(f"{where}: bad seq_len")
        seq_lens.append(n)
        _only(_expect(comp_map, dict, where), _COMPONENT_BY_NAME, where)
        for comp_key, comp in _COMPONENT_BY_NAME.items():
            comp_where = f"{where}.{comp_key}"
            kind_map = _only(_get(comp_map, comp_key, dict, comp_where), _KIND_BY_NAME, comp_where)
            for kind_key, kind in _KIND_BY_NAME.items():
                kind_where = f"{comp_where}.{kind_key}"
                bw_map = _only(_get(kind_map, kind_key, dict, kind_where), _BITWIDTH_BY_NAME,
                               kind_where)
                for b_key, b in _BITWIDTH_BY_NAME.items():
                    raw = bw_map.get(b_key)
                    if type(raw) is not str:  # _get names the field; 468 leaves a load
                        _get(bw_map, b_key, str, f"{kind_where}.{b_key}")
                    try:
                        entries[(n, comp, kind, b)] = Decimal(raw)
                    except InvalidOperation as e:
                        raise ValueError(f"{kind_where}.{b_key}: bad decimal {raw!r}") from e

    if set(declared) != set(seq_lens):
        raise ValueError(
            f"seq_lens {sorted(declared)} disagree with entries {sorted(seq_lens)}"
        )
    return KnowledgeDatabase(entries=entries, seq_lens=frozenset(seq_lens), metadata=metadata)


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
