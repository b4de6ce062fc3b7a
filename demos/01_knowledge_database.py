#!/usr/bin/env python3
"""Build, query, and persist the per-component resource knowledge database."""

import tempfile
from pathlib import Path

from mixprec import (
    ComponentId,
    ResourceKind,
    aggregate,
    bundled_database,
    load,
    parse_report,
    save,
)

# The bundled database covers sequence lengths 12, 18, 24 at d_model=64,
# with utilization medians for 13 components x 4 resources x 3 bitwidths.
db = bundled_database()
# One (component, resource, bitwidth) table of Decimals per sequence length.
entries = sum(table.size for table in db.tables.values())
print(f"bundled database: seq_lens {sorted(db.seq_lens)}, {entries} entries")
print("source:", db.metadata["source"])

# Point lookups are exact decimal values.
for comp, kind, b in [
    (ComponentId.MHA, ResourceKind.LUTS, 6),
    (ComponentId.FFN, ResourceKind.BRAM, 4),
    (ComponentId.O_MIDDLEWARE, ResourceKind.LUTS, 8),
]:
    v = db.lookup(12, comp, kind, b)
    print(f"  n=12 {comp.value:14s} {kind.value:5s} {b}-bit -> {v}")

# Building a database from raw synthesis reports: one CSV per run, the
# median across runs becomes the entry. Five noisy runs of one config:
report_text = lambda mha_luts, b: "\n".join(
    ["# n=12 b=%d" % b, "component,luts,dram,bram,dsps"]
    + [
        f"{c.value},{mha_luts if c is ComponentId.MHA else 2.0},1.0,5.0,10.0"
        for c in ComponentId
    ]
)
reports = [parse_report(report_text(v, 4)) for v in (30.1, 30.8, 30.8, 31.0, 34.9)]
reports += [parse_report(report_text(31.0, b)) for b in (6, 8)]
mini = aggregate(reports, source="five synthesis runs, demo")
print("\nmedian of {30.1, 30.8, 30.8, 31.0, 34.9} ->",
      mini.lookup(12, ComponentId.MHA, ResourceKind.LUTS, 4))

# Round-trip persistence is canonical: saving a loaded file reproduces it
# byte for byte.
with tempfile.TemporaryDirectory() as tmp:
    p1, p2 = Path(tmp) / "a.json", Path(tmp) / "b.json"
    save(mini, p1)
    save(load(p1), p2)
    print("canonical round trip:", p1.read_bytes() == p2.read_bytes())
