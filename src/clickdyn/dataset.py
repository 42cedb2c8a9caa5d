"""CSV/JSON dataset emission.

Every analysis writes one CSV per curve (or surface slice) plus a single
JSON manifest per run.  CSV values use 17-significant-digit formatting so a
round-trip read reproduces the floats bit-exactly; line endings are LF.
``format_value`` defines how each value is written.  When every column of a
dataset holds values of one exact type among float, int and str (and every
row is a tuple), each row is written with one printf-style format built
from those types, which gives the same text; other datasets, such as those
with bool, complex or numpy scalar values, go through ``format_value``
cell by cell.  ``read_csv`` is the round-trip reader of this format.
The manifest echoes the fully-resolved configuration together with a
content hash of it, so identical configurations produce byte-identical
artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

SCHEMA_VERSION = 1


@dataclass
class Dataset:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        wrong = set(map(len, self.rows)) - {len(self.columns)}
        if wrong:
            raise ValueError(
                f"dataset {self.name!r}: row width {min(wrong)} != "
                f"{len(self.columns)} columns"
            )


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


# The printf conversion that writes a value of this exact type as
# format_value does.
_CONVERSIONS = {float: "%.17g", int: "%d", str: "%s"}


def _row_format(ds: Dataset) -> str | None:
    """One format for every row, if each column holds one type of
    ``_CONVERSIONS`` throughout and every row is a tuple; else None."""
    if set(map(type, ds.rows)) != {tuple}:
        return None
    parts = []
    for j in range(len(ds.columns)):
        kinds = set(map(type, map(itemgetter(j), ds.rows)))
        conv = _CONVERSIONS.get(kinds.pop()) if len(kinds) == 1 else None
        if conv is None:
            return None
        parts.append(conv)
    return ",".join(parts)


def emit_dataset(ds: Dataset, path: Path) -> Path:
    lines = [",".join(ds.columns)]
    fmt = _row_format(ds)
    if fmt is None:
        lines += [",".join(map(format_value, row)) for row in ds.rows]
    else:
        lines += map(fmt.__mod__, ds.rows)
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def emit_manifest(datasets: list[Dataset], config: dict, path: Path) -> Path:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "config_hash": config_hash(config),
        "files": {
            ds.name: {
                "columns": list(ds.columns),
                "rows": len(ds.rows),
                "metadata": ds.metadata,
            }
            for ds in datasets
        },
    }
    path = Path(path)
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                    newline="\n")
    return path


def read_csv(path: Path) -> tuple[tuple[str, ...], list[tuple]]:
    """Round-trip reader for emitted CSVs (floats where possible)."""
    text = Path(path).read_text()
    lines = [ln for ln in text.split("\n") if ln]
    columns = tuple(lines[0].split(","))
    rows = []
    for ln in lines[1:]:
        vals = []
        for tok in ln.split(","):
            try:
                vals.append(float(tok))
            except ValueError:
                vals.append(tok)
        rows.append(tuple(vals))
    return columns, rows
