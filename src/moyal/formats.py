"""On-disk formats: CSV for grid fields, JSON for tables.

Grid CSV layout: '#'-prefixed header lines carrying model parameters, the
grid specification, normalization and the package version, then one
`q,p,W` row per node (17 significant digits, row-major over q then p).
Complex-valued fields write `q,p,re_W,im_W` and set `complex=1` in the
header.  Byte output is deterministic for a fixed field and metadata.
The writer streams the rows, one q-row per write; the reader hands the rows
after the header to numpy's CSV parser.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import __version__
from .grid import GridField, GridSpec

_FMT = "{:.16e}"


def _header(field: GridField, metadata: dict, is_complex: bool) -> str:
    spec = field.spec
    meta = " ".join(f"{k}={metadata[k]}" for k in sorted(metadata))
    lines = ["# moyal-grid v1", f"# version={__version__}"]
    if meta:
        lines.append(f"# {meta}")
    lines.append(
        "# " + " ".join([
            f"qmin={_FMT.format(spec.qmin)}", f"qmax={_FMT.format(spec.qmax)}",
            f"pmin={_FMT.format(spec.pmin)}", f"pmax={_FMT.format(spec.pmax)}",
            f"nq={spec.nq}", f"np={spec.np}", f"hbar={_FMT.format(field.hbar)}",
        ]))
    lines.append(f"# complex={int(is_complex)}")
    lines += [f"# warning={w}" for w in field.warnings]
    lines.append("# columns=" + ("q,p,re_W,im_W" if is_complex else "q,p,W"))
    return "".join(line + "\n" for line in lines)


def _open(target, mode: str):
    """A path opened for text I/O, or a file object passed through."""
    if hasattr(target, "write" if mode == "w" else "read"):
        return nullcontext(target)
    return open(target, mode, newline="" if mode == "w" else None)


def write_grid_csv(field: GridField, target, metadata: dict = None) -> None:
    """Write a GridField to a path or text file object, one q-row at a time."""
    vals = field.values
    is_complex = bool(np.abs(vals.imag).max()
                      > 1e-12 * max(np.abs(vals).max(), 1e-300))
    # one %-format per row: "q,p_j,W" for every node, the p strings fixed once
    node = "%.16e,{}" + (",%.16e,%.16e\n" if is_complex else ",%.16e\n")
    row_fmt = "".join(node.format(_FMT.format(p)) for p in field.spec.ps)
    with _open(target, "w") as fh:
        fh.write(_header(field, metadata or {}, is_complex))
        for q, row in zip(field.spec.qs, vals):
            cols = (np.full(len(row), q), row.real, row.imag)[:2 + is_complex]
            fh.write(row_fmt % tuple(np.column_stack(cols).ravel().tolist()))


def read_grid_csv(source) -> tuple:
    """Read a GridField CSV; returns (GridField, metadata dict).

    Each `# warning=` line is read whole into GridField.warnings.
    """
    meta, warnings = {}, []
    with _open(source, "r") as fh:
        line = fh.readline()
        while line.startswith("#") or line.isspace():
            if line.startswith("# warning="):
                warnings.append(line[len("# warning="):].rstrip("\n"))
            else:
                meta.update(tok.split("=", 1) for tok in line[1:].split()
                            if "=" in tok)
            line = fh.readline()
        data = np.loadtxt(chain([line], fh), delimiter=",", comments="#",
                          ndmin=2)
    spec = GridSpec(float(meta["qmin"]), float(meta["qmax"]),
                    float(meta["pmin"]), float(meta["pmax"]),
                    int(meta["nq"]), int(meta["np"]))
    if data.shape[0] != spec.nq * spec.np:
        raise ValueError("row count does not match the declared grid")
    if int(meta.get("complex", "0")):
        values = (data[:, 2] + 1j * data[:, 3]).reshape(spec.nq, spec.np)
    else:
        values = data[:, 2].astype(complex).reshape(spec.nq, spec.np)
    return GridField(spec, values, float(meta.get("hbar", "1")), warnings), meta


def records_to_json(records, extra: dict = None) -> str:
    """Negativity or spectrum records as a deterministic JSON document."""
    def encode(rec):
        if hasattr(rec, "__dataclass_fields__"):
            return asdict(rec)
        return rec

    doc = {"version": __version__}
    if extra:
        doc.update(extra)
    doc["records"] = [encode(r) for r in records]
    return json.dumps(doc, indent=2) + "\n"
