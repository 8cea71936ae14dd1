"""Maxwell capacitance matrix file format.

Bit-exact format: UTF-8 lines, ``# key: value`` header comments with a
mandatory ``# units: fF|pF|F`` header, a ``node,<name1>,<name2>,...`` header
row, then one ``<name>,<v>,...`` row per node in matrix order. Row order
defines node order. The format is trivially producible from any extractor's
CSV export.
"""

from __future__ import annotations

import hashlib
import warnings
from pathlib import Path

import numpy as np

from .errors import AsymmetryError, MalformedMatrix, ParseError
from .netlist import MaxwellMatrix

UNIT_SCALES = {"F": 1.0, "pF": 1e-12, "fF": 1e-15}

#: relative asymmetry below which extractor output is symmetrized by averaging
SYMMETRIZE_LIMIT = 1e-6


def _raise_first_bad_row(rows: list[tuple[int, str]], width: int, source: str) -> None:
    """Walk the data rows in read order and raise the ParseError of the first
    unparsable value or wrong-length row, with its line and column."""
    for lineno, line in rows:
        fields = [f.strip() for f in line.split(",")]
        for col, field in enumerate(fields[1:], start=2):
            try:
                float(field)
            except ValueError:
                raise ParseError(
                    f"{source}: cannot parse {field!r} as a number", line=lineno, column=col
                ) from None
        if len(fields) - 1 != width:
            raise ParseError(
                f"{source}: row {fields[0]!r} has {len(fields) - 1} values for {width} nodes",
                line=lineno,
            )


def _parse_values(rows: list[tuple[int, str]], width: int, source: str) -> tuple[list[str], np.ndarray]:
    """The row names and the value fields of the data rows; the values are
    parsed by numpy in one call. A failure, or a matrix of the wrong shape,
    is located by a row-by-row pass; a NaN or infinite value is located
    from the parsed matrix."""
    names, values = [], []
    for _, line in rows:
        name, _, fields = line.partition(",")
        names.append(name.strip())
        values.append(fields)
    try:
        display = np.loadtxt(values, delimiter=",", comments=None, ndmin=2)
        if display.shape != (len(rows), width):
            raise ValueError(f"{display.shape} values for {len(rows)} rows of {width} nodes")
    except ValueError as exc:
        _raise_first_bad_row(rows, width, source)
        raise ParseError(f"{source}: cannot parse the matrix values ({exc})") from None
    finite = np.isfinite(display)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ParseError(f"{source}: value {display[row, col]} is not finite",
                         line=rows[row][0], column=col + 2)
    return names, display


def parse_maxwell_text(text: str, source: str = "<string>",
                       source_sha256: str | None = None) -> MaxwellMatrix:
    units = None
    header: list[str] | None = None
    rows: list[tuple[int, str]] = []  # (line number, data line)
    for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line:
            continue
        if line[0] == "#":
            key, colon, value = line[1:].partition(":")
            if colon and key.strip() == "units":
                units = value.strip()
            continue
        if header is None:
            fields = [f.strip() for f in line.split(",")]
            if fields[0] != "node":
                raise ParseError(f"{source}: first data line must start with 'node'", line=lineno, column=1)
            header = fields[1:]
            if len(set(header)) != len(header):
                raise ParseError(f"{source}: duplicate node names in header", line=lineno)
            continue
        rows.append((lineno, line))
    if rows:
        names, display = _parse_values(rows, len(header), source)

    if units is None:
        raise ParseError(f"{source}: missing mandatory '# units:' header")
    if units not in UNIT_SCALES:
        raise ParseError(f"{source}: unsupported units {units!r}; use one of {sorted(UNIT_SCALES)}")
    if header is None or not rows:
        raise ParseError(f"{source}: no matrix data found")
    if names != header:
        raise ParseError(f"{source}: row order {names} does not match header order {header}")

    scale = UNIT_SCALES[units]

    asym = np.max(np.abs(display - display.T))
    magnitude = np.max(np.abs(display)) or 1.0
    if asym > SYMMETRIZE_LIMIT * magnitude:
        raise AsymmetryError(
            f"{source}: matrix asymmetry {asym / magnitude:.3e} exceeds the "
            f"{SYMMETRIZE_LIMIT:.0e} symmetrization limit"
        )
    if asym > 0.0:
        warnings.warn(
            f"{source}: symmetrized extractor output with relative asymmetry {asym / magnitude:.3e}"
        )
        display = 0.5 * (display + display.T)

    try:
        return MaxwellMatrix(names=tuple(names), matrix=display * scale, display_units=units,
                             display_matrix=display, source_sha256=source_sha256)
    except MalformedMatrix as exc:
        raise ParseError(f"{source}: {exc}") from None


def parse_maxwell_file(path: str | Path) -> MaxwellMatrix:
    """Parse a Maxwell file, read once; the result carries the sha256 of
    the bytes parsed."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ParseError(f"Maxwell matrix file not found: {path}") from None
    return parse_maxwell_text(data.decode("utf-8"), source=str(path),
                              source_sha256=hashlib.sha256(data).hexdigest())


def serialize_maxwell(m: MaxwellMatrix) -> str:
    """Canonical text form; ``serialize(parse(f))`` is byte-identical for
    files already in canonical form."""
    display = m.display_matrix
    if display is None:
        display = m.matrix / UNIT_SCALES[m.display_units]
    lines = [f"# units: {m.display_units}"]
    lines.append("node," + ",".join(m.names))
    for name, row in zip(m.names, display):
        lines.append(name + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_maxwell_file(m: MaxwellMatrix, path: str | Path) -> None:
    Path(path).write_text(serialize_maxwell(m), encoding="utf-8")
