"""Device configuration schema.

Configurations are YAML documents; every physical value carries its unit in
the field name (lj_nh, cj_ff, z0_ohm, ...). Each mapping is read through
``Fields``, whose reads are the one list of the keys it accepts. The parsed
dataclasses keep the raw mapping around so sweeps and budget rows can
derive modified configs by dotted-path overrides.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml
from scipy import constants

from .composite import DEFAULT_DIMENSION_CAP, DEFAULT_MIN_OVERLAP
from .errors import ConfigError

_REQUIRED = object()


def parse_finite(value: Any, key: str, where: str, kind: type = float):
    """``value`` of field ``key`` of entry ``where`` as a finite ``kind``
    (float or int); a boolean, or a fraction for an int, is refused."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{where}: {key} must be a finite number, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{where}: {key} must be a whole number, got {value!r}")
        return int(number)
    return number


class Fields:
    """The configuration mapping ``entry``, named ``where`` in errors. Each
    read records its key; an absent or null field takes the read's
    ``default``, and is required without one. ``done`` refuses every key no
    read recorded, so the reads are the one list of the keys it accepts."""

    def __init__(self, entry: Any, where: str):
        if not isinstance(entry, Mapping):
            raise ConfigError(f"{where}: expected a mapping")
        self.entry, self.where, self.read = entry, where, set()

    def get(self, key: str, default: Any = _REQUIRED):
        """The field's raw value, or ``default``."""
        self.read.add(key)
        if self.entry.get(key) is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self.where}: missing required field {key!r}")
            return default
        return self.entry[key]

    def number(self, key: str, default: Any = _REQUIRED, kind: type = float):
        """The field as ``parse_finite`` reads it, or ``default``."""
        value = self.get(key, default)
        return value if self.entry.get(key) is None else parse_finite(value, key, self.where, kind)

    def positive(self, key: str, default: Any = _REQUIRED, kind: type = float):
        """``number`` of a field that must be positive when given."""
        number = self.number(key, default, kind)
        if number is not None and not number > 0:
            raise ConfigError(f"{self.where}: {key} must be positive, got {self.entry[key]!r}")
        return number

    def items(self, key: str, default: Any = _REQUIRED, names: bool = False) -> list:
        """The field as a list of node ``names`` (strings, or integers read as
        their decimal string), or else of mappings, or ``default``."""
        value = self.get(key, default)
        if self.entry.get(key) is None:
            return value
        kind = "node names" if names else "mappings"
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{self.where}: {key} must be a list of {kind}, got {value!r}")
        for item in value:
            if not (isinstance(item, (str, int)) and not isinstance(item, bool) if names
                    else isinstance(item, Mapping)):
                raise ConfigError(f"{self.where}: {key} must be a list of {kind}, "
                                  f"got item {item!r}")
        return [str(item) for item in value] if names else list(value)

    def phase_velocity(self) -> float:
        """Phase velocity in m/s of a line, from its ``vp_m_per_s`` or else
        its ``vp_fraction_c`` times c."""
        vp, fraction = self.number("vp_m_per_s", None), self.number("vp_fraction_c", None)
        if vp is None and fraction is None:
            raise ConfigError(f"{self.where}: need vp_m_per_s or vp_fraction_c")
        if vp is not None and fraction is not None:
            raise ConfigError(f"{self.where}: give one of vp_m_per_s or vp_fraction_c")
        return vp if fraction is None else fraction * constants.c

    def shorted_end(self) -> bool:
        """Whether a line has a shorted far end; its ``termination`` is open
        (the default) or short."""
        termination = self.get("termination", "open")
        if termination not in ("open", "short"):
            raise ConfigError(f"{self.where}: termination must be open or short")
        return termination == "short"

    def done(self, **fields) -> dict:
        """``fields``, once every key of the entry is one a read recorded; the
        reads given as ``fields`` run first. The error names each other key."""
        unknown = [key for key in self.entry if key not in self.read]
        if unknown:
            raise ConfigError(f"{self.where}: unknown field(s) {', '.join(map(repr, unknown))}")
        return fields


def read_yaml_file(path: str | Path) -> Any:
    """The YAML document in the file at ``path``, parsed with PyYAML's safe
    loader, through libyaml's C implementation when PyYAML was built with
    it. A missing, unreadable (a directory, or not UTF-8) or invalid file
    is a ConfigError naming it."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from None


@dataclass(frozen=True)
class CellConfig:
    ident: str
    maxwell_file: Path
    maxwell_entry: str  # maxwell_file as written in the config
    ground_nets: tuple[str, ...]


@dataclass(frozen=True)
class TransmonConfig:
    name: str
    nodes: tuple[str, ...]
    levels: int
    n_max: int
    q_offset_2e: float


@dataclass(frozen=True)
class LineConfig:
    name: str
    nodes: tuple[str, ...]  # port node(s); first entry is the loaded end
    z0_ohm: float
    vp_m_per_s: float
    shorted_end: bool
    modes: int
    levels: tuple[int, ...]
    length_m: float | None
    target_hz: float | None
    target_mode: int
    target_loading: str  # unloaded | dressed
    role: str

    def __post_init__(self):
        if (self.length_m is None) == (self.target_hz is None):
            raise ConfigError(
                f"line {self.name!r}: give exactly one of length or calibration target"
            )
        if self.target_loading not in ("unloaded", "dressed"):
            raise ConfigError(f"line {self.name!r}: bad target_loading {self.target_loading!r}")
        if len(self.levels) != self.modes:
            raise ConfigError(f"line {self.name!r}: need one level count per mode")


@dataclass(frozen=True)
class JunctionConfig:
    ident: str
    node_neg: str
    node_pos: str
    subsystem: str
    lj_h: float | None
    ej_j: float | None
    cj_f: float

    def __post_init__(self):
        if (self.lj_h is None) == (self.ej_j is None):
            raise ConfigError(f"junction {self.ident!r}: give exactly one of lj_nh or ej_ghz")


@dataclass(frozen=True)
class InductorConfig:
    node_a: str
    node_b: str
    l_h: float


@dataclass(frozen=True)
class AnalysisOptions:
    dimension_cap: int
    min_overlap: float
    qubit: str
    readout: str

    def __post_init__(self):
        # below 1/2 a bare state can dominate two dressed states, and the
        # labels would depend on how many states were solved for
        if not 0.5 <= self.min_overlap <= 1.0:
            raise ConfigError(
                f"analysis.min_overlap must lie in [0.5, 1], got {self.min_overlap}"
            )


@dataclass(frozen=True)
class DeviceConfig:
    name: str
    datum: str
    cells: tuple[CellConfig, ...]
    transmons: tuple[TransmonConfig, ...]
    lines: tuple[LineConfig, ...]
    couplers: tuple[str, ...]
    junctions: tuple[JunctionConfig, ...]
    inductors: tuple[InductorConfig, ...]
    analysis: AnalysisOptions
    raw: Mapping[str, Any] = field(compare=False)
    base_dir: Path

    def with_override(self, dotted_path: str, value) -> "DeviceConfig":
        """New config with one raw field replaced; list entries are addressed
        by their id/name key (for example ``junctions.j1.lj_nh``)."""
        return self.with_overrides({dotted_path: value})

    def with_overrides(self, overrides: Mapping[str, Any]) -> "DeviceConfig":
        raw = copy.deepcopy(dict(self.raw))
        for dotted_path, value in overrides.items():
            *parents, leaf = dotted_path.split(".")
            node = raw
            for part in parents:
                node = _child(node, part, dotted_path)
            if not isinstance(node, dict):
                raise ConfigError(
                    f"override path {dotted_path!r}: {parents[-1]!r} is not a mapping")
            node[leaf] = value
        return parse_device_config(raw, base_dir=self.base_dir)


def _child(node: Any, part: str, path: str) -> Any:
    """The field ``part`` of the mapping ``node``, or the mapping in the list
    ``node`` whose id or name, read as a string as the parser reads it, is
    ``part``; anything else is a ConfigError naming the override ``path``."""
    if isinstance(node, dict) and part in node:
        return node[part]
    if isinstance(node, list):
        for entry in node:
            if isinstance(entry, dict) and part in {
                    str(entry[key]) for key in ("id", "name") if entry.get(key) is not None}:
                return entry
    raise ConfigError(f"override path {path!r}: no field or named entry {part!r}")


def parse_device_config(raw: Mapping[str, Any], base_dir: str | Path = ".") -> DeviceConfig:
    base_dir = Path(base_dir)
    doc = Fields(raw, "config")
    name = str(doc.get("name", "device"))
    datum = str(doc.get("datum"))

    cells = []
    for entry in doc.items("cells"):
        cell = Fields(entry, "cell")
        ident = str(cell.get("id"))
        cell.where = f"cell {ident!r}"
        maxwell_entry = str(cell.get("maxwell_file"))
        cells.append(CellConfig(**cell.done(
            ident=ident,
            maxwell_file=base_dir / maxwell_entry,
            maxwell_entry=maxwell_entry,
            ground_nets=tuple(cell.items("ground_nets", (), names=True)),
        )))
    if len({c.ident for c in cells}) != len(cells):
        raise ConfigError("duplicate cell ids")

    transmons: list[TransmonConfig] = []
    lines: list[LineConfig] = []
    for entry in doc.items("subsystems"):
        sub = Fields(entry, "subsystem")
        kind = sub.get("kind")
        sname = str(sub.get("name"))
        sub.where = f"subsystem {sname!r}"
        nodes = tuple(sub.items("nodes", names=True))
        if kind == "transmon":
            transmons.append(TransmonConfig(**sub.done(
                name=sname,
                nodes=nodes,
                levels=sub.number("levels", 5, int),
                n_max=sub.number("n_max", 30, int),
                q_offset_2e=sub.number("q_offset_2e", 0.0),
            )))
        elif kind == "loaded_line":
            sub.where = f"line {sname!r}"
            modes = sub.number("modes", 1, int)
            levels = sub.get("levels", 5)
            levels = tuple(parse_finite(v, "levels", sub.where, int) for v in levels) \
                if isinstance(levels, (list, tuple)) \
                else (sub.number("levels", 5, int),) * modes
            length = sub.number("length_mm", None)
            target = sub.number("target_ghz", None)
            lines.append(LineConfig(**sub.done(
                name=sname,
                nodes=nodes,
                z0_ohm=sub.number("z0_ohm"),
                vp_m_per_s=sub.phase_velocity(),
                shorted_end=sub.shorted_end(),
                modes=modes,
                levels=levels,
                length_m=None if length is None else length * 1e-3,
                target_hz=None if target is None else target * 1e9,
                target_mode=sub.number("target_mode", 1, int),
                target_loading=str(sub.get("target_loading", "unloaded")),
                role=str(sub.get("role", "")),
            )))
        else:
            raise ConfigError(f"subsystem {sname!r}: unknown kind {kind!r}")
    names = [t.name for t in transmons] + [l.name for l in lines]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate subsystem names")

    junctions = []
    for entry in doc.items("junctions", ()):
        junction = Fields(entry, "junction")
        ident = str(junction.get("id"))
        junction.where = f"junction {ident!r}"
        nodes = junction.items("nodes", names=True)
        if len(nodes) != 2:
            raise ConfigError(f"{junction.where}: nodes must be a [neg, pos] pair")
        lj = junction.positive("lj_nh", None)
        ej = junction.positive("ej_ghz", None)
        junctions.append(JunctionConfig(**junction.done(
            ident=ident,
            node_neg=nodes[0],
            node_pos=nodes[1],
            subsystem=str(junction.get("subsystem")),
            lj_h=None if lj is None else lj * 1e-9,
            ej_j=None if ej is None else ej * 1e9 * constants.h,
            cj_f=junction.number("cj_ff", 0.0) * 1e-15,
        )))
    if len({j.ident for j in junctions}) != len(junctions):
        raise ConfigError("duplicate junction ids")

    inductors = []
    for entry in doc.items("inductors", ()):
        inductor = Fields(entry, "inductor")
        nodes = inductor.items("nodes", names=True)
        if len(nodes) != 2:
            raise ConfigError("inductor nodes must be a pair")
        inductor.where = f"inductor {nodes}"
        inductors.append(InductorConfig(**inductor.done(
            node_a=nodes[0], node_b=nodes[1],
            l_h=inductor.positive("l_nh") * 1e-9,
        )))

    ana = Fields(doc.get("analysis", {}), "analysis")
    # the pair defaults to the first transmon and the readout-role line, or the first line
    pair = {"qubit": transmons[0].name if transmons else "",
            "readout": next((l.name for l in lines if l.role == "readout"),
                            lines[0].name if lines else "")}
    kinds = dict(zip(names, ["transmon"] * len(transmons) + ["loaded line"] * len(lines)))
    errors = []
    for key, kind in (("qubit", "transmon"), ("readout", "loaded line")):
        pair[key] = str(ana.get(key, pair[key]))
        named = f"a {kinds[pair[key]]}" if pair[key] in kinds else f"no subsystem of {names}"
        if pair[key] and kinds.get(pair[key]) != kind:
            errors.append(f"analysis: {key} {pair[key]!r} names {named}; it must name a {kind}")
    if pair["qubit"] and pair["qubit"] == pair["readout"]:
        errors.append(f"analysis: qubit and readout both name {pair['qubit']!r}")
    if errors:
        raise ConfigError("\n".join(errors))
    analysis = AnalysisOptions(**ana.done(
        dimension_cap=ana.positive("dimension_cap", DEFAULT_DIMENSION_CAP, int),
        min_overlap=ana.number("min_overlap", DEFAULT_MIN_OVERLAP),
        **pair,
    ))

    return DeviceConfig(**doc.done(
        name=name,
        datum=datum,
        cells=tuple(cells),
        transmons=tuple(transmons),
        lines=tuple(lines),
        couplers=tuple(doc.items("couplers", (), names=True)),
        junctions=tuple(junctions),
        inductors=tuple(inductors),
        analysis=analysis,
        raw=raw,
        base_dir=base_dir,
    ))


def load_device_config(path: str | Path) -> DeviceConfig:
    return parse_device_config(read_yaml_file(path), base_dir=Path(path).parent)
