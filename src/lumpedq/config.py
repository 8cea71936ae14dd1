"""Device configuration schema.

Configurations are YAML documents; every physical value carries its unit in
the field name (lj_nh, cj_ff, z0_ohm, ...). The parsed dataclasses keep the
raw mapping around so sweeps and budget rows can derive modified configs by
dotted-path overrides.
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

_TERMINATIONS = {"open": False, "short": True}


def parse_termination(entry: Mapping[str, Any], where: str) -> bool:
    """Whether the line described by ``entry`` has a shorted far end; its
    ``termination`` is open (the default) or short."""
    termination = str(entry.get("termination", "open"))
    if termination not in _TERMINATIONS:
        raise ConfigError(f"{where}: termination must be open or short")
    return _TERMINATIONS[termination]


_REQUIRED = object()


def parse_number(entry: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED,
                 kind: type = float):
    """``entry[key]`` as a finite ``kind`` (float or int), or ``default`` when
    the field is absent or null; a field without a default is required. A
    value that is not a finite number (a boolean is not one), or not a whole
    number for an int field, raises ConfigError naming the field."""
    if entry.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    return _finite(entry[key], key, where, kind)


def parse_positive(entry: Mapping[str, Any], key: str, where: str, default: Any = _REQUIRED):
    """``parse_number`` of a float field that must be positive when given."""
    number = parse_number(entry, key, where, default)
    if number is not None and not number > 0.0:
        raise ConfigError(f"{where}: {key} must be positive, got {entry[key]!r}")
    return number


def _finite(value: Any, key: str, where: str, kind: type = float):
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


def check_fields(entry: Any, fields: tuple[str, ...], where: str) -> None:
    """Raise ConfigError unless ``entry`` is a mapping whose every key is one
    of the ``fields`` its parser reads; the error names each other key."""
    if not isinstance(entry, Mapping):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = [key for key in entry if key not in fields]
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(map(repr, unknown))}")


def parse_phase_velocity(entry: Mapping[str, Any], where: str) -> float:
    """Phase velocity in m/s of the line described by ``entry``, from its
    ``vp_m_per_s`` or else its ``vp_fraction_c`` times c."""
    if entry.get("vp_m_per_s") is not None:
        if entry.get("vp_fraction_c") is not None:
            raise ConfigError(f"{where}: give one of vp_m_per_s or vp_fraction_c")
        return parse_number(entry, "vp_m_per_s", where)
    if entry.get("vp_fraction_c") is not None:
        return parse_number(entry, "vp_fraction_c", where) * constants.c
    raise ConfigError(f"{where}: need vp_m_per_s or vp_fraction_c")


def load_yaml(text: str) -> Any:
    """Parse a YAML document with PyYAML's safe loader, through libyaml's C
    implementation when PyYAML was built with it."""
    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@dataclass(frozen=True)
class CellConfig:
    ident: str
    maxwell_file: Path
    maxwell_entry: str  # maxwell_file as written in the config
    ground_nets: tuple[str, ...] = ()


@dataclass(frozen=True)
class TransmonConfig:
    name: str
    nodes: tuple[str, ...]
    levels: int = 5
    n_max: int = 30
    q_offset_2e: float = 0.0


@dataclass(frozen=True)
class LineConfig:
    name: str
    nodes: tuple[str, ...]  # port node(s); first entry is the loaded end
    z0_ohm: float
    vp_m_per_s: float
    shorted_end: bool = False
    modes: int = 1
    levels: tuple[int, ...] = (5,)
    length_m: float | None = None
    target_hz: float | None = None
    target_mode: int = 1
    target_loading: str = "unloaded"  # unloaded | dressed
    role: str = ""

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
    lj_h: float | None = None
    ej_j: float | None = None
    cj_f: float = 0.0

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
    dimension_cap: int = DEFAULT_DIMENSION_CAP
    min_overlap: float = DEFAULT_MIN_OVERLAP
    qubit: str = ""
    readout: str = ""

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
    inductors: tuple[InductorConfig, ...] = ()
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    raw: Mapping[str, Any] = field(default_factory=dict, compare=False)
    base_dir: Path = Path(".")

    def subsystem_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.transmons) + tuple(l.name for l in self.lines)

    def with_override(self, dotted_path: str, value) -> "DeviceConfig":
        """New config with one raw field replaced; list entries are addressed
        by their id/name key (for example ``junctions.j1.lj_nh``)."""
        return self.with_overrides({dotted_path: value})

    def with_overrides(self, overrides: Mapping[str, Any]) -> "DeviceConfig":
        raw = copy.deepcopy(dict(self.raw))
        for dotted_path, value in overrides.items():
            parts = dotted_path.split(".")
            node = raw
            for part in parts[:-1]:
                if isinstance(node, list):
                    node = _find_named(node, part, dotted_path)
                elif part in node:
                    node = node[part]
                else:
                    raise ConfigError(f"override path {dotted_path!r}: no field {part!r}")
            leaf = parts[-1]
            if isinstance(node, list):
                raise ConfigError(f"override path {dotted_path!r} ends on a list")
            node[leaf] = value
        return parse_device_config(raw, base_dir=self.base_dir)


def _find_named(entries: list, key: str, path: str) -> dict:
    for entry in entries:
        if entry.get("id") == key or entry.get("name") == key:
            return entry
    raise ConfigError(f"override path {path!r}: no entry named {key!r}")


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return mapping[key]


def parse_device_config(raw: Mapping[str, Any], base_dir: str | Path = ".") -> DeviceConfig:
    base_dir = Path(base_dir)
    check_fields(raw, ("name", "datum", "cells", "couplers", "subsystems", "junctions",
                       "inductors", "analysis"), "config")
    name = str(raw.get("name", "device"))
    datum = str(_require(raw, "datum", "config"))

    cells = []
    for entry in _require(raw, "cells", "config"):
        ident = str(_require(entry, "id", "cell"))
        check_fields(entry, ("id", "maxwell_file", "ground_nets"), f"cell {ident!r}")
        maxwell_entry = str(_require(entry, "maxwell_file", f"cell {ident!r}"))
        cells.append(CellConfig(
            ident=ident,
            maxwell_file=base_dir / maxwell_entry,
            maxwell_entry=maxwell_entry,
            ground_nets=tuple(entry.get("ground_nets", ())),
        ))
    if len({c.ident for c in cells}) != len(cells):
        raise ConfigError("duplicate cell ids")

    transmons: list[TransmonConfig] = []
    lines: list[LineConfig] = []
    for entry in _require(raw, "subsystems", "config"):
        kind = _require(entry, "kind", "subsystem")
        sname = str(_require(entry, "name", "subsystem"))
        nodes = tuple(str(n) for n in _require(entry, "nodes", f"subsystem {sname!r}"))
        if kind == "transmon":
            where = f"subsystem {sname!r}"
            check_fields(entry, ("name", "kind", "nodes", "levels", "n_max", "q_offset_2e"),
                         where)
            transmons.append(TransmonConfig(
                name=sname,
                nodes=nodes,
                levels=parse_number(entry, "levels", where, 5, int),
                n_max=parse_number(entry, "n_max", where, 30, int),
                q_offset_2e=parse_number(entry, "q_offset_2e", where, 0.0),
            ))
        elif kind == "loaded_line":
            where = f"line {sname!r}"
            check_fields(entry, ("name", "kind", "role", "nodes", "z0_ohm", "vp_m_per_s",
                                 "vp_fraction_c", "termination", "length_mm", "target_ghz",
                                 "target_mode", "target_loading", "modes", "levels"), where)
            modes = parse_number(entry, "modes", where, 1, int)
            levels = entry.get("levels", 5)
            levels = tuple(_finite(v, "levels", where, int) for v in levels) \
                if isinstance(levels, (list, tuple)) \
                else (parse_number(entry, "levels", where, 5, int),) * modes
            length = parse_number(entry, "length_mm", where, None)
            target = parse_number(entry, "target_ghz", where, None)
            lines.append(LineConfig(
                name=sname,
                nodes=nodes,
                z0_ohm=parse_number(entry, "z0_ohm", where),
                vp_m_per_s=parse_phase_velocity(entry, where),
                shorted_end=parse_termination(entry, where),
                modes=modes,
                levels=levels,
                length_m=None if length is None else length * 1e-3,
                target_hz=None if target is None else target * 1e9,
                target_mode=parse_number(entry, "target_mode", where, 1, int),
                target_loading=str(entry.get("target_loading", "unloaded")),
                role=str(entry.get("role", "")),
            ))
        else:
            raise ConfigError(f"subsystem {sname!r}: unknown kind {kind!r}")
    names = [t.name for t in transmons] + [l.name for l in lines]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate subsystem names")

    junctions = []
    for entry in raw.get("junctions", ()):
        ident = str(_require(entry, "id", "junction"))
        where = f"junction {ident!r}"
        check_fields(entry, ("id", "nodes", "subsystem", "lj_nh", "ej_ghz", "cj_ff"), where)
        nodes = _require(entry, "nodes", where)
        if len(nodes) != 2:
            raise ConfigError(f"{where}: nodes must be a [neg, pos] pair")
        lj = parse_positive(entry, "lj_nh", where, None)
        ej = parse_positive(entry, "ej_ghz", where, None)
        junctions.append(JunctionConfig(
            ident=ident,
            node_neg=str(nodes[0]),
            node_pos=str(nodes[1]),
            subsystem=str(_require(entry, "subsystem", where)),
            lj_h=None if lj is None else lj * 1e-9,
            ej_j=None if ej is None else ej * 1e9 * constants.h,
            cj_f=parse_number(entry, "cj_ff", where, 0.0) * 1e-15,
        ))
    if len({j.ident for j in junctions}) != len(junctions):
        raise ConfigError("duplicate junction ids")

    inductors = []
    for entry in raw.get("inductors", ()):
        nodes = _require(entry, "nodes", "inductor")
        if len(nodes) != 2:
            raise ConfigError("inductor nodes must be a pair")
        where = f"inductor {list(nodes)}"
        check_fields(entry, ("nodes", "l_nh"), where)
        inductors.append(InductorConfig(
            node_a=str(nodes[0]), node_b=str(nodes[1]),
            l_h=parse_positive(entry, "l_nh", where) * 1e-9,
        ))

    ana = raw.get("analysis", {})
    check_fields(ana, ("qubit", "readout", "dimension_cap", "min_overlap"), "analysis")
    default_qubit = transmons[0].name if transmons else ""
    default_readout = ""
    for line in lines:
        if line.role == "readout":
            default_readout = line.name
            break
    else:
        if lines:
            default_readout = lines[0].name
    analysis = AnalysisOptions(
        dimension_cap=parse_number(ana, "dimension_cap", "analysis", DEFAULT_DIMENSION_CAP, int),
        min_overlap=parse_number(ana, "min_overlap", "analysis", DEFAULT_MIN_OVERLAP),
        qubit=str(ana.get("qubit", default_qubit)),
        readout=str(ana.get("readout", default_readout)),
    )

    return DeviceConfig(
        name=name,
        datum=datum,
        cells=tuple(cells),
        transmons=tuple(transmons),
        lines=tuple(lines),
        couplers=tuple(str(n) for n in raw.get("couplers", ())),
        junctions=tuple(junctions),
        inductors=tuple(inductors),
        analysis=analysis,
        raw=raw,
        base_dir=base_dir,
    )


def load_device_config(path: str | Path) -> DeviceConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        raw = load_yaml(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    return parse_device_config(raw, base_dir=path.parent)
