"""Analysis report assembly and rendering.

The machine format is a single self-describing JSON document with units
embedded per field and keys emitted in sorted order, so identical inputs
produce byte-identical output. No physics is computed here; every value is
taken from a module operation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .loadedline import MODE_RESIDUAL_RTOL
from .netlist import KERNEL_RTOL, SYMMETRY_RTOL

CONVENTIONS = {
    "frequencies": "transition frequency (E_state - E_ground)/h, hertz",
    "alpha": "anharmonicity f02 - 2*f01 of the qubit mode; negative for a transmon",
    "chi": "cross-Kerr (E11 - E10 - E01 + E00)/h; negative when an excited "
           "qubit pulls the readout down",
    "g": "linear rate g/2pi in hertz from hbar*g = A_n*B_m*[C_k^-1]_nm with "
         "A = 2e (Cooper-pair number) or A = Q_zpf (harmonic quadrature)",
    "coupling_reciprocals": "1/C_nm_eff and 1/L_nm_eff carry a factor two "
                            "relative to the inverse-matrix entries; the "
                            "assembled pair energy uses half of them",
}

# advertised tolerances, each checked at run time by the module defining it
TOLERANCES = {
    "kernel_rtol": KERNEL_RTOL,
    "symmetry_rtol": SYMMETRY_RTOL,
    "mode_residual_rtol": MODE_RESIDUAL_RTOL,
}


def _qty(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


@dataclass(frozen=True)
class AnalysisReport:
    device: str
    provenance: Mapping[str, Any]
    observables: Mapping[str, Any]
    naive: Mapping[str, Any] | None = None
    budget: Sequence[Mapping[str, Any]] = ()
    swept: Mapping[str, float] = field(default_factory=dict)
    calibrated: Mapping[str, float] = field(default_factory=dict)
    warnings_: Sequence[str] = ()


def make_provenance(config, input_sha256: Mapping[str, str]) -> dict:
    """Tool version, config hash, the sha256 of each input file as parsed
    (keyed by its config entry) and the advertised tolerances."""
    canonical_cfg = json.dumps(config.raw, sort_keys=True, default=str)
    return {
        "tool_version": __version__,
        "config_sha256": hashlib.sha256(canonical_cfg.encode()).hexdigest(),
        "input_sha256": dict(input_sha256),
        "tolerances": TOLERANCES,
    }


def _observable_block(model) -> dict:
    obs: dict[str, Any] = {}
    if model.dispersive is not None:
        d = model.dispersive
        obs["dispersive"] = {
            "f_qubit": _qty(d.f_qubit, "Hz"),
            "f_readout": _qty(d.f_readout, "Hz"),
            "alpha_qubit": _qty(d.alpha_qubit, "Hz"),
            "chi_qr": _qty(d.chi_qr, "Hz"),
        }

    modes = {}
    dressed = model.dressed_mode_frequencies()
    for name, f in zip(model.flat_mode_names, dressed):
        modes[name] = _qty(f, "Hz")
    obs["dressed_modes"] = modes

    effective = {}
    for name, spec in model.transmon_specs.items():
        effective[f"c_eff:{name}"] = _qty(spec.c_eff, "F")
        effective[f"ec:{name}"] = _qty(spec.e_c, "J")
        effective[f"ej:{name}"] = _qty(spec.ej, "J")
    for name, line in model.lines.items():
        effective[f"c_load:{name}"] = _qty(line.dressed_loading, "F")
        for port, value in line.port_loadings.items():
            effective[f"c_load:{name}:{port}"] = _qty(value, "F")
        for mode in line.modes:
            effective[f"f_bare:{name}[{mode.index}]"] = _qty(mode.frequency, "Hz")
            effective[f"p_load:{name}[{mode.index}]"] = _qty(mode.p_load, "1")
    obs["effective_parameters"] = effective

    g = {}
    for (sub_a, ma, sub_b, mb), rate in sorted(model.coupling_rates().items()):
        g[f"{sub_a}[{ma}]|{sub_b}[{mb}]"] = _qty(rate / (2.0 * math.pi), "Hz")
    obs["g_matrix"] = g

    chi = {}
    kerr = model.cross_kerr()
    names = model.flat_mode_names
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            if not np.isnan(kerr[a, b]):
                chi[f"{names[a]}|{names[b]}"] = _qty(kerr[a, b], "Hz")
    obs["chi_matrix"] = chi
    return obs


def build_report(model, naive_model=None, swept=None, calibrated=None) -> AnalysisReport:
    naive_block = _observable_block(naive_model) if naive_model is not None else None
    return AnalysisReport(
        device=model.config.name,
        provenance=make_provenance(model.config, model.circuit.input_sha256),
        observables=_observable_block(model),
        naive=naive_block,
        swept=dict(swept or {}),
        calibrated=dict(calibrated or {}),
    )


def budget_to_dicts(rows) -> list[dict]:
    return [
        {
            "feature": r.feature,
            "variation": r.variation,
            "chi_qr": _qty(r.chi_hz, "Hz"),
            "delta": _qty(r.delta_percent, "%"),
        }
        for r in rows
    ]


def to_machine(report: AnalysisReport) -> str:
    doc = {
        "format": "lumpedq-report/1",
        "device": report.device,
        "conventions": CONVENTIONS,
        "provenance": report.provenance,
        "observables": report.observables,
    }
    if report.naive is not None:
        doc["naive"] = report.naive
    if report.budget:
        doc["budget"] = list(report.budget)
    if report.swept:
        doc["swept"] = report.swept
    if report.calibrated:
        doc["calibrated"] = {k: _qty(v, "H") for k, v in report.calibrated.items()}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt_qty(q: Mapping[str, Any]) -> str:
    value, unit = q["value"], q["unit"]
    if unit == "Hz" and abs(value) >= 1e6:
        return f"{value / 1e9:12.6f} GHz"
    if unit == "Hz":
        return f"{value / 1e3:12.3f} kHz"
    if unit == "F":
        return f"{value / 1e-15:12.4f} fF"
    if unit == "J":
        return f"{value:12.6e} J"
    if unit == "%":
        return f"{value:+10.3f} %"
    return f"{value:12.6g} {unit}"


def _table_section(title: str, block: Mapping[str, Any], lines: list[str]) -> None:
    if not block:
        return
    lines.append(title)
    width = max(len(k) for k in block)
    for key in block:
        lines.append(f"  {key:<{width}}  {_fmt_qty(block[key])}")
    lines.append("")


def to_table(report: AnalysisReport) -> str:
    lines = [f"device: {report.device}", ""]
    obs = report.observables
    if "dispersive" in obs:
        _table_section("dispersive observables", obs["dispersive"], lines)
    _table_section("dressed mode frequencies", obs.get("dressed_modes", {}), lines)
    _table_section("effective parameters", obs.get("effective_parameters", {}), lines)
    _table_section("coupling rates g/2pi", obs.get("g_matrix", {}), lines)
    _table_section("cross-Kerr matrix", obs.get("chi_matrix", {}), lines)
    if report.naive:
        lines.append("naive comparison (undressed fields, weak-coupling reduction)")
        _table_section("  naive dispersive", report.naive.get("dispersive", {}), lines)
        _table_section("  naive dressed modes", report.naive.get("dressed_modes", {}), lines)
    if report.budget:
        lines.append("sensitivity budget (delta chi_qr vs full model)")
        for row in report.budget:
            lines.append(
                f"  {row['feature']:<24} {row['variation']:<28} "
                f"{_fmt_qty(row['chi_qr'])}  {_fmt_qty(row['delta'])}"
            )
        lines.append("")
    lines.append(f"tool version {report.provenance['tool_version']}; "
                 f"config sha256 {report.provenance['config_sha256'][:12]}")
    return "\n".join(lines) + "\n"
