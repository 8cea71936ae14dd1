"""Correctness checks on the machine reports that benchmark ops return."""

from __future__ import annotations

import itertools
from typing import Any, Mapping

from inputs import CALIBRATION_JUNCTION, SWEEP_PARAM, Op

REFERENCE_TOL_HZ = 1.0  # absolute agreement gate for every recorded observable
# brentq stops within its absolute xtol of 2e-12 H, about 1.7e-4 of L_j; f_q
# scales as L_j^-1/2, so the calibrated f_q sits within 1e-4 of its target
CALIBRATION_RTOL = 1e-4
BUDGET_FEATURES = (
    "cell_padding",
    "coupling_hamiltonians",
    "junction_capacitance",
    "line_impedance",
    "line_impedance",
    "readout_first_harmonic",
    "substrate_permittivity",
)
DISPERSIVE_KEYS = ("alpha_qubit", "chi_qr", "f_qubit", "f_readout")


def observables(doc: Mapping[str, Any]) -> dict[str, float]:
    """Flat name -> hertz map of the observables the reference pins: the
    dispersive block, every dressed-mode frequency, the chi matrix and, for
    a budget report, the chi_qr of every budget row."""
    obs = doc["observables"]
    out = {}
    for block in ("dispersive", "dressed_modes", "chi_matrix"):
        for key, quantity in obs.get(block, {}).items():
            out[f"{block}.{key}"] = quantity["value"]
    for row in doc.get("budget", ()):
        out[f"budget.{row['feature']}.{row['variation']}"] = row["chi_qr"]["value"]
    return out


def compare_reference(found: Mapping[str, float], reference: Mapping[str, float],
                      tol_hz: float = REFERENCE_TOL_HZ) -> list[str]:
    """Every reference observable present and within ``tol_hz``, and no
    observable the reference does not know."""
    problems = []
    for name in sorted(set(found) | set(reference)):
        if name not in found:
            problems.append(f"{name}: missing from the report")
        elif name not in reference:
            problems.append(f"{name}: not in the reference")
        elif not abs(found[name] - reference[name]) <= tol_hz:
            problems.append(f"{name}: {found[name]!r} Hz against reference "
                            f"{reference[name]!r} Hz (tolerance {tol_hz} Hz)")
    return problems


def mode_names(raw: Mapping[str, Any]) -> list[str]:
    """Dressed-mode names in the report's order: transmons, then line modes."""
    subs = raw["subsystems"]
    names = [s["name"] for s in subs if s["kind"] == "transmon"]
    for s in subs:
        if s["kind"] == "loaded_line":
            modes = int(s.get("modes", 1))
            names += [f"{s['name']}[{m}]" for m in range(modes)] if modes > 1 else [s["name"]]
    return names


def sanity(doc: Mapping[str, Any], op: Op, raw: Mapping[str, Any]) -> list[str]:
    """Checks that hold for any seed: every required label present, alpha < 0
    and chi_qr < 0, plus the per-kind content of the report."""
    problems = []
    obs = doc.get("observables", {})
    dispersive = obs.get("dispersive", {})
    problems += [f"dispersive.{key}: missing" for key in DISPERSIVE_KEYS if key not in dispersive]
    for key in ("alpha_qubit", "chi_qr"):
        if key in dispersive and not dispersive[key]["value"] < 0.0:
            problems.append(f"dispersive.{key} = {dispersive[key]['value']!r} Hz is not negative")

    names = mode_names(raw)
    if sorted(obs.get("dressed_modes", {})) != sorted(names):
        problems.append(f"dressed modes {sorted(obs.get('dressed_modes', {}))} != {sorted(names)}")
    pairs = {f"{a}|{b}" for a, b in itertools.combinations(names, 2)}
    if set(obs.get("chi_matrix", {})) != pairs:
        problems.append(f"chi matrix lacks {sorted(pairs - set(obs.get('chi_matrix', {})))}")

    if op.kind == "budget":
        rows = doc.get("budget", ())
        if tuple(sorted(row["feature"] for row in rows)) != BUDGET_FEATURES:
            problems.append(f"budget rows {[row['feature'] for row in rows]}")
        problems += [f"budget row {row['feature']} ({row['variation']}): chi_qr is not negative"
                     for row in rows if not row["chi_qr"]["value"] < 0.0]
    elif op.kind == "calibrate":
        if CALIBRATION_JUNCTION not in doc.get("calibrated", {}):
            problems.append("calibrated junction missing from the report")
        if "f_qubit" in dispersive:
            f_q = dispersive["f_qubit"]["value"]
            if not abs(f_q - op.value) <= CALIBRATION_RTOL * op.value:
                problems.append(f"calibrated f_q {f_q!r} Hz misses the target {op.value!r} Hz")
    elif op.kind == "sweep":
        if doc.get("swept") != {SWEEP_PARAM: op.value}:
            problems.append(f"swept block {doc.get('swept')!r} != {{{SWEEP_PARAM!r}: {op.value!r}}}")
    return problems
