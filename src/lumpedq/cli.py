"""Command-line interface.

Subcommands: ``analyze`` (dressed observables for one device), ``sweep``
(one parameter over a value list), ``budget`` (sensitivity table), and
``modes`` (loaded-line eigensolutions with field-profile data series).
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import NumericalError, ValidationError


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> None:
    from .analysis import run_analysis
    from .config import load_device_config
    from .report import to_machine, to_table

    config = load_device_config(args.config)
    report = run_analysis(config, naive=args.naive)
    _write(to_machine(report) if args.format == "machine" else to_table(report), args.output)


def _cmd_sweep(args) -> None:
    from .analysis import run_sweep
    from .config import load_device_config, parse_finite
    from .report import to_machine, to_table

    values = [parse_finite(v, "--values", "sweep") for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValidationError("no sweep values given")
    config = load_device_config(args.config)
    reports = run_sweep(config, args.param, values)
    if args.format == "machine":
        docs = [json.loads(to_machine(r)) for r in reports]
        _write(json.dumps({"sweep": args.param, "points": docs}, sort_keys=True, indent=2) + "\n",
               args.output)
    else:
        _write("".join(to_table(r) + "\n" for r in reports), args.output)


def _cmd_budget(args) -> None:
    from .analysis import build_model, run_analysis, run_budget
    from .config import load_device_config
    from .report import budget_to_dicts, to_machine, to_table

    config = load_device_config(args.config)
    model = build_model(config)
    rows = run_budget(config, base=model)
    report = dataclasses.replace(run_analysis(config, model=model), budget=budget_to_dicts(rows))
    _write(to_machine(report) if args.format == "machine" else to_table(report), args.output)


def _cmd_modes(args) -> None:
    import numpy as np

    from .config import Fields, load_yaml
    from .loadedline import LoadedLineSpec, solve_modes

    if args.samples < 0:
        raise ValidationError(f"modes: --samples must not be negative, got {args.samples}")
    line = Fields(load_yaml(Path(args.line_spec).read_text(encoding="utf-8")), args.line_spec)
    spec = LoadedLineSpec.from_wave_params(**line.done(
        length=line.number("length_mm") * 1e-3,
        z0=line.number("z0_ohm"),
        v_p=line.phase_velocity(),
        c_load=line.number("c_load_ff", 0.0) * 1e-15,
        shorted_end=line.shorted_end(),
    ))
    modes = solve_modes(spec, args.count)
    z = np.linspace(0.0, spec.length, args.samples)
    if args.format == "machine":
        doc = {
            "format": "lumpedq-modes/1",
            "line": {
                "length": {"value": spec.length, "unit": "m"},
                "z0": {"value": spec.z0, "unit": "ohm"},
                "v_p": {"value": spec.v_p, "unit": "m/s"},
                "c_load": {"value": spec.c_load, "unit": "F"},
                "termination": "short" if spec.shorted_end else "open",
                "dc_mode": spec.has_dc_mode,
            },
            "modes": [
                {
                    "index": m.index,
                    "frequency": {"value": m.frequency, "unit": "Hz"},
                    "wavenumber": {"value": m.k, "unit": "rad/m"},
                    "phase": {"value": m.phase, "unit": "rad"},
                    "p_load": {"value": m.p_load, "unit": "1"},
                    "q0_zpf": {"value": m.q0_zpf, "unit": "C"},
                    "field": {"z_m": z.tolist(), "u": m.u(z).tolist()},
                }
                for m in modes
            ],
        }
        _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    else:
        lines = [
            f"loaded line: L={spec.length * 1e3:.4f} mm, Z0={spec.z0:.2f} ohm, "
            f"v_p={spec.v_p:.4e} m/s, C_L={spec.c_load * 1e15:.2f} fF, "
            f"{'short' if spec.shorted_end else 'open'} end",
        ]
        if spec.has_dc_mode:
            lines.append("m=0 is the trivial zero-frequency (d.c.) branch; not quantized")
        lines.append(f"{'m':>3} {'f (GHz)':>12} {'k (rad/m)':>12} {'phase (rad)':>12} "
                     f"{'p_load':>10} {'Q0_zpf (C)':>12}")
        for m in modes:
            lines.append(f"{m.index:>3} {m.frequency / 1e9:>12.6f} {m.k:>12.4f} "
                         f"{m.phase:>12.6f} {m.p_load:>10.6f} {m.q0_zpf:>12.4e}")
        _write("\n".join(lines) + "\n", args.output)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumpedq",
        description="Dressed Hamiltonians of lumped superconducting circuit networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "machine"), default="table")
        p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("analyze", help="dressed observables for one device configuration")
    p.add_argument("config")
    p.add_argument("--naive", action="store_true",
                   help="also compute the conventional weak-coupling comparison model")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="rerun the analysis over one parameter")
    p.add_argument("config")
    p.add_argument("--param", required=True, help="dotted config path, e.g. junctions.j1.lj_nh")
    p.add_argument("--values", required=True, help="comma-separated values")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("budget", help="sensitivity budget of chi_qr")
    p.add_argument("config")
    common(p)
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("modes", help="loaded-line eigensolutions and field profiles")
    p.add_argument("line_spec", help="YAML file with line parameters")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--samples", type=int, default=201, help="field profile sample count")
    common(p)
    p.set_defaults(func=_cmd_modes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
