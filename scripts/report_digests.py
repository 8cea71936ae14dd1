#!/usr/bin/env python3
"""sha256 digests of lumpedq machine reports, for comparing two checkouts.

With no config arguments, writes the shipped benchmark device to a
temporary directory and prints the digest of the machine report of each of
``analyze --naive``, ``budget``, a 3-point ``sweep`` of the junction
inductance and ``analysis.calibrate_junction`` of that junction to a fixed
f_q within fixed bounds; it then writes the two seed-0 ``wide-chip``
devices of the benchmark (798 nodes each, made by ``wide_chip`` of
``perfbench/inputs.py``, which it imports and does not change) and prints
their ``analyze`` and ``analyze --naive`` digests. Given device config paths, prints the
``analyze`` and the ``analyze --naive`` digest of each instead. Run it from
each checkout and compare the lines:

    PYTHONPATH=src python scripts/report_digests.py [config ...]

Equal digests mean byte-identical reports. When a change reorders a sum,
the last bits move; ``--save DIR`` keeps the reports of one checkout and
``--against DIR`` compares the other checkout's reports with them field by
field. For each report it prints, per unit, the largest absolute change of
any numeric field, and it exits 1 when a field in Hz moved by more than
1e-3 Hz or when anything other than a number changed:

    PYTHONPATH=src python scripts/report_digests.py --save /tmp/before [config ...]
    # switch checkouts
    PYTHONPATH=src python scripts/report_digests.py --against /tmp/before [config ...]
"""

import argparse
import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from lumpedq.analysis import calibrate_junction
from lumpedq.benchmark import write_benchmark
from lumpedq.cli import main as lumpedq_main
from lumpedq.config import load_device_config
from lumpedq.report import to_machine

CONFIG_RUNS = {
    "analyze": ["analyze"],
    "analyze --naive": ["analyze", "--naive"],
}
SHIPPED_RUNS = {
    "analyze --naive": ["analyze", "--naive"],
    "budget": ["budget"],
    "sweep": ["sweep", "--param", "junctions.j1.lj_nh", "--values", "11,12,13"],
}
# junction, target f_q (Hz) and L_j bounds (H) of the shipped-device calibration
CALIBRATION = ("j1", 5.3e9, (10e-9, 14e-9))
HZ_BOUND = 1e-3  # largest change in Hz a summation reorder may cause
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WIDE_CHIP_SEED = 0


class ReportMismatch(Exception):
    """Two reports differ in something other than a numeric value."""


def wide_chip_configs(directory: Path) -> list[Path]:
    """Write the benchmark's seed-0 wide-chip devices into ``directory`` with
    its own generator and return their config paths. The import leaves
    ``perfbench/`` as it is: no bytecode is written there."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from inputs import wide_chip
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return [op.config for op in wide_chip(WIDE_CHIP_SEED, directory)]


def run_report(args: list[str], config: Path, out: Path) -> bytes:
    """Run one subcommand with a machine-format report and return that report."""
    code = lumpedq_main([args[0], str(config), *args[1:], "--format", "machine", "-o", str(out)])
    if code != 0:
        raise SystemExit(f"lumpedq {' '.join(args)} {config} exited with code {code}")
    return out.read_bytes()


def calibration_report(config: Path) -> bytes:
    """The machine report of the CALIBRATION of the device at ``config``."""
    junction, target_hz, bounds_h = CALIBRATION
    _, report = calibrate_junction(load_device_config(config), junction, target_hz, bounds_h)
    return to_machine(report).encode("utf-8")


def numeric_changes(old, new, path: str = ""):
    """Yield (unit, |new - old|, path) for every numeric field of two parsed
    reports; a quantity {"unit", "value"} carries its unit, a bare number
    has unit "1". Raise ReportMismatch where anything else differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise ReportMismatch(f"{path or '(root)'}: keys {sorted(old)} != {sorted(new)}")
        if old.keys() == {"unit", "value"} and old["unit"] == new["unit"]:
            yield old["unit"], abs(new["value"] - old["value"]), path
            return
        for key in old:
            yield from numeric_changes(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise ReportMismatch(f"{path}: {len(old)} != {len(new)} items")
        for k, (a, b) in enumerate(zip(old, new)):
            yield from numeric_changes(a, b, f"{path}[{k}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        yield "1", abs(new - old), path
    elif old != new:
        raise ReportMismatch(f"{path}: {old!r} != {new!r}")


def compare(saved: Path, report: bytes) -> tuple[bool, str]:
    """Whether ``report`` is within the Hz bound of the saved one, and a
    summary of the largest change per unit."""
    try:
        changes = list(numeric_changes(json.loads(saved.read_bytes()), json.loads(report)))
    except ReportMismatch as exc:
        return False, f"differs beyond numbers: {exc}"
    largest: dict[str, tuple[float, str]] = {}
    for unit, change, path in changes:
        if change > largest.get(unit, (-1.0, ""))[0]:
            largest[unit] = (change, path)
    ok = largest.get("Hz", (0.0, ""))[0] <= HZ_BOUND
    summary = "; ".join(f"{unit} {change:.3e} at {path}" if change else f"{unit} 0"
                        for unit, (change, path) in sorted(largest.items()))
    return ok, f"largest change per unit: {summary or 'no numeric fields'}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("configs", nargs="*", type=Path,
                        help="device configs to digest with analyze and analyze --naive")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--save", type=Path, metavar="DIR",
                       help="also write each machine report into DIR")
    group.add_argument("--against", type=Path, metavar="DIR",
                       help="compare each report with the one saved in DIR")
    args = parser.parse_args()

    within = True
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        # (title, report file key, function producing the report)
        if args.configs:
            runs = [(f"{name} {config}", f"config{k}-{name}",
                     functools.partial(run_report, run, config, out))
                    for k, config in enumerate(args.configs)
                    for name, run in CONFIG_RUNS.items()]
        else:
            config = write_benchmark(Path(tmp) / "device")
            runs = [(f"{name} (shipped device)", f"shipped-{name}",
                     functools.partial(run_report, run, config, out))
                    for name, run in SHIPPED_RUNS.items()]
            runs.append(("calibrate (shipped device)", "shipped-calibrate",
                         functools.partial(calibration_report, config)))
            runs += [(f"{name} (wide-chip seed {WIDE_CHIP_SEED} device {d})",
                      f"wide{d}-{name}", functools.partial(run_report, run, config, out))
                     for d, config in enumerate(wide_chip_configs(Path(tmp) / "wide-chip"))
                     for name, run in CONFIG_RUNS.items()]
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
        for title, key, produce in runs:
            report = produce()
            print(f"{hashlib.sha256(report).hexdigest()}  {title}")
            filename = key.replace(" --", "-") + ".json"
            if args.save:
                (args.save / filename).write_bytes(report)
            if args.against:
                ok, summary = compare(args.against / filename, report)
                within &= ok
                print(f"    {'ok' if ok else 'FAIL'}: {summary}")
    if not within:
        print(f"a report changed by more than {HZ_BOUND:g} Hz or beyond its numbers",
              file=sys.stderr)
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
