#!/usr/bin/env python3
"""sha256 digests of lumpedq machine reports, for byte-for-byte comparisons
of two checkouts.

With no arguments, writes the shipped benchmark device to a temporary
directory and prints the digest of the machine report of each of
``analyze --naive``, ``budget`` and a 3-point ``sweep`` of the junction
inductance. Given device config paths, prints the ``analyze`` and the
``analyze --naive`` digest of each. Run it from each checkout and compare
the lines:

    PYTHONPATH=src python scripts/report_digests.py [config ...]
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from lumpedq.benchmark import write_benchmark
from lumpedq.cli import main as lumpedq_main

CONFIG_RUNS = {
    "analyze": ["analyze"],
    "analyze --naive": ["analyze", "--naive"],
}
SHIPPED_RUNS = {
    "analyze --naive": ["analyze", "--naive"],
    "budget": ["budget"],
    "sweep": ["sweep", "--param", "junctions.j1.lj_nh", "--values", "11,12,13"],
}


def report_digest(args: list[str], config: Path, out: Path) -> str:
    """Run one subcommand with a machine-format report and hash that report."""
    code = lumpedq_main([args[0], str(config), *args[1:], "--format", "machine", "-o", str(out)])
    if code != 0:
        raise SystemExit(f"lumpedq {' '.join(args)} {config} exited with code {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("configs", nargs="*", type=Path,
                        help="device configs to digest with analyze and analyze --naive")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        if args.configs:
            for config in args.configs:
                for name, run in CONFIG_RUNS.items():
                    print(f"{report_digest(run, config, out)}  {name} {config}")
        else:
            config = write_benchmark(Path(tmp) / "device")
            for name, run in SHIPPED_RUNS.items():
                print(f"{report_digest(run, config, out)}  {name} (shipped device)")


if __name__ == "__main__":
    main()
