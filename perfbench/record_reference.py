"""Record the reference observables of every workload's default-seed inputs.

Run from the repository root:

    python3 perfbench/record_reference.py

It rewrites perfbench/reference.json. A benchmark run on the default seed
holds every op's observables to these values within 1 Hz.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.prepare_program(run.blas_threads())
    import checks
    import inputs
    import workloads
    from lumpedq import config

    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_ROOT))
    doc = {"seed": inputs.DEFAULT_SEED, "tolerance_hz": checks.REFERENCE_TOL_HZ, "workloads": {}}
    try:
        for workload in run.WORKLOADS:
            ops = inputs.generate(workload, inputs.DEFAULT_SEED, work / workload)
            configs = {op.config: config.load_device_config(op.config) for op in ops}
            recorded = []
            for position, op in enumerate(ops):
                report = json.loads(workloads.run_op(op, configs)[1])
                problems = checks.sanity(report, op, configs[op.config].raw)
                if op.index != position or problems:
                    print(f"{workload} op {position}: {problems}", file=sys.stderr)
                    return 1
                recorded.append(checks.observables(report))
            doc["workloads"][workload] = recorded
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
