"""Record the reference outputs the benchmark checks its invocations against.

    python3 bench/record_reference.py

Runs every workload once at ``REFERENCE_SEED`` and writes
``bench/reference.json``.  Re-record only when an output is meant to change,
and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench.run import OUT_DIR, import_program, invoke, pin_single_core  # noqa: E402

REFERENCE_SEED = 0


def main() -> int:
    pin_single_core()
    from bench import checks
    from bench.workloads import WORKLOADS, invocation_argv, write_inputs

    cli = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    outputs = {}
    for workload in WORKLOADS.values():
        command = workload.argv[0]
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
            argv = invocation_argv(workload, REFERENCE_SEED,
                                   write_inputs(workload, REFERENCE_SEED, work_dir))
            code, text, _ = invoke(cli, argv)
        problems = ([] if code == 0 else [f"exit code {code}"]) + checks.structure_problems(command, text)
        if problems:
            print(f"{workload.name}: {problems}", file=sys.stderr)
            return 1
        outputs[workload.name] = checks.make_reference(command, text)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": REFERENCE_SEED, "outputs": outputs}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
