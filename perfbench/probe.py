"""Time what a one-shot CLI call pays before its real work.

``run.py`` starts this script in a fresh interpreter, with the checkout's
``src`` on PYTHONPATH, as

    python3 perfbench/probe.py --workload W --inputs DIR --out DIR --result FILE

It times ``import voipqos.cli`` alone, before anything else is imported.
Then it runs the workload's commands twice on the small probe inputs in
``DIR``. The first run pays the first-call costs that a user's one-shot
CLI call pays, such as lazy imports and caches filled on first use; the
second does not. Their difference is the first-call excess. The timings
go to ``--result`` as JSON; the script exits non-zero if a command fails.
"""

import time

t0 = time.perf_counter()
import voipqos.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    commands = WORKLOADS[args.workload].commands(args.inputs, args.out)
    runs = []
    for _ in range(2):
        shutil.rmtree(args.out, ignore_errors=True)
        args.out.mkdir(parents=True)
        start = time.perf_counter()
        rcs = [voipqos.cli.entrypoint(argv) for argv in commands]
        runs.append(time.perf_counter() - start)
        if any(rcs):
            print(f"probe command failed: {rcs}", file=sys.stderr)
            return 1
    args.result.write_text(json.dumps({
        "import": IMPORT_S, "first": runs[0], "again": runs[1],
        "file": voipqos.__file__,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
