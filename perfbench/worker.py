"""Run one workload's CLI commands repeatedly in a fresh process.

``run.py`` starts this script with the checkout's ``src`` on PYTHONPATH
and every BLAS/OpenMP pool at one thread. It imports ``voipqos.cli`` once,
then repeats the workload's commands through ``voipqos.cli.entrypoint``
for about ``--seconds`` seconds (at least ``MIN_REPS`` times), each
repetition into an emptied output directory, and writes the timings to
``--result`` as JSON. Only the first repetition pays the first-call
costs, such as lazy imports; ``probe.py`` measures those for ``setup_s``.
The last repetition's output stays for checking.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones run with every binding in ``tracer.LAYERS`` wrapped.

In untraced repetitions ``reference_s`` times a fixed kernel that runs
no voipqos code before each command, and once more at the end. On a
shared host the speed can drift by half within minutes, for the kernel
as for the workload, so the ratio of the mean wall time to the mean
kernel time repeats from run to run where the wall time alone does not.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import struct
import sys
import time
import traceback
from pathlib import Path

import numpy as np

MIN_REPS = 3  # traced ones included
# one reference sample lasts about 0.3 s: long enough to average out the
# host's sub-second swings, short next to a command
REF_RUNS = 5


def _tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _reference_kernel() -> float:
    # the workload's kinds of work: numpy passes over a series, JSON export
    # of many small records, struct decoding of packet headers
    x = np.random.default_rng(0).standard_normal(200_000)
    acc = 0.0
    for _ in range(4):
        y = np.sort(x)
        acc += float(np.cumsum(y)[-1]) + float(np.std(y))
    acc += len(json.dumps([{"i": i, "v": float(v)} for i, v in enumerate(x[:20_000])]))
    buf = b"".join(struct.pack("!HHI", i & 0xFFFF, 7, i) for i in range(30_000))
    for off in range(0, len(buf), 8):
        acc += struct.unpack_from("!HHI", buf, off)[0]
    return acc


def reference_s() -> float:
    """Mean time of ``REF_RUNS`` runs of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(REF_RUNS):
        _reference_kernel()
    return (time.perf_counter() - t0) / REF_RUNS


def _run_command(entrypoint, argv) -> int:
    try:
        return entrypoint(argv)
    except Exception:  # a crash fails this command's operations
        traceback.print_exc()
        return -1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    from voipqos.cli import entrypoint

    from tracer import Tracer, install, layer_metrics
    from workloads import WORKLOADS

    commands = WORKLOADS[args.workload].commands(args.inputs, args.out)
    failed_cmds: set = set()
    tracer = Tracer()

    refs: list = []

    def rep(traced: bool) -> float:
        """Run the commands once and return their wall time. Untraced, the
        reference kernel is timed before each command, outside the wall
        time, so that its samples spread over the run."""
        shutil.rmtree(args.out, ignore_errors=True)
        args.out.mkdir(parents=True)
        gc.collect()
        if traced:
            tracer.reset()
            install(tracer)
        wall = 0.0
        try:
            for k, argv in enumerate(commands):
                if not traced:
                    refs.append(reference_s())
                t0 = time.perf_counter()
                rc = _run_command(entrypoint, argv)
                wall += time.perf_counter() - t0
                if rc != 0:
                    failed_cmds.add(k)
        finally:
            tracer.restore()
        return wall

    walls: list = []
    traced: list = []
    reference_s()  # warm-up
    start = time.perf_counter()
    rounds = 0
    while True:
        walls.append(rep(False))
        if args.trace:
            wall = rep(True)
            # analyze is the only command that writes directories
            export = [_tree_size(p) for p in args.out.iterdir() if p.is_dir()]
            traced.append({
                "wall": wall,
                "layers": layer_metrics(tracer.self_times(), tracer.counts),
                "attributed": sum(tracer.self_times().values()),
                "export_bytes": sum(b for b, _ in export),
                "export_files": sum(n for _, n in export),
                "spans": [list(s) for s in tracer.spans],
            })
        rounds += 1
        elapsed = time.perf_counter() - start
        enough = len(walls) + len(traced) >= MIN_REPS
        if enough and elapsed * (rounds + 1) / rounds > args.seconds:
            break

    refs.append(reference_s())
    result = {
        "walls": walls,
        "refs": refs,
        "failed_cmds": sorted(failed_cmds),
        "output_bytes": _tree_size(args.out)[0],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        # report the median traced repetition whole, so its layer self
        # times and unattributed time add up to its wall time
        middle = sorted(traced, key=lambda t: t["wall"])[len(traced) // 2]
        result["trace"] = {
            "walls": [t["wall"] for t in traced],
            "overhead_s": middle["wall"] - statistics.median(walls),
            **middle,
        }
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
