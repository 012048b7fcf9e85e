"""voipqos benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long_call --seed 1 --seconds 10 --trace 0

Steps, in order:

1. Generate the workload's inputs, and small probe inputs of the same
   shape, from ``--seed`` into ``.perfbench_work/<workload>/inputs``
   (reused when the seed, the generator and the package sources are
   unchanged). Generation is never timed.
2. Set-up: ``probe.py`` times ``import voipqos.cli`` alone in a fresh
   interpreter, then the first-call excess of the workload's commands on
   the probe inputs. ``setup_s`` is their sum: what every one-shot CLI
   call pays before its real work. The probe runs ``SETUP_REPS`` times
   before step 3 and as many times after it, so the samples span the run.
   With ``--trace 1``, another fresh interpreter as often imports
   ``numpy``, then ``scipy.stats``, then ``voipqos.cli``, timing each.
3. Start ``worker.py`` in one fresh single-threaded process, which runs
   the workload's CLI commands through ``voipqos.cli.entrypoint`` for
   about ``--seconds`` seconds (see its docstring).
4. Check the last repetition's outputs against the generator's ground
   truth (see ``checker.py``).

Times are medians over the repetitions of the run, except ``wall_ref``:
the mean wall time of a repetition divided by the mean time of a fixed
reference kernel timed between the commands in the same process (see
``worker.py``), so that it does not follow the host's speed.
``host.reference_s`` is the kernel's median time; ``wall_ref`` times it
is close to the median wall time in seconds.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from the traced repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_REPS = 2
DEADLINE_S = 170  # the whole run, generation and checks included

SPLIT_CODE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.stats
t2 = time.perf_counter()
import voipqos.cli
t3 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "scipy_stats": t2 - t1,
                  "voipqos": t3 - t2, "file": voipqos.__file__}))
"""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def prepare_inputs(workload, inputs: Path, seed: int, src: Path) -> dict:
    """Generate the inputs unless this seed and the same generator and
    package sources (whose wire encoders it uses) made them already."""
    sources = [HERE / "capgen.py", HERE / "workloads.py",
               *sorted(src.rglob("*.py"))]
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    stamp = inputs / "stamp.json"
    if stamp.is_file():
        meta = json.loads(stamp.read_text())
        if meta["seed"] == seed and meta["digest"] == digest:
            return meta
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    meta = {"seed": seed, "digest": digest,
            **workload.prepare(inputs, seed, False)}
    (inputs / "probe").mkdir()
    workload.prepare(inputs / "probe", seed, True)
    stamp.write_text(json.dumps(meta) + "\n")
    return meta


def _from_src(run: dict, src: Path) -> dict:
    if not Path(run["file"]).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"voipqos imported from {run['file']}, not {src}")
    return run


def measure_split(src: Path, deadline: float, reps: int) -> list:
    """numpy, scipy.stats and voipqos.cli imports in ``reps`` fresh
    interpreters."""
    runs = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", SPLIT_CODE], env=child_env(src),
            capture_output=True, text=True, timeout=deadline - time.monotonic(),
            check=True,
        )
        runs.append(_from_src(json.loads(proc.stdout.splitlines()[-1]), src))
    return runs


def measure_probe(args, src: Path, inputs: Path, work: Path, deadline: float,
                  reps: int) -> list:
    """``probe.py`` in ``reps`` fresh interpreters."""
    result, log = work / "probe.json", work / "probe.log"
    runs = []
    for _ in range(reps):
        result.unlink(missing_ok=True)
        with open(log, "w") as err:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"),
                 "--workload", args.workload, "--inputs", str(inputs / "probe"),
                 "--out", str(work / "probe_out"), "--result", str(result)],
                env=child_env(src), stdout=subprocess.DEVNULL, stderr=err,
                timeout=deadline - time.monotonic(),
            )
        if proc.returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            raise RuntimeError(f"probe exited with code {proc.returncode}")
        runs.append(_from_src(json.loads(result.read_text()), src))
    return runs


def run_worker(args, src: Path, inputs: Path, work: Path, deadline: float) -> dict:
    out, result = work / "out", work / "worker.json"
    result.unlink(missing_ok=True)
    log = work / "worker.log"
    with open(log, "w") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--inputs", str(inputs),
             "--out", str(out), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", str(result)],
            env=child_env(src), stdout=subprocess.DEVNULL, stderr=err,
            timeout=deadline - time.monotonic(),
        )
    if proc.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _setup(run: dict) -> float:
    return run["import"] + run["first"] - run["again"]


def end_to_end(probe: list, res: dict, items: int) -> dict:
    wall = statistics.fmean(res["walls"]) / statistics.fmean(res["refs"])
    return {
        "setup_s": (statistics.median(map(_setup, probe)), "s"),
        "wall_ref": (wall, "ref"),
        "items_per_ref": (items / wall, "1/ref"),
        "peak_rss_mb": (res["peak_rss_kb"] * 1024 / 1e6, "MB"),
        "output_mb": (res["output_bytes"] / 1e6, "MB"),
    }


def per_layer(probe: list, split: list, res: dict) -> dict:
    trace = res["trace"]
    out = {
        f"setup.{part}_s": (statistics.median(r[part] for r in split), "s")
        for part in ("numpy", "scipy_stats", "voipqos")
    }
    out["setup.first_call_s"] = (
        statistics.median(r["first"] - r["again"] for r in probe), "s")
    out.update((name, tuple(v)) for name, v in trace["layers"].items())
    out["export.bytes"] = (trace["export_bytes"], "B")
    out["export.files"] = (trace["export_files"], "count")
    out["host.reference_s"] = (statistics.median(res["refs"]), "s")
    out["trace.wall_s"] = (trace["wall"], "s")
    out["trace.overhead_s"] = (trace["overhead_s"], "s")
    out["trace.unattributed_s"] = (trace["wall"] - trace["attributed"], "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "voipqos" / "cli" / "__init__.py").is_file():
        print(f"error: no voipqos sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / args.workload
    inputs = work / "inputs"
    meta = prepare_inputs(workload, inputs, args.seed, src)

    def setup() -> tuple:
        return (measure_probe(args, src, inputs, work, deadline, SETUP_REPS),
                measure_split(src, deadline, SETUP_REPS) if args.trace else [])

    # write bytecode caches now, so that no timed import compiles sources
    subprocess.run([sys.executable, "-m", "compileall", "-q", "--invalidation-mode",
                    "timestamp", str(src), str(HERE)],
                   stdout=subprocess.DEVNULL, timeout=deadline - time.monotonic(),
                   check=True)
    probe, split = setup()
    res = run_worker(args, src, inputs, work, deadline)
    probe2, split2 = setup()
    probe += probe2
    split += split2
    attempted, failed = workload.check(inputs, work / "out", set(res["failed_cmds"]))

    if args.trace:
        metrics = per_layer(probe, split, res)
        (work / "trace.json").write_text(json.dumps({
            "fields": ["id", "parent", "name", "start", "end"],
            "spans": res["trace"]["spans"],
        }) + "\n")
    else:
        metrics = end_to_end(probe, res, meta["items"])
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    walls = res["trace"]["walls"] if args.trace else res["walls"]
    print(f"{len(walls)} repetitions: median {statistics.median(walls):.6g} s, "
          f"fastest {min(walls):.6g} s, first {walls[0]:.6g} s; reference "
          f"kernel median {statistics.median(res['refs']):.6g} s; "
          f"{len(probe)} probes: import median "
          f"{statistics.median(r['import'] for r in probe):.6g} s")
    print(f"failed_share {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
