"""Exact call census of the benchmark workloads::

    python3 benchmarks/census.py [--root CHECKOUT] [--workload W ...] \
        [--seed S] [--rounds N] [--warmup N]

For one seeded pass per workload — the cluster ``benchmarks/hps`` builds,
its warm-up rounds, then one segment of ``train_pipelined`` rounds — it
counts, per pipeline stage, the Python calls that enter ``repro`` (frames
whose code lives under ``CHECKOUT/src/repro``), the other Python calls,
and the C calls, with ``sys.setprofile``, and prints them per round.
``CHECKOUT`` (default: this one) supplies both ``src/`` and the workload
table, so a merge-base and a head can be counted side by side.

The counts are exact: the script re-executes itself under
``PYTHONHASHSEED=0`` (string hashing orders sets, and some call paths
with them) and counts with the cyclic garbage collector off, so two runs
print identical numbers.  A change can then state "calls per round N →
M" as an exact claim, with wall-clock pairs (``pairs.py``) as
corroboration.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile

DEFAULT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cache_resident", "ssd_pressure", "dense_heavy", "snapshot_serving")
#: columns of a census row
COLUMNS = ("repro_py", "other_py", "c")


def census(
    workloads_module, repro_dir: str, name: str, seed: int,
    rounds: int | None = None, warmup: int | None = None,
) -> tuple[int, dict[str, list[int]]]:
    """``(rounds, {stage: [repro_py, other_py, c]})`` of one workload's
    counted segment; calls outside every stage land under ``(engine)``."""
    workload = workloads_module.WORKLOADS[name]
    rounds = workload.segment_rounds if rounds is None else rounds
    warmup = workload.warmup_rounds if warmup is None else warmup
    rows: dict[str, list[int]] = {"(engine)": [0, 0, 0]}
    current = [rows["(engine)"]]

    def profile(frame, event, arg):
        if event == "call":
            current[0][0 if frame.f_code.co_filename.startswith(repro_dir) else 1] += 1
        elif event == "c_call":
            current[0][2] += 1

    def counted(stage_name, fn):
        row = rows.setdefault(stage_name, [0, 0, 0])

        def stage(ctx):
            outer, current[0] = current[0], row
            try:
                return fn(ctx)
            finally:
                current[0] = outer

        return stage

    with tempfile.TemporaryDirectory() as scratch:
        cluster, _ = workloads_module.build_cluster(workload, seed, scratch)
        cluster.train_pipelined(warmup)
        cluster.wrap_stages(counted)
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            cluster.train_pipelined(rounds)
        finally:
            sys.setprofile(None)
            gc.enable()
        cluster.unwrap_stages()
    return rounds, rows


def format_census(name: str, rounds: int, rows: dict[str, list[int]]) -> list[str]:
    lines = [f"== {name}: calls per round over {rounds} rounds"]
    lines.append(f"{'stage':18s}" + "".join(f"{c:>12s}" for c in COLUMNS))
    total = [0, 0, 0]
    for stage, row in rows.items():
        total = [t + r for t, r in zip(total, row)]
        lines.append(
            f"{stage:18s}" + "".join(f"{r / rounds:12.1f}" for r in row)
        )
    lines.append(f"{'total':18s}" + "".join(f"{t / rounds:12.1f}" for t in total))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=DEFAULT_ROOT, help="checkout to count")
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, help="default: a segment")
    parser.add_argument("--warmup", type=int, help="default: the workload's")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks", "hps")]
    import workloads

    repro_dir = os.path.join(root, "src", "repro") + os.sep
    for name in args.workload:
        rounds, rows = census(workloads, repro_dir, name, args.seed, args.rounds, args.warmup)
        print("\n".join(format_census(name, rounds, rows)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
