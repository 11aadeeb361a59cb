"""Guard the frozen micro-benchmark's bindings into ``src/``.

``benchmarks/hps/micro.py`` is frozen, and ``src/`` keeps a few
signatures alive only for it (``CombinedCache.get_batch``,
``put_batch(assume_unique=)``, ``build_round_plan(prefetch=)``).  Nothing
else executes it, so this runs it: if a rename in ``src/`` breaks a
kernel, tier-1 says so — and when benchmark v2 drops the shims, this file
names what they were for.  No timing is asserted.
"""

import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "hps" / "run.py"

KERNELS = (
    "store.slotindex_locate_ns_per_key",
    "store.slotindex_install_ns_per_key",
    "mem.cache_get_ns_per_key",
    "mem.cache_put_overflow_ns_per_key",
    "ssd.filestore_read_ns_per_key",
    "ssd.filestore_disk_write_ns_per_key",
    "ssd.filestore_disk_read_ns_per_key",
    "plan.build_ns_per_key",
    "hbm.allreduce_ns_per_key",
)


def test_micro_kernels_run():
    done = subprocess.run(
        [sys.executable, str(RUN), "--micro", "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    reported = [line.split()[0] for line in done.stdout.splitlines() if line.strip()]
    assert reported == list(KERNELS), done.stdout
