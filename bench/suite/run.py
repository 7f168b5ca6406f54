#!/usr/bin/env python3
"""Benchmark entry point, run from the root of a source checkout:

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds gprs_bench and gprs_run from source with dune, then runs one
workload of gprs_bench with the same arguments. gprs_bench's standard
output passes through unchanged; its last line is the JSON result. Build
output goes to standard error. Exits non-zero, without a result, when
the build fails (for instance outside a full checkout) or the run does.
"""

import os
import shutil
import signal
import subprocess
import sys

OUT_DIR = ".bench_out"
BENCH = os.path.join("_build", "default", "bench", "suite", "gprs_bench.exe")
GPRS_RUN = os.path.join("_build", "default", "bin", "gprs_run.exe")
TIMEOUT_S = 170  # a run must end within 180 s


def main(argv):
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    # No shared dune cache: build outputs stay inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./bench/suite/gprs_bench.exe", "./bin/gprs_run.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT_DIR)
    # Own session, so a timeout can stop the benchmark and its daemon child
    # together.
    proc = subprocess.Popen(
        [BENCH, *argv, "--gprs-run", GPRS_RUN, "--out-dir", OUT_DIR],
        env=env,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
