#!/usr/bin/env python3
"""Crash-path stress gate: the crash, recovery and scenario suites repeated,
and the crash-profile cvm_run over a range of seeds, all under CPU contention.

One busy-loop hog per usable CPU (as `nproc` counts them, never more)
keeps every core loaded, so thread schedules that an idle machine rarely
produces show up: a survivor that wakes with a barrier release and a run
abort both pending, or a page fetch whose home died after the request left.
Any gtest failure, any nonzero exit, and any run that outlives its timeout
(a hang) fails the gate.

  python3 tools/run_stress.py --recovery build/tests/dsm_recovery_test \\
      --chaos build/tests/dsm_chaos_test --scenario build/tests/dsm_scenario_test \\
      --cvm-run build/tools/cvm_run

Each suite runs with --gtest_repeat=20 and may take 900 s; cvm_run runs
seeds 1..100, four processes at a time, each under a 30 s timeout.

Registered with ctest as `stress_check` (label `stress`), which runs only
when asked for: `ctest -C stress -L stress`.
"""

import argparse
import concurrent.futures
import os
import subprocess
import sys
import time

HOG = "while True:\n    pass\n"
REPEAT = 20  # --gtest_repeat for each suite.
SUITE_TIMEOUT_S = 900
SEEDS = range(1, 101)  # Crash-profile cvm_run seeds.
JOBS = 4  # cvm_run processes at a time.
RUN_TIMEOUT_S = 30


def usable_cpus():
    """The CPUs this process may run on, as nproc counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def start_hogs():
    """Starts one busy-loop process per usable CPU."""
    return [subprocess.Popen([sys.executable, "-c", HOG]) for _ in range(usable_cpus())]


def stop_hogs(hogs):
    for hog in hogs:
        hog.kill()
    for hog in hogs:
        hog.wait()


def run(cmd, timeout):
    """Runs `cmd`; returns (ok, note). A timeout counts as a hang."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False, f"HANG (no exit within {timeout} s)"
    if proc.returncode != 0:
        tail = proc.stdout.decode(errors="replace").splitlines()[-30:]
        return False, f"exit {proc.returncode}\n" + "\n".join(tail)
    return True, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recovery", required=True, help="dsm_recovery_test binary")
    parser.add_argument("--chaos", required=True, help="dsm_chaos_test binary")
    parser.add_argument("--scenario", required=True, help="dsm_scenario_test binary")
    parser.add_argument("--cvm-run", required=True, help="cvm_run binary")
    args = parser.parse_args()

    failures = []
    hogs = start_hogs()
    try:
        print(f"stress: {len(hogs)} CPU hog(s) running", flush=True)
        for suite in (args.recovery, args.chaos, args.scenario):
            start = time.monotonic()
            ok, note = run([suite, f"--gtest_repeat={REPEAT}", "--gtest_brief=1"],
                           SUITE_TIMEOUT_S)
            name = os.path.basename(suite)
            print(f"stress: {name} x{REPEAT}: {'ok' if ok else 'FAILED'} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if not ok:
                failures.append(f"{name}: {note}")

        def crash_run(seed):
            cmd = [args.cvm_run, "--app=sor", "--size=16", "--nodes=2",
                   "--fault-profile=crash", f"--seed={seed}"]
            return seed, run(cmd, RUN_TIMEOUT_S)

        start = time.monotonic()
        bad = 0
        with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
            for seed, (ok, note) in pool.map(crash_run, SEEDS):
                if not ok:
                    bad += 1
                    failures.append(f"cvm_run crash seed {seed}: {note}")
        print(f"stress: cvm_run --fault-profile=crash seeds {SEEDS[0]}..{SEEDS[-1]}: "
              f"{len(SEEDS) - bad} ok, {bad} failed ({time.monotonic() - start:.1f} s)",
              flush=True)
    finally:
        stop_hogs(hogs)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"stress: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
