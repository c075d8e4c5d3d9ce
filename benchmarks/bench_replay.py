"""Compiled vs. per-step verifier replay throughput benchmark.

Replays fixed trace-diverse executions — the registry firmwares, and
the input-driven ones under several peripheral seeds each — twice:
with the compiled :meth:`~repro.cfa.verifier.Verifier.replay` (one
precompiled run per iteration of deterministic code) and with the
per-step oracle kept in ``tests/replay_reference.py``. It reports
replayed steps (path pcs) per wall-clock second for each, the speedup,
and each image's :class:`~repro.cfa.verifier.ReplayTable` compile
time. Both replays must agree exactly on ``lossless``, ``error``,
``consumed``, ``max_shadow_depth``, ``violations`` and the full path;
any divergence is a hard failure.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay.py            # full
    PYTHONPATH=src python benchmarks/bench_replay.py --smoke    # CI gate

Full mode covers all 15 workloads under RAP-Track and TRACES and
writes the table to ``benchmarks/results/replay.txt``. Smoke mode
(the CI gate) runs the input-driven subset under RAP-Track with the
differential check on and fails (exit 1) if the compiled replay is
less than ``--min-speedup`` (2x) over the per-step one on any
workload.

This file is intentionally a plain script, not a pytest bench: it has
no test functions, so collecting ``benchmarks/`` skips it.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import platform
import sys
import time
from typing import List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tests"))

import replay_reference  # noqa: E402  (the per-step oracle)

RESULTS = HERE / "results" / "replay.txt"

#: firmwares whose control flow follows their peripheral input
DIVERSE = ["temperature", "ultrasonic", "gps", "syringe", "geiger"]
#: peripheral seeds per input-driven firmware
SEEDS = (3, 7, 11, 19, 23, 31)
SMOKE_SEEDS = (3, 7)
FIELDS = ("lossless", "error", "consumed", "max_shadow_depth",
          "violations", "path")


def _seeded_devices(name: str, seed: int):
    from repro.workloads import gps, syringe
    from repro.workloads.base import (
        ADC_BASE, GEIGER_BASE, GPIO_BASE, STEPPER_BASE, UART_BASE,
        ULTRASONIC_BASE)
    from repro.workloads.peripherals import (
        ADCDevice, GeigerTube, GPIOPort, StepperMotor, UartRx,
        UltrasonicRanger)

    gpio = (GPIO_BASE, GPIOPort(), "gpio")
    return {
        "temperature": lambda: [(ADC_BASE, ADCDevice(seed=seed), "adc"),
                                gpio],
        "ultrasonic": lambda: [(ULTRASONIC_BASE,
                                UltrasonicRanger(seed=seed), "sonar"), gpio],
        "geiger": lambda: [(GEIGER_BASE, GeigerTube(seed=seed), "geiger"),
                           gpio],
        "gps": lambda: [(UART_BASE, UartRx(gps.nmea_feed(seed).encode()),
                         "uart"), gpio],
        "syringe": lambda: [(UART_BASE, UartRx(syringe.feed_bytes(seed)),
                             "uart"),
                            (STEPPER_BASE, StepperMotor(), "stepper"), gpio],
    }[name]()


def executions(name: str, method: str, seeds) -> tuple:
    """(verifier, table compile seconds, record streams) of one build."""
    from repro.baselines.traces import TracesEngine
    from repro.cfa.engine import RapTrackEngine
    from repro.cfa.verifier import ReplayTable, Verifier
    from repro.eval.runner import prepare
    from repro.machine.mcu import MCU
    from repro.tz.keystore import KeyStore
    from repro.workloads import load_workload

    spec = load_workload(name)
    image, bound = prepare(spec, method)
    t0 = time.perf_counter()
    table = ReplayTable(image, bound)
    compile_s = time.perf_counter() - t0
    keystore = KeyStore.provision("bench-replay")
    engine = RapTrackEngine if method == "rap-track" else TracesEngine
    streams = []
    for seed in (seeds if name in DIVERSE else (None,)):
        mcu = MCU(image, max_instructions=spec.max_instructions)
        devices = (spec.devices() if seed is None
                   else _seeded_devices(name, seed))
        for base, device, dev_name in devices:
            mcu.attach_device(base, device, dev_name)
        result = engine(mcu, keystore, bound).attest(b"bench-replay")
        streams.append(tuple(result.cflog.records))
    verifier = Verifier(image, bound, keystore.attestation_key, table=table)
    return verifier, compile_s, streams


def _rate(replay, verifier, streams, min_time: float) -> float:
    """Sustained replayed steps per second over all streams."""
    steps = 0
    t0 = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_time:
        for records in streams:
            steps += len(replay(verifier, records).path)
        elapsed = time.perf_counter() - t0
    return steps / elapsed


def bench(name: str, method: str, seeds, min_time: float) -> dict:
    from repro.cfa.verifier import Verifier

    verifier, compile_s, streams = executions(name, method, seeds)
    mismatches = []
    steps = 0
    for index, records in enumerate(streams):
        got = Verifier.replay(verifier, records)
        want = replay_reference.replay(verifier, records)
        steps += len(want.path)
        for field in FIELDS:
            if getattr(got, field) != getattr(want, field):
                mismatches.append(f"execution {index}: {field}")
    per_step = _rate(replay_reference.replay, verifier, streams, min_time)
    compiled = _rate(Verifier.replay, verifier, streams, min_time)
    return {
        "workload": name, "method": method, "executions": len(streams),
        "steps": steps, "per_step": per_step, "compiled": compiled,
        "speedup": compiled / per_step, "compile_us": compile_s * 1e6,
        "mismatches": mismatches,
    }


def format_rows(rows, seeds) -> str:
    lines = [
        "Verifier replay — per-step vs. compiled runs, replayed steps "
        "per second",
        "(each row: every execution replayed back to back, sustained; "
        "the input-driven",
        f"firmwares under peripheral seeds {', '.join(map(str, seeds))}; "
        "identical observables checked;",
        f"CPython {platform.python_version()}, {os.cpu_count()} CPUs)",
        "",
        f"{'workload':12s} {'method':9s} {'execs':>5s} {'steps':>8s} "
        f"{'per-step/s':>11s} {'compiled/s':>11s} {'speedup':>8s} "
        f"{'table us':>8s}",
        "-" * 79,
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:12s} {row['method']:9s} "
            f"{row['executions']:>5d} {row['steps']:>8d} "
            f"{row['per_step']:>11,.0f} {row['compiled']:>11,.0f} "
            f"{row['speedup']:>7.2f}x {row['compile_us']:>8.0f}")
    total = sum(row["steps"] for row in rows)
    per_step = total / sum(row["steps"] / row["per_step"] for row in rows)
    compiled = total / sum(row["steps"] / row["compiled"] for row in rows)
    lines += [
        "-" * 79,
        f"{'all':12s} {'':9s} {sum(r['executions'] for r in rows):>5d} "
        f"{total:>8d} {per_step:>11,.0f} {compiled:>11,.0f} "
        f"{compiled / per_step:>7.2f}x "
        f"{max(r['compile_us'] for r in rows):>8.0f}",
        "",
        "'all' weighs every step equally (total steps over total time);",
        "its 'table us' is the slowest image's ReplayTable compile.",
        "'per-step' is the oracle in tests/replay_reference.py, which",
        "shares the plain-integer trip_count with the compiled replay.",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: input-driven subset, differential "
                             "check, fail under --min-speedup")
    parser.add_argument("--min-time", type=float, default=None,
                        metavar="SEC",
                        help="timed-loop length per replay per row "
                             "(default: 0.4; smoke: 0.15)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="smoke-mode floor for compiled/per-step "
                             "(default: 2)")
    parser.add_argument("--out", default=None,
                        help="results file (default: results/replay.txt; "
                             "'-' to skip)")
    args = parser.parse_args(argv)

    from repro.workloads import WORKLOADS

    if args.smoke:
        cases = [(name, "rap-track") for name in DIVERSE]
        seeds = SMOKE_SEEDS
    else:
        cases = [(name, method) for name in sorted(WORKLOADS)
                 for method in ("rap-track", "traces")]
        seeds = SEEDS
    min_time = args.min_time
    if min_time is None:
        min_time = 0.15 if args.smoke else 0.4

    rows = []
    failures = []
    for name, method in cases:
        row = bench(name, method, seeds, min_time)
        rows.append(row)
        status = f"{row['speedup']:5.2f}x"
        if row["mismatches"]:
            failures.append(f"{name}/{method}: DIFFERENTIAL: "
                            + "; ".join(row["mismatches"]))
            status += "  DIFFERENTIAL MISMATCH"
        elif args.smoke and row["speedup"] < args.min_speedup:
            failures.append(
                f"{name}/{method}: speedup {row['speedup']:.2f}x "
                f"< floor {args.min_speedup:.1f}x")
            status += "  BELOW FLOOR"
        print(f"  {name:12s} {method:9s} {status}", file=sys.stderr)

    table = format_rows(rows, seeds)
    print(table)
    if not args.smoke and args.out != "-":
        out = pathlib.Path(args.out) if args.out else RESULTS
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table + "\n")
        print(f"\nwrote {out}", file=sys.stderr)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
