#!/usr/bin/env python3
"""Fleet-verifier benchmark: the cost of a verdict on the Verifier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload diverse-replay --seed 1 \\
        --seconds 20 --trace 0

One process drives the fleet verifier inline (``workers=0``, no pool).
Each run sets the workload up several times from cold (no on-disk
artifact cache, the verifier's artifact memo dropped) and reports the
median set-up time, then measures a closed-loop phase and an open-loop
phase, checks every verdict and every evidence log, and prints one
JSON object as the last line of standard output.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is the
separate traced run: it wraps the calls into each layer (see
:mod:`tracer`) and prints the per-layer metrics, including how much
the tracing itself slowed the closed loop. Each run also writes a run
record under ``.perfbench/results/`` and, when traced, its spans under
``.perfbench/traces/``. ``spec.json`` holds the offered rates, the
pinned campaign constant and the per-layer -> end-to-end -> workload
map.

Exit status: 0 when every check passed, 1 when any failed (the result
line still prints, with ``"correct": false``), 2 when the repository's
sources are missing.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SPEC = json.loads((HERE / "spec.json").read_text())

#: cold set-ups per run; setup_s is their median
SETUPS = 5
#: share of --seconds for the closed loop (the rest is the open loop);
#: the traced run splits its time untraced closed / traced closed /
#: untraced open
CLOSED_SHARE = 0.3
TRACE_SHARES = (0.3, 0.3, 0.4)


def source_revision() -> str:
    """The git revision, or a digest of the source tree outside git."""
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_sessions(sessions) -> list:
    """Each session's verdict against what its behaviour must yield."""
    errors = []
    for s in sessions:
        who = s.device.device_id
        v = s.verdict
        if v is None:
            errors.append(f"{who}: no verdict")
        elif v.accepted != s.accept:
            errors.append(f"{who}: expected "
                          f"{'accept' if s.accept else 'reject'}, got "
                          f"{'accept' if v.accepted else 'reject'} "
                          f"({v.reason})")
        elif s.digest and v.records_digest != s.digest:
            errors.append(f"{who}: records digest differs from the "
                          f"attested execution")
        elif s.reason and not v.reason.startswith(s.reason):
            errors.append(f"{who}: rejected for {v.reason!r}, expected "
                          f"{s.reason!r}")
    return errors


def latencies(phase) -> list:
    """Open-loop latencies; a session without a verdict counts at the
    top of the distribution."""
    values = [b.latency_s for b in phase.bursts if b.latency_s is not None]
    values += [phase.vrf_s for s in phase.sessions if s.verdict is None]
    return values


def value(x: float, unit: str) -> dict:
    return {"value": x, "unit": unit}


def end_to_end(fleet, load, setups, seconds, rate, seed):
    from loop import ArrivalSchedule, percentile, timing

    closed = load.run_phase(seconds * CLOSED_SHARE)
    opened = load.run_phase(seconds * (1.0 - CLOSED_SHARE),
                              ArrivalSchedule(rate, seed))
    lat = latencies(opened)
    settled = closed.settled + opened.settled
    metrics = {
        "sessions_per_s": value(closed.settled / closed.vrf_s, "1/s"),
        "verdict_p50_ms": value(percentile(lat, 50) * 1e3, "ms"),
        "bytes_per_session": value(
            (closed.bytes_in + opened.bytes_in) / max(1, settled), "B"),
        "peak_rss_mb": value(peak_rss_mb(), "MB"),
        "setup_s": value(statistics.median(setups), "s"),
    }
    detail = {
        "closed": {"sessions": len(closed.sessions),
                   "settled": closed.settled, "vrf_s": closed.vrf_s,
                   "wall_s": closed.wall_s,
                   "wall_sessions_per_s": closed.settled / closed.wall_s,
                   "denials": closed.denials, "rounds": closed.rounds},
        "open": {"sessions": len(opened.sessions),
                 "settled": opened.settled, "vrf_s": opened.vrf_s,
                 "offered_rate": rate,
                 "achieved_rate": opened.settled / opened.vrf_s,
                 "verdict_ms": timing(lat, 1e3),
                 # recorded, not gated: stolen vCPU time decides it
                 "verdict_p99_ms": percentile(lat, 99) * 1e3,
                 "lag_ms": timing([b.lag_s for b in opened.bursts], 1e3)},
        "setup_s": setups,
        "probe_ms": timing(load.clock.probes, 1e3),
        "verdict_samples_ms": [round(x * 1e3, 3) for x in lat],
    }
    return metrics, detail, [closed, opened]


def per_layer(fleet, load, tracer, setup_span_end, seconds, rate, seed):
    from loop import ArrivalSchedule, percentile, timing
    from tracer import LayerStats

    untraced_s, traced_s, open_s = (seconds * s for s in TRACE_SHARES)
    untraced = load.run_phase(untraced_s)
    counters0 = copy.copy(fleet.service.metrics)  # a live object unsharded
    tracer.install()
    lo = tracer.mark()
    traced = load.run_phase(traced_s)
    hi = tracer.mark()
    tracer.uninstall()
    counters1 = copy.copy(fleet.service.metrics)
    start = time.perf_counter()
    gc.collect()  # what the collector paused during the phases costs
    collect_s = time.perf_counter() - start
    opened = load.run_phase(open_s, ArrivalSchedule(rate, seed))

    setup = LayerStats(tracer.spans, 0, setup_span_end)
    run = LayerStats(tracer.spans, lo, hi)
    wall = traced.wall_s  # spans are in wall seconds
    sessions = max(1, traced.settled)

    def per_call(stats, name, scale):
        calls = stats.calls.get(name, 0)
        return stats.total.get(name, 0.0) / calls * scale if calls else 0.0

    def self_per_call(name):
        calls = run.calls.get(name, 0)
        return run.self_time.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def share(name):
        return run.self_time.get(name, 0.0) / wall

    def delta(field):
        return getattr(counters1, field) - getattr(counters0, field)

    replay = run.durations.get("verifier.replay", [])
    fsyncs = run.durations.get("store.fsync", [])
    hits = delta("replay_cache_hits")
    lookups = hits + delta("replay_cache_misses")
    expand_total = sum(run.total.get(n, 0.0) for n in (
        "speccfa.expand", "speccfa.expand.admission",
        "speccfa.expand.sampler"))
    records_out, records_in = run.count.get("speccfa.expand", (0, 0))
    attest_s = setup.total.get("engine.attest", 0.0)
    ev_records = delta("evidence_records")
    untraced_rate = untraced.settled / untraced.vrf_s
    traced_rate = traced.settled / traced.vrf_s
    m = {
        "wire.decode_report.us_per_report":
            value(per_call(run, "wire.decode_report", 1e6), "us"),
        "wire.decode_report.wall_share":
            value(share("wire.decode_report"), "ratio"),
        "report.verify.us_per_report":
            value(per_call(run, "report.verify", 1e6), "us"),
        "session.ingest.self_us_per_report":
            value(self_per_call("session.ingest"), "us"),
        "session.reports_ignored": value(delta("reports_ignored"), "count"),
        "session.duplicates_dropped":
            value(delta("duplicates_dropped"), "count"),
        "service.submit.self_us_per_report":
            value(self_per_call("service.submit"), "us"),
        "shard.submit.self_us_per_report":
            value(self_per_call("shard.submit"), "us"),
        "verifier.replay.ms_p50": value(percentile(replay, 50) * 1e3, "ms"),
        "verifier.replay.ms_p99": value(percentile(replay, 99) * 1e3, "ms"),
        "verifier.replay.steps_per_s": value(
            run.count.get("verifier.replay", 0)
            / max(1e-9, run.total.get("verifier.replay", 0.0)), "1/s"),
        "verifier.replay.wall_share":
            value(share("verifier.replay"), "ratio"),
        "verify.path_digest.us_per_miss":
            value(per_call(run, "verify.path_digest", 1e6), "us"),
        "verify.build_verifier.us_per_session": value(
            run.total.get("verify.build_verifier", 0.0) / sessions * 1e6,
            "us"),
        "verify.cache_key.us_per_session": value(
            run.total.get("verify.cache_key", 0.0) / sessions * 1e6, "us"),
        "verify.replay_cache.hit_ratio":
            value(hits / lookups if lookups else 0.0, "ratio"),
        "verify.replay_cache.hits": value(hits, "count"),
        "verify.replay_cache.lookups": value(lookups, "count"),
        "speccfa.expand.us_per_session":
            value(expand_total / sessions * 1e6, "us"),
        "speccfa.expand.records_ratio": value(
            records_out / records_in if records_in else 0.0, "ratio"),
        "store.append.us_per_record":
            value(per_call(run, "store.append", 1e6), "us"),
        "store.fsync.ms_p50": value(percentile(fsyncs, 50) * 1e3, "ms"),
        "store.fsync.ms_p99": value(percentile(fsyncs, 99) * 1e3, "ms"),
        "store.bytes_per_record": value(
            delta("evidence_bytes") / ev_records if ev_records else 0.0,
            "B"),
        "policy.observe.us_per_session":
            value(per_call(run, "policy.observe", 1e6), "us"),
        "policy.decisions": value(run.count.get("policy.observe", 0),
                                  "count"),
        "certificate.screen_records.us_per_session":
            value(per_call(run, "certificate.screen_records", 1e6), "us"),
        "certificate.screen_records.rejects":
            value(run.count.get("certificate.screen_records", 0), "count"),
        "engine.attest.ms_per_execution":
            value(per_call(setup, "engine.attest", 1e3), "ms"),
        "machine.sim_cycles_per_s": value(
            setup.count.get("engine.attest", 0) / attest_s
            if attest_s else 0.0, "1/s"),
        "runner.prepare.s": value(setup.total.get("runner.prepare", 0.0),
                                  "s"),
        "certificate.certify_workload.s":
            value(setup.total.get("certificate.certify_workload", 0.0), "s"),
        "loadgen.lag_p99_ms": value(
            percentile([b.lag_s for b in opened.bursts], 99) * 1e3, "ms"),
        "runtime.gc_collect.ms": value(collect_s * 1e3, "ms"),
        "trace.slowdown": value(untraced_rate / traced_rate, "ratio"),
        "trace.spans": value(hi - lo, "count"),
    }
    detail = {
        "untraced": {"settled": untraced.settled, "vrf_s": untraced.vrf_s,
                     "sessions_per_s": untraced_rate},
        "traced": {"settled": traced.settled, "vrf_s": traced.vrf_s,
                   "sessions_per_s": traced_rate},
        "open": {"settled": opened.settled, "vrf_s": opened.vrf_s,
                 "offered_rate": rate,
                 "lag_ms": timing([b.lag_s for b in opened.bursts], 1e3)},
        "replay_ms": timing(replay, 1e3),
        "fsync_ms": timing(fsyncs, 1e3),
        # device-side attestation runs with the Vrf clock stopped
        "self_share": {name: t / wall for name, t in sorted(
            run.self_time.items(), key=lambda kv: -kv[1])
            if name != "engine.attest"},
    }
    return m, detail, [untraced, traced, opened]


def set_up(fleet, seed, tracer):
    """Everything before the timed phases; ``(load, warm-up phase)``."""
    from loop import LoadGenerator, VrfClock

    fleet.setup()
    load = LoadGenerator(fleet, VrfClock(), seed, tracer)
    return load, fleet.warm(load)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    # nothing may fall back to the per-user offline cache
    os.environ["REPRO_CACHE_DIR"] = str(work / "offline-cache")

    from fleets import FLEETS
    from loop import reference_seconds
    from tracer import Tracer

    wl = SPEC["workloads"][args.workload]
    rate = wl["offered_rate"]
    tracer = Tracer() if args.trace else None
    try:
        setups = []
        for attempt in range(1 if tracer else SETUPS):
            if attempt:
                fleet.close()
            if tracer is not None:
                tracer.session = "setup"
                tracer.install()
            fleet = FLEETS[args.workload](work / f"setup-{attempt}",
                                          args.seed)
            seconds, (load, warm) = reference_seconds(
                lambda: set_up(fleet, args.seed, tracer))
            setups.append(seconds)
        phases = [warm] if warm is not None else []
        if tracer is None:
            metrics, detail, measured = end_to_end(
                fleet, load, setups, args.seconds, rate, args.seed)
        else:
            setup_end = tracer.mark()
            tracer.uninstall()
            tracer.stores = [s for s in getattr(fleet.service, "stores", ())
                             if s is not None]
            metrics, detail, measured = per_layer(
                fleet, load, tracer, setup_end, args.seconds, rate,
                args.seed)
        phases += measured
        fleet.close()
        sessions = [s for phase in phases for s in phase.sessions]
        errors = check_sessions(sessions) + fleet.audit(sessions)
        facts = fleet.facts()
        pinned = wl.get("rounds_to_quarantine")
        seen = facts.get("rounds_to_quarantine")
        if pinned is not None and seen != [pinned]:
            errors.append(f"rounds to quarantine {seen} != pinned {pinned}")
        failed = min(len(sessions), len(errors))
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "metrics": metrics, "detail": detail, "facts": facts,
            "sessions": len(sessions), "failed": failed,
            "session_error_rate": failed / max(1, len(sessions)),
            "errors": errors[:20],
            "host": {"cpu_count": os.cpu_count(),
                     "python": platform.python_version(),
                     "platform": platform.platform()},
            "source": source_revision(),
            "offered_rate": rate,
            "fsync": "per evidence record" if args.workload != "diverse-replay"
                     else "no evidence store",
            "store_fs": filesystem_of(work),
        }
        (OUT / "results").mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / "results" / f"{stem}.json").write_text(
            json.dumps(record, indent=1, default=str))
        if tracer is not None:
            (OUT / "traces").mkdir(exist_ok=True)
            tracer.dump(OUT / "traces" / f"{stem}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in errors[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(sessions),
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
