#!/usr/bin/env python
"""Record / replay the benchmark suite's headline ratios.

Nine PRs of performance claims live in the benchmark suite, but until
now nothing pinned them: a regression that halved a speedup would sail
through CI as long as it stayed above each test's hard floor.  This
script closes that hole by snapshotting the *trajectory* — the actual
measured headline ratios — into a committed ``BENCH_*.json``, and
replaying them against that baseline in the ``perf-regression`` CI job.

Record a baseline (done once per PR that moves a headline)::

    PYTHONPATH=src python scripts/bench_record.py --out BENCH_pr10.json

Replay and gate (what CI runs)::

    PYTHONPATH=src python scripts/bench_record.py --check BENCH_pr10.json

``--check`` exits non-zero if any replayed headline ratio falls more
than ``--slack`` (default 20%) below its recorded value.  Ratios are
dimensionless speedups (this-path vs that-path on the same host), so
they transfer across machines far better than absolute seconds — but
the fleet headline needs real cores, so it records/replays as ``null``
on hosts with fewer than 4 and is skipped by the comparison there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from typing import Callable, Dict, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

FLEET_MIN_CPUS = 4
DEFAULT_SLACK = 0.20

# Per-headline slack overrides for ratios whose denominator is a few
# milliseconds of wall clock (high run-to-run jitter even on one host).
# The warm-start ratio sits at ~20x against a 1.5x hard floor, so a
# wide band still catches any real regression long before the floor.
SLACK_OVERRIDES = {"store_warmstart_speedup": 0.50}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _ratio(module: str, fn: str, key: str = "speedup") -> Callable[[], float]:
    def run() -> float:
        rows = getattr(importlib.import_module(module), fn)()
        return float(rows[key])

    return run


def _fleet_ratio() -> Optional[float]:
    if _usable_cpus() < FLEET_MIN_CPUS:
        return None
    return _ratio("test_fleet_throughput", "run_fleet_comparison")()


# Headline name -> (runner, source hint).  A runner returning None means
# "cannot be measured on this host" and the headline records as null.
HEADLINES: Dict[str, tuple] = {
    "store_warmstart_speedup": (
        _ratio("test_store_warmstart", "run_warmstart_comparison"),
        "benchmarks/test_store_warmstart.py (warm vs cold first pass)",
    ),
    "service_throughput_speedup": (
        _ratio("test_service_throughput", "run_serving_comparison"),
        "benchmarks/test_service_throughput.py (shared index vs cold solves)",
    ),
    "fleet_speedup": (
        _fleet_ratio,
        "benchmarks/test_fleet_throughput.py (4 shm workers vs 1 process, "
        f"needs >= {FLEET_MIN_CPUS} cpus)",
    ),
}


def measure(names=None) -> dict:
    headlines = {}
    for name, (runner, source) in HEADLINES.items():
        if names is not None and name not in names:
            continue
        print(f"measuring {name} ...", flush=True)
        ratio = runner()
        if ratio is None:
            print(f"  {name}: skipped (host cannot measure it)", flush=True)
        else:
            print(f"  {name}: {ratio:.2f}x", flush=True)
        headlines[name] = {
            "ratio": None if ratio is None else round(ratio, 4),
            "source": source,
        }
    return headlines


def cmd_record(out_path: str) -> int:
    headlines = measure()
    record = {
        "schema": 1,
        "host": {
            "python": platform.python_version(),
            "cpus": _usable_cpus(),
            "platform": platform.platform(),
        },
        "headlines": headlines,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"baseline written to {out_path}")
    return 0


def cmd_check(baseline_path: str, slack: float) -> int:
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    recorded = baseline["headlines"]
    gated = {
        name for name, entry in recorded.items() if entry["ratio"] is not None
    }
    replayed = measure(names=set(recorded))

    failures = []
    print(f"\n== headline trajectory vs {baseline_path} "
          f"(slack {slack:.0%}) ==")
    for name, entry in sorted(recorded.items()):
        base = entry["ratio"]
        now = replayed.get(name, {}).get("ratio")
        if base is None:
            status = "no baseline (recorded on a host that skipped it)"
            if now is not None:
                status = f"{now:.2f}x now, no baseline — passes by default"
            print(f"  {name:32s} {status}")
            continue
        if now is None:
            # The baseline host could measure it but this one cannot
            # (e.g. too few cores for the fleet) — not a regression.
            print(f"  {name:32s} base {base:.2f}x, unmeasurable here — skipped")
            continue
        entry_slack = SLACK_OVERRIDES.get(name, slack)
        floor = base * (1.0 - entry_slack)
        verdict = "ok" if now >= floor else "REGRESSED"
        print(
            f"  {name:32s} base {base:6.2f}x  now {now:6.2f}x  "
            f"floor {floor:6.2f}x  {verdict}"
        )
        if now < floor:
            failures.append((name, base, now, floor))

    if failures:
        print(f"\n{len(failures)} headline(s) degraded more than {slack:.0%}:")
        for name, base, now, floor in failures:
            print(f"  {name}: {now:.2f}x < floor {floor:.2f}x (base {base:.2f}x)")
        return 1
    print(f"\nall measurable headlines within {slack:.0%} of the baseline "
          f"({len(gated)} recorded, {len(replayed)} replayed)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="PATH",
                       help="measure all headlines and write a baseline")
    group.add_argument("--check", metavar="PATH",
                       help="replay headlines and fail on >slack degradation")
    parser.add_argument("--slack", type=float, default=DEFAULT_SLACK,
                        help="allowed fractional degradation (default 0.20)")
    args = parser.parse_args(argv)
    if args.out:
        return cmd_record(args.out)
    return cmd_check(args.check, args.slack)


if __name__ == "__main__":
    raise SystemExit(main())
