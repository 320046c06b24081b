"""squeezedx benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's config from the seed, measures set-up time in
fresh interpreters, then runs the workload in its own child process (see
worker.py).  Prints the metrics by name with their units and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Exits non-zero without a result if squeezedx's sources
are missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import UNITS  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SETUP_REPEATS = 7
# Each run must end within 180 s; the set-up probes take a few seconds.
WORKER_TIMEOUT_S = 160
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "verify_s": "s", "peak_rss_mb": "MiB"}


def _probe_setup(config: Path, env: dict) -> dict | None:
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), str(config)],
                          env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe["ready"] - launched
    return probe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "squeezedx" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"squeezedx sources or bundled scenarios not found under {ROOT}", file=sys.stderr)
        return 2

    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(make_config(args.workload, args.seed, ROOT), indent=2))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    probes = [_probe_setup(config, env) for _ in range(SETUP_REPEATS)]
    setups = [p for p in probes if p is not None]
    if not setups:
        print("no set-up probe could import squeezedx and parse the config", file=sys.stderr)
        return 1

    result_file = work / "result.json"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config), str(work / "out"),
             str(result_file), "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--src", str(src)],
            env=env, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(result_file.read_text())

    attempted = worker["attempted"] + len(probes)
    failures = worker["failures"] + ["set-up probe failed"] * (len(probes) - len(setups))
    samples = worker["samples"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {WORKLOADS[args.workload]}")
    print("machine " + json.dumps(worker["machine"]))
    if args.trace:
        values = dict(worker["per_layer"])
        values["cli.import_s"] = statistics.median(p["import_s"] for p in setups)
        values["scenario.parse_config_s"] = statistics.median(p["parse_s"] for p in setups)
        units = UNITS
        for name, (rows, per_row) in worker["density_rows"].items():
            print(f"  {name}: {rows} timeseries density rows, {1e3 * per_row:.1f} ms per row")
        for accounted, elapsed in worker["reconciliation"]:
            print(f"  traced run: layer self times - concurrency = {accounted:.4f} s, "
                  f"run_s = {elapsed:.4f} s, unattributed {elapsed - accounted:+.4f} s")
        print(f"  tracing overhead (traced - untraced median run_s) {values['trace.overhead_s']:+.4f} s")
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "run_s": statistics.median(samples["run_s"]),
            "verify_s": statistics.median(samples["verify_s"]),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    counts = {"setup_s": len(setups), "run_s": len(samples.get("run_s", ())),
              "verify_s": len(samples.get("verify_s", ()))}
    for name in sorted(values) if args.trace else values:
        note = f"  (median of {counts[name]})" if name in counts else ""
        print(f"{name:40s} {values[name]:>16.6g} {units[name]}{note}")
    print(f"{'failed_share':40s} {len(failures) / attempted:>16.6g} ratio"
          f"  ({len(failures)} of {attempted} operations)")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
