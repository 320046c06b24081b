"""One workload in one fresh process: squeezedx CLI commands, timed or traced.

    python3 worker.py <config> <out_dir> <result.json> --seed N --seconds S --trace 0|1 --src DIR

``squeezedx`` must import from ``--src``.  The worker calls
``squeezedx.cli.main`` in-process, one command at a time (a closed loop with
one client).  After one warm-up ``run`` (the first ``run`` in a process pays
for growing the heap) it repeats a pair of commands, at least once and as
many times as brings the measured time closest to ``--seconds``:

* trace 0: ``run`` then ``verify``, each timed;
* trace 1: a ``run`` with tracing off, then a traced ``run``; the
  difference of their medians is the tracing overhead.

Every command goes through the correctness gate and the result, with the
machine record, is written as JSON to ``<result.json>``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import density_row_costs, instrument, per_layer_metrics
from machine import machine_record
from tracing import Tracer, concurrency, self_times
from workloads import scenario_names

CHECK_LINE = re.compile(r"^\[([^\]]+)\] \S+: (PASS|FAIL) ")
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Gate:
    """Counts operations and failures.

    Operations are CLI commands, check lines (plus one per scenario that
    printed none) and product files.  A failure is a non-zero exit, a FAIL
    line, a scenario without checks, or a product whose bytes differ between
    repeats or from the digest recorded for a bundled scenario.
    """

    def __init__(self, names: list, recorded: dict):
        self.names = names
        self.recorded = {name: recorded[name] for name in names if name in recorded}
        self.attempted = 0
        self.failures: list = []
        self._first: dict = {}

    def _op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def command(self, argv: list, rc, output: str) -> None:
        self._op(rc == 0, f"squeezedx {' '.join(argv)} exited {rc}")
        checked = set()
        for line in output.splitlines():
            match = CHECK_LINE.match(line)
            if match:
                checked.add(match.group(1))
                self._op(match.group(2) == "PASS", line)
        for name in self.names:
            self._op(name in checked, f"no check lines for scenario {name}")

    def products(self, out_dir: Path) -> None:
        digests = {p.name: _sha256(p) for p in sorted(out_dir.iterdir())}
        for name, digest in digests.items():
            self._op(self._first.setdefault(name, digest) == digest,
                     f"{name} differs between repeats")
        for files in self.recorded.values():
            for name, digest in files.items():
                self._op(digests.get(name) == digest, f"{name} does not match its recorded digest")


def execute(cli, argv: list):
    """Call the CLI in-process; returns (exit code or None on a traceback, seconds, output)."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, elapsed, captured.getvalue()


def fft_floor_us(n: int, pairs: int = 400, blocks: int = 5) -> float:
    """Median time of a bare fft + ifft pair at length n, in microseconds."""
    import numpy as np
    psi = np.exp(1j * np.linspace(0.0, 1.0, n))
    per_pair = []
    for _ in range(blocks):
        start = time.perf_counter()
        for _ in range(pairs):
            np.fft.ifft(np.fft.fft(psi))
        per_pair.append((time.perf_counter() - start) / pairs)
    return 1e6 * statistics.median(per_pair)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("result", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", type=Path, required=True)
    args = parser.parse_args(argv)

    import squeezedx
    if args.src.resolve() not in Path(squeezedx.__file__).resolve().parents:
        print(f"squeezedx imported from {squeezedx.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    from squeezedx import cli

    names = scenario_names(json.loads(args.config.read_text()))
    gate = Gate(names, json.loads(DIGESTS.read_text()))
    common = [str(args.config), "--out-dir", str(args.out_dir), "--seed", str(args.seed % 2**64)]

    def command(name: str, tracer=None) -> float:
        if name == "run":
            for old in args.out_dir.glob("*"):
                old.unlink()
        undo = instrument(tracer) if tracer is not None else None
        try:
            rc, elapsed, output = execute(cli, [name, *common])
        finally:
            if undo is not None:
                undo()
        if rc != 0:
            sys.stderr.write(output)
        gate.command([name, *common], rc, output)
        if name == "run":
            gate.products(args.out_dir)
        return elapsed

    command("run")  # warm-up
    samples: dict = {}
    traces: list = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        if args.trace:
            samples.setdefault("untraced_run_s", []).append(command("run"))
            tracer = Tracer()
            samples.setdefault("traced_run_s", []).append(command("run", tracer))
            traces.append(tracer.spans)
        else:
            samples.setdefault("run_s", []).append(command("run"))
            samples.setdefault("verify_s", []).append(command("verify"))
        # stop once another pair would end farther past --seconds than this one falls short
        now = time.perf_counter()
        if now - start + (now - pair_start) / 2 >= args.seconds:
            break

    result = {
        "machine": machine_record(args.seed),
        "samples": samples,
        "attempted": gate.attempted,
        "failures": gate.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        runs = [per_layer_metrics(spans) for spans in traces]
        layer = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
        split_n = sorted({s.attrs["n"] for s in traces[-1] if s.name == "oracle.propagate"
                          and s.attrs.get("scheme") == "spectral-split-step"})
        layer["oracle.fft_floor_us_per_step"] = fft_floor_us(split_n[0]) if split_n else 0.0
        layer["trace.run_s"] = statistics.median(samples["traced_run_s"])
        layer["trace.overhead_s"] = layer["trace.run_s"] - statistics.median(samples["untraced_run_s"])
        result["per_layer"] = layer
        result["density_rows"] = density_row_costs(traces[-1])
        # per traced run: summed self times less parallel double counting, and the run's time
        result["reconciliation"] = [
            (sum(self_times(spans).values()) - concurrency(spans), elapsed)
            for spans, elapsed in zip(traces, samples["traced_run_s"])]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
