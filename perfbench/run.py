"""Benchmark of pinchlab: one workload per invocation.

    python3 perfbench/run.py --workload cli-cold|p-sweep|fine-grid \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures that checkout's own ``src``.
With ``--trace 0`` it times whole rounds of the workload for S seconds and
prints the end-to-end metrics.  With ``--trace 1`` it runs a fixed number of
rounds three times, plain, with layer spans, and plain again, and prints the
per-layer metrics and the tracing overhead.  Every output is checked against
``oracles``.  The last stdout line is the result; the line before it, and
``perfbench/out/``, hold the details (calibration loops, failures, versions).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# every child runs single-threaded with fixed hashing and the checkout's src
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(FIXED_ENV)  # also for this process's calibration loop

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_PERCENTILE = 75
SETUP_PROCESSES = 3  # fresh interpreters whose set-up time is taken per in-process run
MIN_OK_OPS = {"p-sweep": 40}  # so the tail percentile has >= 10 samples beyond it
TRACE_ROUNDS = {"cli-cold": 1, "p-sweep": 2, "fine-grid": 2}
CHILD_TIMEOUT_S = 150


def spawn(argv: list[str], **extra: str):
    """Run one child to completion; returns (process, launch time, exit time)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PERFBENCH"))}
    env.update(FIXED_ENV, PYTHONPATH=str(SRC), **extra)
    launch = time.monotonic()
    env["PERFBENCH_LAUNCH"] = repr(launch)
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return proc, launch, time.monotonic()


def _last_json(proc, prefix: str = "") -> dict:
    stream = proc.stderr if prefix else proc.stdout
    lines = [ln for ln in stream.splitlines() if ln.startswith(prefix)]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1][len(prefix):])


def calibration() -> dict:
    """Fixed pure-Python and numpy loops: machine drift, not program speed."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    a = np.linspace(1.0, 2.0, 1 << 18)
    for _ in range(20):
        np.sort(np.sqrt(a) * np.log1p(a))
    t2 = time.perf_counter()
    return {"python_s": t1 - t0, "numpy_s": t2 - t1}


def warm_caches() -> None:
    """One untimed CLI process fills the bytecode and page caches."""
    proc, _, _ = spawn([sys.executable, str(HERE / "entry.py"), "solve", "--model", "flat",
                        "--p", "1.5", "--grid-n", "256"])
    _last_json(proc, "perfbench ")


# ---------------------------------------------------------------------------
# cli-cold: one fresh `pinchlab contradict` process per operation
# ---------------------------------------------------------------------------


def _check_cli(op, csv_path: Path, first_csv: dict) -> None:
    text = csv_path.read_bytes()
    oracles.check_rows(oracles.parse_csv(text.decode("utf-8")), op.p, op.model, workloads.R0)
    verdicts = json.loads(csv_path.with_suffix(".verdicts.json").read_text(encoding="utf-8"))
    oracles.check_hypothesis(op.model, verdicts["failed_hypothesis"])
    if op.rerun:
        oracles.check_identical(first_csv[op.model], text, f"{op.model} p={op.p!r} CSV")
    else:
        first_csv[op.model] = text


def cli_cold(seed: int, seconds: float, rounds: int | None, traced: bool):
    """Returns (records, span lists, one per traced process)."""
    records, per_process = [], []
    start = time.monotonic()
    for k, ops in enumerate(workloads.rounds("cli-cold", seed)):
        if (k >= rounds) if rounds is not None else (time.monotonic() - start >= seconds):
            break
        first_csv: dict = {}
        for i, op in enumerate(ops):
            csv_path = OUT / f"cli-{k}-{i}.csv"
            spans_path = OUT / f"cli-{k}-{i}.spans"
            argv = [sys.executable, str(HERE / "entry.py"), "contradict", "--model", op.model,
                    "--p", repr(op.p), "--out", str(csv_path)]
            extra = {"PERFBENCH_TRACE": str(spans_path)} if traced else {}
            proc, launch, end = spawn(argv, **extra)
            record = {"op": op._asdict(), "round": k, "s": end - launch, "status": "ok",
                      "detail": None}
            try:
                stamps = _last_json(proc, "perfbench ")
                record["setup_s"] = stamps["imported"] - launch
                _check_cli(op, csv_path, first_csv)
            except (RuntimeError, oracles.Mismatch, OSError, ValueError, KeyError) as exc:
                record.update(status="wrong", detail=f"{type(exc).__name__}: {exc}")
            if traced and record["status"] == "ok":
                per_process.append(_cli_spans(spans_path, len(records), launch, end, stamps))
            records.append(record)
    return records, per_process


def _cli_spans(path: Path, op_id: int, launch: float, end: float, stamps: dict) -> list:
    """A child's spans under one root span from launch to exit, plus the exit span."""
    spans = tracing.load(str(path))
    for s in spans:
        s[tracing.OP] = op_id
        s[tracing.PARENT] = s[tracing.PARENT] + 1 if s[tracing.PARENT] >= 0 else 0
    root = ["op", launch, end, -1, op_id, 0]
    tail = [
        ["trace.write", stamps["main_end"], stamps["written"], 0, op_id, 0],
        ["cli.exit", stamps["written"], end, 0, op_id, 0],
    ]
    return [root] + spans + tail


# ---------------------------------------------------------------------------
# p-sweep and fine-grid: one warm worker process
# ---------------------------------------------------------------------------


def worker(workload: str, *flags: str) -> dict:
    proc, _, _ = spawn([sys.executable, str(HERE / "worker.py"), "--workload", workload, *flags])
    return _last_json(proc)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def ok_times(records: list[dict]) -> list[float]:
    times = [r["s"] for r in records if r["status"] == "ok"]
    if len(times) < 2:
        raise RuntimeError(f"only {len(times)} operations succeeded; nothing to time")
    return times


def tail(times: list[float]) -> float:
    """The TAIL_PERCENTILE-th percentile (inclusive quantile method)."""
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s", ".p50")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name == "potential.flux_evals_per_level":
        return "points/level"
    if name.startswith("trace."):
        return "ratio"
    return "count"


def measure(args) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics."""
    if args.workload == "cli-cold":
        records, _ = cli_cold(args.seed, args.seconds, None, traced=False)
        setups = [r["setup_s"] for r in records if "setup_s" in r]
        peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        setups = [worker(args.workload, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        main = worker(args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--min-ok", str(MIN_OK_OPS.get(args.workload, 0)))
        setups.append(main["setup_s"])
        records, peak_rss = main["ops"], main["peak_rss_mb"]
    times = ok_times(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail(times),
        "ops_per_s": len(times) / sum(r["s"] for r in records),
        "peak_rss_mb": peak_rss,
    }
    units = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}
    detail = {"setup_samples": setups, "tail_percentile": TAIL_PERCENTILE,
              "ok_samples": len(times)}
    return _result(records, records, metrics, units), dict(detail, records=records)


def trace(args) -> tuple[dict, dict]:
    """Traced run: fixed rounds plain, traced and plain again; per-layer metrics."""
    rounds = TRACE_ROUNDS[args.workload]
    if args.workload == "cli-cold":
        def plain_pass():
            return cli_cold(args.seed, 0.0, rounds, traced=False)[0]

        before = plain_pass()
        traced, per_process = cli_cold(args.seed, 0.0, rounds, traced=True)
        layers = tracing.layer_metrics(tracing.merge(per_process))
    else:
        flags = ("--seed", str(args.seed), "--rounds", str(rounds))

        def plain_pass():
            return worker(args.workload, *flags)["ops"]

        before = plain_pass()
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans"
        run = worker(args.workload, *flags, "--trace-file", str(spans_path))
        traced, layers = run["ops"], run["layers"]
    plain = before + plain_pass()  # plain passes on both sides of the traced one
    untraced_p50 = statistics.median(ok_times(plain))
    traced_p50 = statistics.median(ok_times(traced))
    metrics = dict(layers)
    metrics["trace.op_s.p50"] = traced_p50
    metrics["trace.untraced_op_s.p50"] = untraced_p50
    metrics["trace.overhead"] = traced_p50 / untraced_p50 - 1.0
    units = {name: unit_of(name) for name in metrics}
    return _result(plain + traced, traced, metrics, units), {"rounds": rounds, "records": traced}


def _result(checked: list[dict], counted: list[dict], metrics: dict, units: dict) -> dict:
    """``counted`` gives attempted/failed; every op in ``checked`` must be right."""
    return {
        "correct": not any(r["status"] == "wrong" for r in checked),
        "attempted": len(counted),
        "failed": sum(r["status"] != "ok" for r in counted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pinchlab" / "cli.py").is_file():
        print(f"perfbench: no pinchlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    before = calibration()
    warm_caches()
    result, detail = (trace if args.trace else measure)(args)
    after = calibration()

    import numpy

    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        calibration={"before": before, "after": after},
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": metadata.version("scipy"), "cpus": os.cpu_count()},
        result=result,
    )
    name = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    name.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    records = detail.pop("records")
    detail["failures"] = [r for r in records if r["status"] != "ok"][:8]
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
