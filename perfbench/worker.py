"""One in-process workload run in a fresh interpreter.

``run.py`` launches ``python3 perfbench/worker.py --workload W ...`` with
PERFBENCH_LAUNCH set to its monotonic clock at launch.  The worker imports
pinchlab, builds the models, runs the untimed warm-up, then times whole
rounds of operations and checks every output against ``oracles`` outside the
timed region.  It prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import oracles
import workloads
from workloads import R0, SPECS


def execute(cli, pl, models, op, sizes):
    """Run one operation; returns (scenario report, cross-validation or None)."""
    config = cli.RunConfig(
        model=SPECS[op.model],
        scenario=op.scenario,
        p=op.p,
        r0=R0,
        n_grid=sizes["n_grid"],
        n_levels=sizes["n_levels"],
    )
    report = cli.run(config)
    if "n_cells" not in sizes:
        return report, None
    model = models[op.model]
    problem = pl.discretize(model, op.p, R0, sizes["n_cells"], sizes["r_cut"])
    solution = pl.minimize_energy(problem, tol=workloads.NEWTON_TOL)
    return report, pl.cross_validate(solution, pl.solve_radial(model, op.p, R0))


def check(op, report, xval, sizes) -> None:
    if op.fault == "compact-cap":
        if report.failed_hypothesis is None:
            raise oracles.Mismatch(f"{op.model} passes every hypothesis gate")
        return
    oracles.check_rows(report.rows, op.p, op.model, R0)
    if op.scenario == "contradict":
        oracles.check_hypothesis(op.model, report.failed_hypothesis)
    if xval is not None:
        if not xval.passed:
            raise oracles.Mismatch(
                f"{op.model} p={op.p!r}: cross-validation failed (node error "
                f"{xval.max_node_error:.3e}, capacity gap {xval.capacity_gap:.3e})"
            )
        oracles.check_variational_bracket(xval.capacity_energy, op.p, op.model, R0, sizes["r_cut"])


def status_of(op, outcome, error, sizes) -> tuple[str, str | None]:
    """ok | fault (a known fault still present) | wrong (an unexpected failure)."""
    from pinchlab.errors import PinchLabError

    failed = "fault" if op.fault else "wrong"
    if error is not None:
        if op.fault == "compact-cap" and isinstance(error, PinchLabError):
            return "ok", None
        return failed, f"{type(error).__name__}: {error}"
    try:
        check(op, *outcome, sizes)
    except oracles.Mismatch as exc:
        return failed, str(exc)
    return "ok", None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("p-sweep", "fine-grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ok", type=int, default=0, help="keep going until this many ok ops")
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", help="record layer spans and write them here")
    args = parser.parse_args()

    launch = float(os.environ["PERFBENCH_LAUNCH"])
    import pinchlab.cli as cli

    imported = time.monotonic()
    import pinchlab as pl

    tracer = None
    if args.trace_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.add("cli.import", launch, imported)
        tracer.install()
    models = {name: cli.build_model(SPECS[name]) for name in workloads.MODELS}
    warm_ops, warm_sizes = workloads.WARM_UP[args.workload]
    for op in warm_ops:
        execute(cli, pl, models, op, warm_sizes)
    result = {"import_s": imported - launch, "setup_s": time.monotonic() - launch}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    sizes = workloads.P_SWEEP if args.workload == "p-sweep" else workloads.FINE_GRID
    records = []
    start = time.monotonic()
    for k, ops in enumerate(workloads.rounds(args.workload, args.seed)):
        if args.rounds is not None and k >= args.rounds:
            break
        if args.rounds is None and time.monotonic() - start >= args.seconds:
            if sum(r["status"] == "ok" for r in records) >= args.min_ok:
                break
        for op in ops:
            if tracer:
                tracer.begin_op(len(records))
            error = outcome = None
            t0 = time.perf_counter()
            try:
                outcome = execute(cli, pl, models, op, sizes)
            except Exception as exc:  # any failure is recorded against the op
                error = exc
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.end_op()
            status, detail = status_of(op, outcome, error, sizes)
            records.append({"op": op._asdict(), "round": k, "s": seconds,
                            "status": status, "detail": detail})
    result["ops"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
