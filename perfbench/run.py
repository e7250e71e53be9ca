"""Benchmark of the (k, δ)-truss system: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload {build,query,maintain,spark} \
        --seed 7 --seconds 10 --trace 0

``--trace 0`` times the workload with tracing off and reports its end-to-end
metrics; ``--trace 1`` runs one fixed pass with every layer traced and reports
the per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Times are calibrated to a reference host speed
(``measure.HostClock``); the raw times are printed and stored alongside.
Full results (sample counts, tail percentiles, input shape, run stamp) and
the trace's spans are written under ``perfbench/out/``. NOTES.md explains
the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("build", "query", "maintain", "spark")
#: One Spark core: the input is small, so a pass took as long as on two
#: cores, and its times varied less between runs on a shared host (IQR/median
#: of the operation 0.03 against 0.06 over 4 seeds run alternately).
SPARK_CORES = 1
SPARK_SHUFFLE_PARTITIONS = 1  # one task per core: fewer tasks and shuffle files per round
#: A JVM sized to the Spark cores, with a fixed heap, so that GC and JIT
#: threads do not scale with the host's cores and the heap does not resize.
SPARK_JVM_OPTIONS = ("-Xms1g", "-XX:+UseParallelGC", f"-XX:ParallelGCThreads={SPARK_CORES}",
                     f"-XX:ActiveProcessorCount={SPARK_CORES}")


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: self-check inputs (perfbench/selfcheck.py)")
    ap.add_argument("--inject-wrong-answer", action="store_true",
                    help="corrupt the first checked answer (self-check of the checker)")
    return ap.parse_args(argv)


def _spark_env(out: Path) -> None:
    """Keep Spark's files inside the checkout and its size fixed."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(out / "spark-local")
    os.environ["SPARK_MASTER"] = f"local[{SPARK_CORES}]"
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(SPARK_SHUFFLE_PARTITIONS)
    # every JVM, spark-submit's launcher too, would write perf data to /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    java_options = " ".join((f"-Djava.io.tmpdir={tmp}", *SPARK_JVM_OPTIONS))
    warehouse = f"spark.sql.warehouse.dir={out / 'spark-warehouse'}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory 1g "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf {shlex.quote(warehouse)} "
        f"--driver-java-options {shlex.quote(java_options)} pyspark-shell"
    )


def _start_spark():
    from repro.sparkutil import get_session

    spark = get_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark() -> None:
    """Stop the session and wait for the JVM (it exits on EOF at its stdin)."""
    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    session = SparkSession.getActiveSession()
    if session is not None:
        session.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv: list[str]) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "core" / "mba.py").is_file():
        print(f"perfbench: {src}/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.workload == "spark":
        _spark_env(out_dir)

    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    from measure import Ledger, metadata
    from tracing import Tracer, layer_metrics
    import workloads as W

    ledger = Ledger(inject_wrong=args.inject_wrong_answer)
    tracer = Tracer() if args.trace else None
    ctx = W.Context(args.seed, args.seconds, args.scale, ledger, tracer)
    with ctx.clock:
        try:
            if args.workload == "spark":
                outcome = W.run_spark(ctx, _start_spark)
            else:
                if tracer is not None:
                    tracer.install()
                outcome = W.RUNNERS[args.workload](ctx)
        finally:
            if tracer is not None:
                tracer.restore()
            if args.workload == "spark":
                _stop_spark()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        tag += f"-{args.scale}"
    if tracer is not None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in
                   sorted(layer_metrics(tracer).items())}
        (out_dir / f"spans-{tag}.json").write_text(json.dumps(tracer.dump()))
        detail = metrics
    else:
        detail = outcome.metrics
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in outcome.metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "metrics": detail,
        "error_rate": ledger.error_rate,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "checks": ledger.checks,
        "failures": ledger.failures,
        "shape": outcome.shape,
        "notes": outcome.notes,
        "host_slowdown": ctx.clock.slowdown(),
        "probes": len(ctx.clock.probes),
        "stamp": metadata(root),
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"input {outcome.notes.get('input')}")
    op, read = W.OPERATIONS[args.workload]
    print(f"operation: {op};  read: {read}")
    print("shape " + json.dumps(outcome.shape, default=str))
    print("stamp " + json.dumps(record["stamp"]))
    print(f"host slowdown {record['host_slowdown']:.3f} (median of {record['probes']} probes "
          "over the reference; times are calibrated, raw alongside)")
    for name, m in detail.items():
        extra = ""
        if "n" in m:
            extra = f"  n={m['n']}"
        if "percentile" in m:
            extra += f"  (p{m['percentile']:g}, {m['beyond']} samples beyond)"
        if "raw" in m:
            extra += f"  raw {_fmt(m['raw'])}"
        print(f"  {name:34s} {_fmt(m['value']):>12s} {m['unit']}{extra}")
    print(f"  {'error_rate':34s} {_fmt(ledger.error_rate):>12s} ratio  "
          f"({ledger.failed} of {ledger.attempted} operations, {ledger.checks} checks)")
    if "trace_overhead_s" in outcome.notes:
        print(f"  tracing overhead {_fmt(outcome.notes['trace_overhead_s'])} s per build "
              f"(traced {outcome.notes['traced_build_s']} − untraced "
              f"{outcome.notes['untraced_build_s']}, calibrated)")
    for f in ledger.failures:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
