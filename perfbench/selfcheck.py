"""Self-check of the benchmark. Run from the repository root:

    python3 perfbench/selfcheck.py

1. Every workload, at the tiny self-check scale, with tracing off emits
   exactly the end-to-end metrics of BENCHMARK.json, in its units, all
   positive, and error_rate 0; with tracing on, it emits exactly the
   per-layer metrics of BENCHMARK.json, in its units.
2. A deliberately wrong answer fed to the checker makes the run report
   correct = false and a failed operation (error_rate > 0).
3. The counts of two traced runs of the same seed are identical.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes; prints each failure otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import WORKLOADS  # noqa: E402
from workloads import END_TO_END  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
problems: list[str] = []


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    if "--scale" not in extra:
        cmd += ["--scale", "tiny"]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return p.returncode, result, p.stderr


def _counts(res: dict) -> dict:
    return {n: m["value"] for n, m in res["metrics"].items() if m["unit"] in ("count", "ratio")}


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        problems.append(what)


def main() -> int:
    expect(E2E_UNITS == END_TO_END, "BENCHMARK.json end_to_end is what the workloads emit")
    expect([w["name"] for w in SPEC["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    counts: dict[str, dict] = {}
    for w in WORKLOADS:
        code, res, err = run(w, 0)
        expect(code == 0 and res is not None, f"{w}: trace 0 exits 0 with a result")
        if res is None:
            print(err[-2000:])
            continue
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        expect(got == E2E_UNITS, f"{w}: emits every end-to-end metric in its unit")
        expect(all(m["value"] > 0 for m in res["metrics"].values()),
               f"{w}: end-to-end metrics are positive")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{w}: error_rate 0 over {res['attempted']} operations")
        code, res, err = run(w, 1)
        expect(code == 0 and res is not None, f"{w}: trace 1 exits 0 with a result")
        if res is None:
            print(err[-2000:])
            continue
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        expect(got == PER_LAYER, f"{w}: traced run emits every per-layer metric in its unit")
        counts[w] = _counts(res)

    code, res, _ = run("query", 0, "--inject-wrong-answer")
    expect(res is not None and not res["correct"] and res["failed"] > 0,
           "a wrong answer fed to the checker raises error_rate above 0")

    for w in ("query", "maintain"):
        _, res, _ = run(w, 1)
        expect(_counts(res) == counts.get(w), f"{w}: traced counts repeat exactly")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res, _ = run("build", 0, "--scale", "full", cwd=bare)
    expect(code != 0 and res is None, "without src/ the benchmark exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
