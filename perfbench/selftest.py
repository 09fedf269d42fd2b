"""Toy-size self-test of the benchmark runner.

    python3 perfbench/selftest.py

Runs every workload at tiny shapes, untraced and traced, and checks that
every metric is printed with its unit, that the exact counts repeat between
two traced runs of one seed, that an op with an unreachable return target is
counted as failed without stopping the run, and that the runner refuses to
run without the program's sources. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, EXACT_COUNTS, LAYER_ONLY, PER_LAYER, WORKLOADS  # noqa: E402

#: Every end-to-end metric the report lines carry, JSON line or not.
REPORTED = END_TO_END + (("op_s.tail", "s"), ("build_s", "s"), ("solve_s", "s"),
                         ("full_model_gap", "ratio"), ("rel_spectral_error", "ratio"),
                         ("failed_ops", "share"))


def bench(*extra: str, root: Path = ROOT) -> tuple[int, list[str], str]:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "3",
           "--seconds", "0.3", "--scale", "toy", *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok   {what}")


def result(lines: list[str]) -> dict:
    res = json.loads(lines[-1])
    require(set(res) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    return res


def shown(lines: list[str], prefix: str, name: str, unit: str) -> bool:
    return any(line.startswith(f"{prefix} {name} ") and f" {unit}" in line for line in lines)


def main() -> int:
    for name in WORKLOADS:
        rc, lines, err = bench("--workload", name, "--trace", "0")
        require(rc == 0, f"{name}: untraced run exits 0 ({err.strip()[-200:]})")
        res = result(lines)
        require(res["correct"] and res["failed"] == 0, f"{name}: no failed ops")
        require(all(shown(lines, "metric", m, u) for m, u in REPORTED),
                f"{name}: every end-to-end metric printed with its unit")
        require({k: v["unit"] for k, v in res["metrics"].items()} == dict(END_TO_END),
                f"{name}: JSON line carries the end-to-end metrics")

        counts = []
        for _ in range(2):
            rc, lines, err = bench("--workload", name, "--trace", "1")
            require(rc == 0, f"{name}: traced run exits 0 ({err.strip()[-200:]})")
            res = result(lines)
            require(res["correct"], f"{name}: traced ops pass their checks")
            require(all(shown(lines, "layer", m, u) for m, u in PER_LAYER + LAYER_ONLY),
                    f"{name}: every per-layer metric printed with its unit")
            require({k: v["unit"] for k, v in res["metrics"].items()} == dict(PER_LAYER),
                    f"{name}: JSON line carries the per-layer metrics")
            counts.append({k: res["metrics"][k]["value"] for k in EXACT_COUNTS})
        require(counts[0] == counts[1], f"{name}: exact counts repeat across runs {counts[0]}")

        rc, lines, err = bench("--workload", name, "--trace", "0", "--inject-failure")
        res = result(lines)
        require(rc == 0 and res["failed"] == 1 and not res["correct"],
                f"{name}: injected R_target > max(mu) op counted as failed")
        require(any(line.startswith("metric failed_ops ") and not line.startswith(
            "metric failed_ops 0.0 ") for line in lines), f"{name}: failed_ops reported")

    bare = ROOT / ".perfbench" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines, _ = bench("--workload", WORKLOADS[0], "--trace", "0", root=bare)
    shutil.rmtree(bare)
    require(rc != 0 and not lines, "without src/ the runner exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
