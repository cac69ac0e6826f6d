"""hfree benchmark: three workloads, each round in a fresh Python process.

    python3 perfbench/run.py                      # all workloads, untraced
    python3 perfbench/run.py --workload classify_zoo --seed 3 --seconds 30
    python3 perfbench/run.py --workload instance_verify --trace 1

A run repeats whole rounds of the workload (same seed, same operations)
and starts another only while it fits in --seconds; a run always holds at
least one round. With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics (medians over the run's rounds); with --trace 1 it
holds the per-layer metrics of one traced round, next to one untraced
round that gives the tracing overhead. Lines before it give every phase
time by name. Exit 0 on success, 1 if a round fails, 2 if the checkout
holds no hfree sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import layers
from common import ROOT, MissingProgram, check_checkout, child_env

WORKLOADS = ("enumerate_check", "classify_zoo", "instance_verify")
PHASES = {
    "enumerate_check": ("verify_s",),
    "classify_zoo": ("classify_s", "chain_s", "classify_warm_s"),
    "instance_verify": ("reduce_verify_s", "solve_oracle_s", "gadgets_s"),
}
SETUP_SAMPLES = 5
UNITS = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB", **layers.UNITS}
# every run must end within 180 s; a round that is still going after this
# many seconds of the run is stopped and the run fails
RUN_BUDGET_S = 170.0


class RoundFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, trace: int, start: float, setup_only=False) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    left = RUN_BUDGET_S - (perf_counter() - start)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round still running after the run budget") from None
    if proc.returncode != 0:
        raise RoundFailed(f"{workload} round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> str:
    head = ROOT / ".git" / "HEAD"
    sha = "none"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref[:12]
    return f"nproc={os.cpu_count()} python={platform.python_version()} git={sha}"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Rounds of one workload, reduced to the figures of the result line."""
    start = perf_counter()
    rounds = []
    if trace:
        rounds.append(_child(workload, seed, 0, start))
        rounds.append(_child(workload, seed, 1, start))
    else:
        while True:
            t0 = perf_counter()
            rounds.append(_child(workload, seed, 0, start))
            took = perf_counter() - t0
            if perf_counter() - start + took > seconds:
                break
    untraced = [r for r in rounds if "layers" not in r]
    # untraced times are in reference seconds: raw wall time times the
    # round's host speed scale (see hostspeed.py)
    phases = {
        p: statistics.median([r["phases"][p] * r["scale"] for r in untraced]) for p in PHASES[workload]
    }
    for r in rounds:
        for e in r["errors"]:
            print(f"# {workload} failed op: {e}", file=sys.stderr)
        for p in r["problems"]:
            print(f"# {workload} CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": all(r["problem_count"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "rounds": len(rounds),
        "round_work_s": [sum(r["phases"].values()) * r["scale"] for r in untraced],
        "round_wall_s": [sum(r["phases"].values()) for r in untraced],
        "round_probe_ms": [r["probe_s"] * 1000 for r in untraced],
        "phases": phases,
        "facts": rounds[-1]["facts"],
    }
    if trace:
        traced = rounds[1]
        layers = dict(traced["layers"])
        for p in ("verify_s", "classify_s", "reduce_verify_s"):
            layers[f"trace.overhead.{p}"] = (
                traced["phases"][p] - rounds[0]["phases"][p] if p in traced["phases"] else 0.0
            )
        layers["trace.overhead_share"] = sum(traced["phases"].values()) / sum(rounds[0]["phases"].values()) - 1
        result["metrics"] = layers
    else:
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_child(workload, seed, 0, start, setup_only=True)["setup_s"])
        scale = statistics.median([r["scale"] for r in rounds])
        result["metrics"] = {
            "setup_s": statistics.median(setups) * scale,
            "work_s": statistics.median(result["round_work_s"]),
            "peak_rss_mb": statistics.median([r["rss_mb"] for r in untraced]),
        }
    return result


def report(workload: str, res: dict) -> None:
    print(f"# {workload}: {res['rounds']} round(s), {res['attempted']} ops attempted, "
          f"{res['failed']} failed, correct={res['correct']}")
    for ref, wall, probe in zip(res["round_work_s"], res["round_wall_s"], res["round_probe_ms"]):
        print(f"# {workload} untraced round: work {ref:.3f} reference s = {wall:.3f} s wall "
              f"at probe {probe:.4f} ms")
    for p, v in res["phases"].items():
        print(f"{workload}  {p:<18} {v:10.4f} s")
    for k, v in sorted(res["facts"].items()):
        print(f"{workload}  fact {k} = {v}")
    for k, v in res["metrics"].items():
        print(f"{workload}  {k:<18} {v:10.4f} {UNITS[k]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_checkout()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"# machine: {machine()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            results[w] = run_workload(w, args.seed, args.seconds, args.trace)
            report(w, results[w])
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    # a single workload reports bare names; "all" prefixes the workload
    out = {
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": {
            (k if len(names) == 1 else f"{w}.{k}"): {"value": v, "unit": UNITS[k]}
            for w, res in results.items()
            for k, v in res["metrics"].items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
