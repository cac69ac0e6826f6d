"""One round of one workload in a fresh process, so that hfree's module
caches start cold. Prints one JSON object; run.py starts these.

    python3 perfbench/round.py --workload classify_zoo --seed 1 --trace 0
    python3 perfbench/round.py --workload classify_zoo --seed 1 --setup-only
    python3 perfbench/round.py --classify-editing '[n, [row, ...]]'
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
import wl_classify  # noqa: E402
import wl_enumerate  # noqa: E402
import wl_instances  # noqa: E402
from common import Round, import_hfree  # noqa: E402
from hostspeed import NullSampler, Sampler  # noqa: E402
from tracing import NullTracer, SpanSummary, Tracer  # noqa: E402

WORKLOADS = {
    "enumerate_check": wl_enumerate,
    "classify_zoo": wl_classify,
    "instance_verify": wl_instances,
}


def classify_editing(spec: str) -> int:
    hf = import_hfree()
    n, rows = json.loads(spec)
    print(hf["classify"].classify(hf["graphs"].SmallGraph(n, rows), "editing").status)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--classify-editing", metavar="JSON")
    args = ap.parse_args(argv)
    if args.classify_editing:
        return classify_editing(args.classify_editing)
    if args.workload is None:
        ap.error("--workload is required")

    wl = WORKLOADS[args.workload]
    # traced rounds measure spans, not the host, and set-up-only processes
    # are too short to sample: both keep raw times
    sampler = NullSampler() if args.trace or args.setup_only else Sampler()
    sampler.start()
    hf = import_hfree()
    state = wl.setup(hf, args.seed)
    setup_s = perf_counter() - T0 - sampler.spent
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install(hf)
    r = Round(tracer, wl.PHASES, sampler)
    wl.run(state, r)
    sampler.stop()
    out = {
        "setup_s": setup_s,
        "probe_s": sampler.probe_s(),
        "scale": sampler.scale(),
        "phases": r.phases,
        "attempted": r.attempted,
        "failed": r.failed,
        "errors": r.errors,
        "problems": r.problems,
        "problem_count": r.problem_count,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "facts": r.facts,
    }
    if args.trace:
        tracer.uninstall()
        out["layers"] = layers.per_layer(
            SpanSummary(tracer), r.facts, sum(tracer.level_sizes.values())
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
