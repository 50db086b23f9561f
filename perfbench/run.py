"""nilgraph benchmark: one workload, one process, one client (closed loop).

    python3 perfbench/run.py --workload search-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: search-dense, search-walk, search-edgeless, queries (see
perfbench/README.md for what each measures and why).

A run repeats whole rounds of the workload's operations; it starts another
round only while the previous round's duration still fits in ``--seconds``,
and always runs at least one.  With ``--trace 0`` it reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it records spans around the
calls it makes into each layer and reports the per-layer metrics, and writes
the spans to ``.perfbench-out/``.  Every output is checked against the golden
reference in ``perfbench/golden/``.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("search-dense", "search-walk", "search-edgeless", "queries")
SETUP_REPEATS = 7
LAYERS = ("spectra", "morphism", "exactlin", "nilgroup", "graphs", "oracle", "bench")

# per-layer metric -> span whose median duration it reports, in microseconds
MEDIAN_US = {
    "morphism.endo_us": "morphism.endo",
    "morphism.reid_us": "morphism.reid",
    "exactlin.det1_us": "exactlin.det1",
    "exactlin.det2_us": "exactlin.det2",
    "nilgroup.commutator_us": "nilgroup.commutator",
    "graphs.join_decompose_us": "graphs.join_decompose",
    "graphs.connected_components_us": "graphs.connected_components",
    "graphs.is_isomorphic_us": "graphs.is_isomorphic",
    "spectra.detect_us": "spectra.detect",
    "spectra.decompose_us": "spectra.decompose",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print the set-up seconds and exit")
    return ap.parse_args(argv)


def make_workload(name: str, seed: int):
    sys.path.insert(0, str(SRC))
    if name == "queries":
        from queries import QueryWorkload

        return QueryWorkload(seed)
    from searches import SearchWorkload

    return SearchWorkload(name, seed)


def measure_setup(args) -> float:
    """Median set-up time of fresh processes: import the program, load the
    golden reference and build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return median(times)


# ---------------------------------------------------------------------------
# stamp
# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nilgraph").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(seed: int, loadavg) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": [round(x, 2) for x in loadavg],
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def per_layer_metrics(workload, tracer, rounds) -> dict:
    passes = len(rounds)
    wall = sum(r.wall for r in rounds)
    out = {name: (tracer.median_us(span), "us")
           for name, span in MEDIAN_US.items() if tracer.durations(span)}
    out.update(workload.per_layer(tracer, rounds))
    selfs = tracer.self_times(wall)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = (selfs.get(layer, 0.0) / passes, "s")
    op_time = sum(tracer.total(name) for name in workload.op_spans)
    out["trace.wall_s"] = (wall / passes, "s")
    out["trace.overhead_s"] = ((wall - op_time) / passes, "s")
    return out


def run(args) -> int:
    load_start = os.getloadavg()
    t0 = perf_counter()
    if not (SRC / "nilgraph" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    setup = perf_counter() - t0
    if args.setup_only:
        print(repr(setup))
        return 0
    end_to_end, per_layer = declared_metrics()
    info = stamp(args.seed, load_start)
    setup_s = measure_setup(args)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    start = perf_counter()
    while True:
        rnd = workload.traced_round(tracer) if tracer else workload.run_round()
        rounds.append(rnd)
        if perf_counter() - start + rnd.wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = [rec for rnd in rounds for rec in rnd.records]
    mismatched, errors, notes = workload.check(records)

    if tracer:
        computed = per_layer_metrics(workload, tracer, rounds)
        declared = per_layer
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "stamp": info})
    else:
        computed = {
            "wall_s": (median(r.wall for r in rounds), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "error_rate": (errors / len(records), "ratio"),
        }
        computed.update(workload.end_to_end(rounds))
        declared = end_to_end

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} seconds={args.seconds}")
    for key, value in info.items():
        print(f"stamp {key} = {value}")
    if tracer:
        print(f"spans written to {trace_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    metrics = {}
    for name, (value, unit) in computed.items():
        if name in declared and declared[name] != unit:
            raise ValueError(f"{name}: computed in {unit}, declared in {declared[name]}")
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
        if name in declared:
            metrics[name] = {"value": value, "unit": unit}
    for name, unit in declared.items():
        if name not in metrics:
            if not tracer:
                raise ValueError(f"end-to-end metric {name} was not measured")
            print(f"metric {name} = 0 {unit} (layer not exercised by this workload)")
            metrics[name] = {"value": 0, "unit": unit}
    print(f"check attempted={len(records)} failed={mismatched} errors={errors}")
    for note in notes:
        print(f"check {note}")
    result = {"correct": mismatched == 0, "attempted": len(records), "failed": mismatched,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
