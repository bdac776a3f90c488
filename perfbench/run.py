"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kdd-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, from rounds traced by
``tracer.py`` alternating with untraced rounds (their throughput ratio is the
tracing overhead).  Human-readable lines (prefixed ``#``) come first; the
last line of standard output is the JSON result.  A result file (and, when
tracing, the spans) is written under ``perfbench/out/``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported, so
# the benchmark's load stays on the caller's core.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Rounds needed before the run may stop (per kind: untraced, traced).
MIN_ROUNDS = 5
#: Stop starting rounds after this many seconds whatever ``--seconds`` says.
HARD_LIMIT_S = 100.0
#: Fresh-interpreter imports timed per run, before the first round.
IMPORT_SAMPLES = 9
IMPORT_CODE = (
    "import time; t = time.perf_counter(); from repro import EDMStream; "
    "print(time.perf_counter() - t)"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    benchmark = json.loads(spec_file.read_text())
    sys.path.insert(0, str(SRC))

    import numpy as np

    import checks
    from tracer import Tracer
    from workloads import SPECS, make_inputs, run_round

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(SPECS)}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    fingerprint = machine_fingerprint()

    inputs = make_inputs(spec, args.seed)
    inputs_rss_mb = peak_rss_mb()
    problems = []
    n_checks = 0
    tracer = Tracer() if args.trace else None
    kinds = (False, True) if tracer else (False,)
    rounds = []
    # Fresh-interpreter imports one after another: taken between rounds,
    # after a round's heavy work, they scattered between two levels.
    import_samples = [time_import() for _ in range(IMPORT_SAMPLES)]
    # A host gauge before each round; neither counts in the measured time.
    host_samples = []
    measured = 0.0
    while True:
        host_samples.append(host_gauge())
        traced = kinds[len(rounds) % len(kinds)]
        t0 = perf_counter()
        result = run_round(spec, inputs, tracer if traced else None)
        rounds.append((traced, result))
        if result.error:
            problems.append(f"round {len(rounds) - 1}: {result.error}")
        model, result.model = result.model, None
        problems += checks.tree_valid(model)
        problems += checks.predict_agrees(model, inputs.queries[-64:])
        n_checks += 2
        measured += perf_counter() - t0
        # A model is a web of reference cycles: collect it now, not in a
        # later round's timed calls, and keep one model's memory at a time.
        del model
        gc.collect()
        done = min(sum(1 for t, _ in rounds if t == kind) for kind in kinds)
        if done >= MIN_ROUNDS and measured >= args.seconds:
            break
        if done >= 1 and measured >= HARD_LIMIT_S:
            break
    rounds_rss_mb = peak_rss_mb()
    # After the rounds, so that the oracle's two models are not in the peak.
    problems += checks.batch_matches_oracle(inputs)
    problems += checks.counts_repeat([r.counts for _, r in rounds])
    n_checks += 2

    plain = [r for t, r in rounds if not t and r.error is None]
    traced_rounds = [r for t, r in rounds if t and r.error is None]
    calls = sum(r.calls for _, r in rounds)
    failed = sum(r.failed_calls for _, r in rounds) + len(problems)
    attempted = calls + n_checks
    for problem in problems:
        print(f"# FAILED: {problem}")
    if not plain or (tracer is not None and not traced_rounds):
        print("error: no round of this kind completed", file=sys.stderr)
        return 1

    e2e, samples = end_to_end(np, plain, import_samples)
    e2e["peak_rss_mb"] = rounds_rss_mb
    if tracer is None:
        wanted = benchmark["end_to_end"]
        values = e2e
    else:
        wanted = benchmark["per_layer"]
        values = per_layer(np, traced_rounds, plain)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{spec.name}-seed{args.seed}-spans.npz")
        if tracer.missing:
            print(f"# missing trace targets: {', '.join(tracer.missing)}")
        ranking = sorted(
            ((k[: -len("_self_s")], v) for k, v in values.items() if k.endswith("_self_s")),
            key=lambda item: -item[1],
        )
        print("# self time: " + ", ".join(f"{k} {v:.4g} s" for k, v in ranking))
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": entry["unit"]}

    for name, metric in metrics.items():
        note = f" (n={samples[name]})" if name in samples else ""
        print(f"# {name:34s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(
        f"# peak RSS before the first round {inputs_rss_mb:.4g} MB "
        "(interpreter, libraries, inputs)"
    )
    print(
        f"# host gauge {statistics.median(host_samples) * 1e3:.4g} ms median, "
        f"{min(host_samples) * 1e3:.4g} ms fastest of {len(host_samples)}"
    )
    print("# " + json.dumps(fingerprint, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "samples": samples,
        "end_to_end": e2e,
        "rounds": [
            {"traced": t, "setup_s": r.setup_s, "points": r.points, "update_s": sum(r.update_s),
             "query_points": r.query_points, "query_s": sum(r.query_s), "counts": r.counts,
             "layer": r.layer}
            for t, r in rounds
        ],
        "import_s": import_samples,
        "inputs_rss_mb": inputs_rss_mb,
        "host_gauge_s": host_samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "fingerprint": fingerprint,
    }
    out_file = OUT / f"{spec.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def fastest_replay(np, rounds, attr):
    """Element-wise minimum, over rounds, of a series of per-position seconds.

    Every round replays the same inputs, so position ``i`` (an update call,
    a read) does the same work in each.  The host's speed drifts between
    states for seconds at a time, several times within one run; the fastest
    replay of each call is the program's own cost.  Taken call by call, it
    needs some fast spell to cover each call once, not a whole round run
    inside one fast spell.
    """
    return np.min(np.asarray([getattr(r, attr) for r in rounds], dtype=float), axis=0)


def end_to_end(np, rounds, import_samples):
    """End-to-end metrics (and their sample counts) of the untraced rounds.

    Every timing takes each call's fastest replay, the p99s too: the tail
    of every replay is the host's, not the program's (see README.md), at
    the price that a slow call that does not repeat at the same position,
    such as a collector pause, is not seen.
    """
    first = rounds[0]
    metrics, samples = {}, {}
    for name, rate, attr, points in (
        ("update", "ingest_pts_per_s", "update_s", first.points),
        ("query", "query_pts_per_s", "query_s", first.query_points),
    ):
        per_call = fastest_replay(np, rounds, attr)
        metrics[rate] = points / per_call.sum()
        for q in (50, 99):
            metrics[f"{name}_p{q}_ms"] = float(np.percentile(per_call, q)) * 1e3
        for key in (rate, f"{name}_p50_ms", f"{name}_p99_ms"):
            samples[key] = f"{per_call.size} calls, fastest of {len(rounds)} replays each"
    metrics["setup_s"] = statistics.median(import_samples) + statistics.median(
        r.setup_s for r in rounds
    )
    samples["setup_s"] = (
        f"median of {len(import_samples)} imports + median of {len(rounds)} set-ups"
    )
    metrics["cell_state_mb"] = first.cell_state_bytes / 1e6
    metrics["purity"] = first.purity
    return metrics, samples


def per_layer(np, traced, plain):
    """Per-layer metrics: fastest traced round's seconds, exact counts."""
    values = dict(traced[0].counts)
    for key in traced[0].layer:
        values[key] = min(r.layer[key] for r in traced)
    values["tracing.overhead_ratio"] = (
        fastest_replay(np, traced, "update_s").sum() / fastest_replay(np, plain, "update_s").sum()
    )
    return values


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_gauge() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at the time.

    It does not touch the library; a slow run with a slow gauge was a slow
    host, not slow code.
    """
    t0 = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return perf_counter() - t0


def time_import() -> float:
    """Seconds to import the library in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine_fingerprint() -> dict:
    """Where and on what the figures were measured."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
    }


if __name__ == "__main__":
    sys.exit(main())
