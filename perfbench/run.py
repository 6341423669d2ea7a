"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload relocalize --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from `src/`. The
set-up runs twice and `setup_s` is the faster; the timed round then repeats
until its timed parts add up to `--seconds`. Every round does the same
operations, and each time metric is taken from the fastest repeat, as timeit
does: a slow phase of a shared machine can only raise a time. `--trace 0`
prints the end-to-end metrics, `--trace 1` the per-layer metrics of a traced
run, whose spans go to `perfbench/out/`. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every check passed and no operation failed.
"""

import os

# One BLAS thread, fixed before numpy loads: the box has 2 cores shared with
# other work, and the default threading made timings unsteady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ablation", "relocalize"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool):
    import numpy as np
    import layers
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    checks = workloads.Checks()
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install("sbevloc", layers.targets(layers.SbevUse()))
        untraced, span = tracer.paused, tracer.span
    else:
        untraced, span = contextlib.nullcontext, lambda name: contextlib.nullcontext()
    wl = workloads.WORKLOADS[workload](seed, checks, untraced, OUT_DIR)

    # As timeit does, the cyclic garbage collector is off while the program
    # runs and collects between phases. With it on, the same scoring call
    # took 10 or 20 ms depending on where collections fell. What each
    # collection finds is reported, so reference cycles a phase leaves show.
    gc.disable()
    setup_s, prints, setup_gc = [], [], []
    for _ in range(SETUP_REPEATS):
        wl.release()
        setup_gc.append(gc.collect())
        t0 = time.perf_counter()
        with span("bench.setup"):
            prints.append(wl.setup())
        setup_s.append(time.perf_counter() - t0)
    setup_gc = setup_gc[1:] + [gc.collect()]
    checks.expect(len(set(prints)) == 1,
                  "set-up outputs differ between repeats with the same seed")
    with untraced():
        wl.after_setup()

    untraced_round = None
    if tracer:
        gc.collect()
        with tracer.paused():
            untraced_round = wl.round()
    rounds, round_gc = [], []
    while sum(r.wall_s for r in rounds) < seconds:
        round_gc.append(gc.collect())
        with span("bench.round"):
            rounds.append(wl.round())
    # the cycles the last round left
    round_gc = round_gc[1:] + [gc.collect()]
    wl.finish()
    digests = {r.digest for r in rounds + ([untraced_round] if untraced_round else [])}
    checks.expect(len(digests) == 1,
                  "round outputs differ between rounds with the same seed")

    # the same frame or scoring call in every round: its fastest time
    frame_ms = np.min([r.frame_ms for r in rounds], axis=0)
    op_s = np.min([r.op_s for r in rounds], axis=0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    info = {
        "blas_threads": BLAS_THREADS,
        "setup_s": setup_s,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "gc_collected": {"setup": setup_gc, "round": round_gc},
        "latency_samples": len(frame_ms),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "report_sha256": rounds[0].digest,
        "quality": wl.quality,
    }
    if not tracer:
        metrics = {
            "setup_s": (min(setup_s), "s"),
            "wall_s": (min(r.wall_s for r in rounds), "s"),
            "frames_per_s": (rounds[0].frames / float(op_s.sum()), "1/s"),
            "frame_ms_p50": (float(np.percentile(frame_ms, 50)), "ms"),
            "frame_ms_p95": (float(np.percentile(frame_ms, 95)), "ms"),
            "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
            "map_kb": (wl.map_kb, "kB"),
        }
    else:
        tracer.uninstall()
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        tracer.write(path)
        per_layer = layers.layer_metrics(tracer.names, tracer.spans)
        for name, want in wl.expected_counts(SETUP_REPEATS, len(rounds)).items():
            got = per_layer[name][0]
            checks.expect(got == want, f"{name}: traced {got}, the workload "
                          f"arithmetic gives {want}")
        overhead = 100.0 * (statistics.median(r.wall_s for r in rounds)
                            / untraced_round.wall_s - 1.0)
        metrics = {name: (value, unit) for name, (value, unit, _) in per_layer.items()}
        metrics["trace.overhead_pct"] = (overhead, "%")
        info.update(trace_file=os.path.relpath(path), spans=len(tracer.spans),
                    calls={name: n for name, (_, _, n) in per_layer.items()})
    return checks, rounds, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401
        import sbevloc.evaluate  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the program from {SRC}: {e}", file=sys.stderr)
        return 2
    checks, rounds, metrics, info = run(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for message in checks.disagreements[:20]:
        print(f"DISAGREES: {message}", file=sys.stderr)
    for message in checks.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
