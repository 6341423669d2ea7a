"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload relocalize --seeds 1-10 --seconds 15

For every end-to-end metric this prints the median of the runs and the
spread (Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4),
next to the metric's bound in BENCHMARK.json, and the share of failed
operations. Runs go one after another, so they do not compete for cores.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, shares = {}, []
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = next(json.loads(line) for line in lines if line.startswith('{"blas'))
        shares.append(result["failed"] / result["attempted"])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items())
              + f" cpu_s={info['cpu_s']:.1f} sha={info['report_sha256'][:16]}"
              + f" quality={json.dumps(info['quality'])}",
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    print(f"failed share per run: {sorted(set(shares))}")
    for k, vs in values.items():
        bound = bounds.get(k)
        spread = quartile_spread(vs) if len(vs) > 1 else float("nan")
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of bound"
        print(f"{k:32s} median {statistics.median(vs):12.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
