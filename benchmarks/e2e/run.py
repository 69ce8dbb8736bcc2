#!/usr/bin/env python3
"""The repo's end-to-end benchmark: agent tool calls, top to bottom.

    python3 benchmarks/e2e/run.py                      # all workloads: untraced + traced
    python3 benchmarks/e2e/run.py --workload NAME --repeat 10 --out A.json
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py --check-determinism
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is one run of one workload in this process — what the report
form starts once per workload and mode (each in a fresh subprocess), and
what BENCHMARK.json's ``command`` names. Its last line of output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

See README.md beside this file for workloads, metrics and how to read them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"{ROOT}/src/repro not found: the benchmark measures the checkout it sits in")
# the checkout's own source first, so an installed copy is never measured
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from e2ebench import compare, harness, spec  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1, help="drives every generator")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run once in this process, untraced (0) or traced (1)")
    parser.add_argument("--episodes", type=int,
                        help="measure this many episodes per client instead of "
                             "--seconds (every count then repeats exactly)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--repeat", type=int, default=1,
                        help="report form: untraced runs per workload, seeds seed..seed+n-1")
    parser.add_argument("--out", default=os.path.join(OUT, "result.json"),
                        help="report form: where the result file goes")
    parser.add_argument("--check-determinism", action="store_true",
                        help="same seed twice: every count must repeat; "
                             "another seed must change the call list")
    return parser


def _record_path(workload: str, trace: int) -> str:
    return os.path.join(OUT, f"{workload}.{'traced' if trace else 'untraced'}.json")


def _script_digest(workload_name: str, seed: int, sizing: dict) -> str:
    """Digest of the first scripted calls of every client, for telling two
    seeds' call lists apart without running them."""
    workload = WORKLOADS[workload_name](seed, sizing[workload_name], OUT)
    digest = hashlib.sha256()
    for client in range(workload.clients):
        for episode in workload.script(client)[:200]:
            for step in episode.steps:
                digest.update(repr((step.call.tool, step.call.args)).encode())
    return digest.hexdigest()


# ------------------------------------------------------------ one run


def _pin_to_one_cpu() -> int | None:
    """Keep every thread of this process on one CPU; returns which.

    The interpreter lock lets one thread run at a time anyway. Left to the
    scheduler, the clients and dispatcher workers of ``service_contended``
    wake each other across the box's two virtual CPUs, and how long that
    takes swings with the host's other tenants: over ten seeds, pinned and
    unpinned runs alternating, ``episode_p95_ms`` spread 30% unpinned and
    18% pinned, ``tool_calls_per_s`` 14% and 7% (README, "Load model").
    The highest CPU the process may use: interrupts tend to land on CPU 0.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_once(args: argparse.Namespace) -> int:
    """One workload, one mode, in this process (the driver's form)."""
    sizing = spec.SMOKE if args.smoke else spec.FULL
    cpu = _pin_to_one_cpu()
    record = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        sizing, OUT, args.episodes,
    )
    record["cpu"] = cpu
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(f"{args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{record['episodes']['timed']} episodes, "
          f"{record['episodes']['timed_calls']} tool calls in "
          f"{record['timed_wall_s']:.2f} s")
    if not args.trace:
        print(f"  at reference speed; the machine ran at 1/{record['speed']:.2f} of it")
    for name, metric in metrics.items():
        detail = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}{detail}")
    print(f"  {'failed_share':<40} {record['failed_share']:>14.4f} ratio  "
          f"({record['failed']} of {record['attempted']})")
    for message in record["failures"] + record["oracle"]["mismatches"]:
        print(f"  FAILED: {message}")
    with open(_record_path(args.workload, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in metrics.items()
        },
    }))
    return 0


# --------------------------------------------------------- report form


def _spawn(workload: str, seed: int, trace: int, args: argparse.Namespace) -> dict:
    """One run in a fresh subprocess: clean GC state and caches, its own
    ``ru_maxrss``. Returns the full record the run wrote."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.episodes is not None:
        command += ["--episodes", str(args.episodes)]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
    with open(_record_path(workload, trace), encoding="utf-8") as fh:
        return json.load(fh)


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _series(records: list[dict], section: str, name: str) -> dict:
    values = [record[section][name]["value"] for record in records]
    entry = {
        "unit": records[0][section][name]["unit"],
        "values": values,
        "median": statistics.median(values),
        "spread": compare.spread(values),
    }
    if "samples" in records[0][section][name]:
        entry["samples"] = [record[section][name]["samples"] for record in records]
    return entry


def report(args: argparse.Namespace) -> int:
    """Every selected workload: ``--repeat`` untraced runs, then a traced one."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    sizing = spec.SMOKE if args.smoke else spec.FULL
    result = {
        "meta": {
            "seeds": list(range(args.seed, args.seed + args.repeat)),
            "seconds": args.seconds,
            "episodes": args.episodes,
            "sizing": {"setups": sizing["setups"], **{name: sizing[name] for name in names}},
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": _commit(),
        },
        "workloads": {},
    }
    failed = False
    for name in names:
        untraced = [_spawn(name, args.seed + n, 0, args) for n in range(args.repeat)]
        traced = [_spawn(name, args.seed, 1, args)]
        entry = result["workloads"][name] = {
            "why": spec.WORKLOADS[name],
            "end_to_end": {
                metric.name: _series(untraced, "end_to_end", metric.name)
                for metric in spec.END_TO_END
            },
            "failed_share": [record["failed_share"] for record in untraced + traced],
            "speed": [record["speed"] for record in untraced],
            "per_layer": {
                metric.name: _series(traced, "per_layer", metric.name)
                for metric in spec.PER_LAYER
            },
            "attribution": traced[-1]["attribution"],
            "top_layers": traced[-1]["top_layers"],
            "per_tool": untraced[-1]["per_tool"],
            "per_kind": untraced[-1]["per_kind"],
            "episodes": untraced[-1]["episodes"],
            "oracle_checks": untraced[-1]["oracle"]["checks"],
        }
        print(f"\n== {name} — {spec.WORKLOADS[name]}")
        episodes = entry["episodes"]
        print(f"   {episodes['timed']} timed episodes, {episodes['timed_calls']} tool calls, "
              f"{episodes['warmup']} warm-up episodes, untraced runs: {args.repeat}")
        print("   end to end (untraced run):")
        for metric in spec.END_TO_END:
            series = entry["end_to_end"][metric.name]
            print(f"     {metric.name:<22} {series['median']:>12.4f} {metric.unit:<4} "
                  f"n={series['samples'][-1]:<7} spread {series['spread']:.1%}  "
                  f"(bound {metric.bound:.0%}, {metric.better} is better)")
        worst = max(entry["failed_share"])
        print(f"     {'failed_share':<22} {worst:>12.4f} ratio")
        print("   per tool, for information (ms): p50 / p95 / p99 / max")
        for tool, row in entry["per_tool"].items():
            print(f"     {tool:<22} {row['p50_ms']:>9.3f} {row['p95_ms']:>9.3f} "
                  f"{row['p99_ms']:>9.3f} {row['max_ms']:>9.3f}  n={row['samples']}")
        print("   per layer (traced run):")
        wall = entry["per_layer"]["trace.wall_ms"]["median"]
        for metric in spec.PER_LAYER:
            value = entry["per_layer"][metric.name]["median"]
            share = f"  {value / wall:6.1%} of traced time" if metric.unit == "ms" else ""
            print(f"     {metric.name:<40} {value:>14.4f} {metric.unit}{share}")
        print("   where the time goes (self time per layer, traced run):")
        for row in entry["attribution"]:
            print(f"     {row['layer']:<24} {row['self_ms']:>12.2f} ms {row['share']:>7.1%}")
        print(f"   top three layers: {', '.join(entry['top_layers'])}")
        for record in untraced + traced:
            for message in record["failures"] + record["oracle"]["mismatches"]:
                failed = True
                print(f"   FAILED (seed {record['seed']}): {message}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nresult written to {args.out}")
    return 1 if failed else 0


# ---------------------------------------------------------- determinism


def check_determinism(args: argparse.Namespace) -> int:
    """Single-client workloads: two traced runs of one seed and a fixed
    episode count must agree on every count; seed+1 must script other calls."""
    sizing = spec.SMOKE if args.smoke else spec.FULL
    if args.episodes is None:
        args.episodes = 200
    names = [args.workload] if args.workload else [
        name for name, workload in WORKLOADS.items() if workload.clients == 1
    ]
    bad = 0
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        first = _spawn(name, args.seed, 1, args)["per_layer"]
        second = _spawn(name, args.seed, 1, args)["per_layer"]
        counts = [
            metric.name for metric in spec.PER_LAYER
            if metric.unit != "ms" and not metric.name.startswith("trace.")
        ]
        differing = [n for n in counts if first[n]["value"] != second[n]["value"]]
        same_calls = (
            _script_digest(name, args.seed, sizing)
            == _script_digest(name, args.seed + 1, sizing)
        )
        print(f"{name}: {len(counts) - len(differing)} of {len(counts)} count metrics "
              f"identical over two runs of seed {args.seed}, {args.episodes} episodes; "
              f"seed {args.seed + 1} scripts {'THE SAME' if same_calls else 'other'} calls")
        for n in differing:
            print(f"  DIFFERS: {n}: {first[n]['value']} vs {second[n]['value']}")
        bad += len(differing) + same_calls
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare.main(argv[1], argv[2])
    args = _parser().parse_args(argv)
    if args.check_determinism:
        return check_determinism(args)
    if args.trace is None:
        return report(args)
    if args.workload is None:
        sys.exit("--trace runs one workload: name it with --workload")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
