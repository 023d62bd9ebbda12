"""Alternating parent/change benchmark pairs on one workload, checked against BENCHMARK.json.

Runs each checkout's own `perfbench/run.py --trace 0` in turn, one pair per
seed (seed0, seed0 + 1, ...); the parent runs first on even pairs and the
change first on odd ones, so a drift in the machine's speed hits both sides.
Then it prints, for every end-to-end metric of BENCHMARK.json, the per-pair
change/parent ratios, both sides' medians and quartiles, and whether the
change's median is worse than the parent's by more than the metric's bound
(a share of the parent's median).  For the claimed metric (--metric) it
also prints the claim rule: the change is better in at least nine of ten
pairs, and its median beats the parent's by more than the parent's
inter-quartile range.

    python tools/pairs.py --parent ../parent --workload mesh --pairs 10 --seed0 611 --seconds 16

Exit code 0 when every run passed its checks, no bound is broken and the
change fails no larger share of operations; the claim verdict is printed
and does not change it.  Nothing under perfbench/ is edited; each run.py
writes its usual record to its own checkout's perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run.py of a checkout; its result line, parsed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: run.py printed nothing (exit {proc.returncode}):\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile), by statistics.quantiles' default method."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else tuple(values * 3)


def show(value) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    parser.add_argument("--change", type=Path, default=HERE,
                        help="the change's checkout (default: the one holding this tool)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=16.0, help="run.py --seconds")
    parser.add_argument("--metric", default="wall_s", help="the metric a gain is claimed on")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    sides = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run(getattr(args, side), args.workload, seed, args.seconds))
        print(f"pair {i + 1} seed {seed}: " + ", ".join(
            f"{side} {show(sides[side][-1]['metrics'][args.metric]['value'])}" for side in order),
            flush=True)

    ok = all(r["correct"] for runs in sides.values() for r in runs)
    if not ok:
        print("a run failed its checks (see perfbench/out/ of its checkout)")
    for m in spec:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        par, chg = ([r["metrics"][name]["value"] for r in sides[s]] for s in ("parent", "change"))
        if None in par or None in chg:
            print(f"{name}: missing in a run that failed its checks")
            continue
        ratios = [c / p if p else math.nan for p, c in zip(par, chg)]
        (p1, pm, p3), (c1, cm, c3) = quartiles(par), quartiles(chg)
        worse = (cm - pm if lower else pm - cm) / abs(pm) if pm else 0.0
        held = worse <= bound
        ok &= held
        print(f"{name}: parent median {pm:.4g} [{p1:.4g}, {p3:.4g}], change median {cm:.4g} "
              f"[{c1:.4g}, {c3:.4g}], worse by {100 * worse:+.1f} % (bound {100 * bound:.0f} %): "
              f"{'holds' if held else 'BROKEN'}")
        print("  change/parent per pair: " + " ".join(f"{r:.2f}" for r in ratios))
        if name == args.metric:
            wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
            gain = pm - cm if lower else cm - pm
            holds = wins >= math.ceil(0.9 * args.pairs) and gain > p3 - p1
            print(f"  claim rule: change better in {wins} of {args.pairs} pairs (needs "
                  f"{math.ceil(0.9 * args.pairs)}), median gain {gain:.4g} against the parent's "
                  f"IQR {p3 - p1:.4g}: {'holds' if holds else 'not met'}")
    shares = {s: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
              for s, runs in sides.items()}
    print(f"failed share: parent {shares['parent']:.3g}, change {shares['change']:.3g}")
    ok &= shares["change"] <= shares["parent"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
