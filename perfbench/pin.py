"""Pin the CSV digests that benchmark runs are checked against.

    python3 perfbench/pin.py --seeds 0-49

Runs every workload's command once per seed, from the root of a checkout, and
records the SHA-256 of every CSV in perfbench/digests.json.  An output is
pinned only when it passes the independent checks.  Pin from a
commit whose CSVs are known to be right: later runs treat these bytes as the
reference.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="seeds to pin, e.g. 0-19 or 1,5,7")
    args = parser.parse_args(argv)
    path = run.BENCH_DIR / "digests.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    for name in sorted(run.WORKLOADS):
        for seed in args.seeds:
            bench = run.Bench(name, seed, trace=False)
            bench.pinned = None
            bench.prepare()
            rep = bench.rep(traced=False)
            bench.input.unlink(missing_ok=True)
            if rep.problems:
                print(f"{name} seed {seed}: not pinned: {rep.problems}", file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = rep.digests
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"{name} seed {seed}: pinned", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
