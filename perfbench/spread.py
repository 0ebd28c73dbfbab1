"""Run one workload under several seeds and print each end-to-end
metric's spread beside its bound.

    python3 perfbench/spread.py --workload NAME --seeds 101-110 [--out F]

The spread is the distance between the first and third quartiles of the
per-run values, as a share of their median (``statistics.quantiles``
with n=4).  A later change compares its runs with this base.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import spread  # noqa: E402


def seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("101-110"))
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name} {metric['value']:.4f}"
            for name, metric in result["metrics"].items()), flush=True)

    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        summary[name] = dict(spread(values[name]), bound=metric["bound"],
                             values=values[name])
        print(f"{name:16s} median {summary[name]['median']:.4f}"
              f" q1 {summary[name]['q1']:.4f} q3 {summary[name]['q3']:.4f}"
              f" spread {summary[name]['iqr_share']:.4f}"
              f" bound {metric['bound']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
