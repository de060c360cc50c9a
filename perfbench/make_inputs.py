"""Import optray and write one workload's input CSVs for one seed.

The benchmark times this script as its set-up step, in a fresh interpreter
each time, so that import cost counts as a user pays it.

Run: python3 perfbench/make_inputs.py --workload structure --seed 1 --dir DIR
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import optray  # noqa: F401  (import time is part of what set-up measures)

    import inputs

    Path(args.dir).mkdir(parents=True, exist_ok=True)
    inputs.build(args.workload, args.seed, args.dir, write_files=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
