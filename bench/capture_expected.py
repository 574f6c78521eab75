"""Write bench/expected.json: the reference answers the benchmark checks against.

For every CLI item of the ladder, sweep and queries workloads it records the
exit code and the sha256 of stdout; for the queries workload at the default
seed it records the digest of all answers, after checking each answer with
its oracle.  Run it from the checkout root, only on a commit whose output is
known to be right:

    PYTHONPATH=src python3 bench/capture_expected.py
"""

from __future__ import annotations

import json
import random
import sys

import worker


def main() -> int:
    expected = {"cli": {}}
    for item in worker.LADDER_ITEMS + worker.SWEEP_ITEMS + (worker.VERIFY_ITEM,):
        expected["cli"][" ".join(item)] = worker.run_cli(item)
    group = 1  # the library session; group 0 is verify
    ops = worker.queries_groups(random.Random(worker.DEFAULT_SEED), None, expected)[group]
    answers = [run() for _, run, _ in ops]
    bad = [label for (label, _, check), answer in zip(ops, answers) if not check(answer)]
    if bad:
        print(f"{len(bad)} query answers fail their oracles, first: {bad[0]}", file=sys.stderr)
        return 1
    expected["queries"] = {"seed": worker.DEFAULT_SEED, "group": group, "sha256": worker.answers_digest(ops, answers)}
    with open(worker.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
