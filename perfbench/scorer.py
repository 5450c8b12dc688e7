"""Stdlib-only outcome scorer for the external-predictor workload.

Usage: python3 scorer.py CRITICAL_ACTIVITY MIN_HITS candidates.csv scores.csv

Reads the candidate events `ExternalProcessPredictor` writes (case_id, step,
activity, one column per attribute) and writes `case_id,proba`. The score
follows the planted rule of the long-trace log: a trace is likely class 1
when the critical activity occurs at least MIN_HITS times, with a small pull
from trace length so that candidates differ by more than their hit count.
It imports nothing beyond the standard library, so each call costs a process
start and not a numpy import.
"""

import csv
import math
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: scorer.py CRITICAL_ACTIVITY MIN_HITS IN_CSV OUT_CSV", file=sys.stderr)
        return 2
    critical, min_hits, in_path, out_path = argv[0], int(argv[1]), argv[2], argv[3]
    hits: dict[str, int] = {}
    lengths: dict[str, int] = {}
    with open(in_path, newline="") as handle:
        for row in csv.DictReader(handle):
            case_id = row["case_id"]
            lengths[case_id] = lengths.get(case_id, 0) + 1
            hits[case_id] = hits.get(case_id, 0) + (row["activity"] == critical)
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "proba"])
        for case_id, length in lengths.items():
            # one hit short of the rule gives p = 0.18, meeting it 0.82
            z = 3.0 * (min(hits[case_id], min_hits + 1) - min_hits) + 1.5
            z += 0.05 * (length - 20)
            writer.writerow([case_id, repr(1.0 / (1.0 + math.exp(-z)))])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
