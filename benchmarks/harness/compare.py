"""``--compare A.json B.json``: did B get worse than A?

Both files are suite documents (``python -m benchmarks.harness --out``).
``path:N`` selects set N of a document; without it every set counts
and the side's value is the median over its sets.  One row per
(workload, end-to-end metric):

``within``      B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the spread of either side is wider than the bound, so
                the comparison cannot tell

The spread of a side is the range of its sets over their median; with
a single set it is that run's runner-up gap (how far its second-best
round is from the best one it reports).  The MAD over rounds is shown
beside it.  Every ratio is B / A (base = A).  Exit status 1 when any
row regressed.
"""

import json
import statistics

from benchmarks.harness import spec


def _load(argument):
    path, _, index = argument.rpartition(":")
    if not path or not index.isdigit():
        path, index = argument, None
    with open(path) as handle:
        document = json.load(handle)
    sets = document["sets"]
    return [sets[int(index)]] if index is not None else sets


def _side(sets, workload, metric):
    """(median over sets, spread as a share of it, largest MAD)."""
    entries = [one[workload]["end_to_end"][metric] for one in sets]
    values = [entry["value"] for entry in entries]
    middle = statistics.median(values)
    largest_mad = max(entry["mad"] for entry in entries)
    spread = (max(values) - min(values)) / middle if len(values) > 1 \
        else entries[0]["runner_up_gap"]
    return middle, spread, largest_mad


def compare_sets(a_sets, b_sets):
    """Rows ``(workload, metric, a, b, ratio, mad, spread, verdict)``."""
    rows = []
    for workload in a_sets[0]:
        for metric, _, better, bound in spec.END_TO_END:
            a, a_spread, a_mad = _side(a_sets, workload, metric)
            b, b_spread, b_mad = _side(b_sets, workload, metric)
            worse = (b - a) / a if better == "lower" else (a - b) / a
            spread = max(a_spread, b_spread)
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "within"
            rows.append((workload, metric, a, b, b / a, max(a_mad, b_mad),
                         spread, verdict))
    return rows


def compare_files(a_argument, b_argument):
    rows = compare_sets(_load(a_argument), _load(b_argument))
    print("{0:16} {1:13} {2:>11} {3:>11} {4:>9} {5:>10} {6:>7}  {7}".format(
        "workload", "metric", "A", "B", "B/A", "MAD", "spread", "verdict"))
    for workload, metric, a, b, ratio, mad, spread, verdict in rows:
        print("{0:16} {1:13} {2:11.4f} {3:11.4f} {4:9.4f} {5:10.4f} "
              "{6:6.1%}  {7}".format(workload, metric, a, b, ratio, mad,
                                     spread, verdict))
    tally = {verdict: sum(1 for row in rows if row[-1] == verdict)
             for verdict in ("within", "regressed", "unresolved")}
    print("{within} within, {regressed} regressed, {unresolved} "
          "unresolved (ratios are B/A, base = A)".format(**tally))
    return 1 if tally["regressed"] else 0
