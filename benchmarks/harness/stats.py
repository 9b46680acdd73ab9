"""Order statistics the harness reports: MAD, percentiles, best round."""

import statistics


def mad(values):
    """Median absolute deviation from the median."""
    mid = statistics.median(values)
    return statistics.median(abs(v - mid) for v in values)


def percentile(values, p):
    """Nearest-rank percentile, ``p`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def best(values, better):
    """The best value over rounds: the lowest for ``lower``-is-better
    metrics, the highest for ``higher``.  Interference only ever slows
    a round down, so the best round is the least disturbed observation
    (the reason ``timeit`` recommends the minimum)."""
    return min(values) if better == "lower" else max(values)


def runner_up_gap(values, better):
    """How far the second-best round is from the best, as a share of
    the best: the within-run resolution of a best-round estimate (two
    undisturbed rounds agree closely; a lone lucky round does not)."""
    ordered = sorted(values, reverse=better == "higher")
    return abs(ordered[1] - ordered[0]) / ordered[0]
