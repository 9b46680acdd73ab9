"""Deterministic, seedable fault injection.

Evolving ("self-managing") architectures must survive component
failure, not just reorganize for speed; this module is the harness
that makes failure *reproducible*.  Code under test declares named
injection sites — ``faults.inject("wal.append")`` at the point where a
crash could strike — and a :class:`FaultInjector` decides, per site
and per hit, whether that call returns normally, raises a simulated
failure, or reports a latency spike.

Fault kinds:

* **crash** — raises :class:`CrashError`: the enclosing component dies
  at this point.  For the SQL engine a crash means the process is gone
  (recover via the WAL); for a morsel worker it means that worker dies
  (survivors take over); carry ``torn=k`` to model a write that was cut
  off after ``k`` bytes.
* **transient** — raises :class:`TransientFault`: a retryable failure
  (flaky read, dropped ring hop).  Callers retry with backoff.
* **latency** — returns a positive delay (site-defined units); the
  caller accounts for the stall instead of raising.

Everything is deterministic: plans fire at explicit hit numbers
(crash-at-Nth-hit), and :meth:`FaultInjector.seeded` draws per-hit
coin flips from one ``random.Random(seed)``, so a failing schedule is
replayed exactly by reusing the seed — the same trick the simulated
hardware uses to make cache effects reproducible.
"""

import random
from collections import Counter


class FaultError(Exception):
    """Base class of injected failures."""

    def __init__(self, site, hit, **detail):
        self.site = site
        self.hit = hit
        self.detail = detail
        super().__init__("{0} at site {1!r} (hit {2})".format(
            type(self).__name__, site, hit))


class CrashError(FaultError):
    """Simulated death of the enclosing component at this site."""

    @property
    def torn(self):
        """Bytes of the interrupted write that still reached the medium
        (None: the crash is not a torn write)."""
        return self.detail.get("torn")


class TransientFault(FaultError):
    """A retryable failure: the operation may succeed if reattempted."""


class FaultPlan:
    """One scheduled fault: fire ``kind`` at given hits of ``site``.

    ``hits`` is a collection of 1-based hit numbers (or None for every
    hit).  ``delay`` is returned for latency faults; ``torn`` rides on
    crash faults to model partial writes.  ``match`` narrows the plan
    to hits whose call-site detail contains the given key/value pairs
    (e.g. ``match={"link": "coord->shard1"}`` grays one shard link
    while its site-mates stay healthy); a matched plan counts its own
    hits, so hit numbers are relative to the matching traffic.
    """

    KINDS = ("crash", "transient", "latency")

    def __init__(self, site, kind, hits=(1,), delay=1, torn=None,
                 match=None):
        if kind not in self.KINDS:
            raise ValueError("unknown fault kind {0!r}".format(kind))
        if kind == "latency" and delay < 1:
            raise ValueError("latency faults need a positive delay")
        self.site = site
        self.kind = kind
        self.hits = None if hits is None else frozenset(hits)
        self.delay = delay
        self.torn = torn
        self.match = dict(match) if match else None
        self.observed = 0  # matched-traffic hits (match plans only)

    def accepts(self, detail):
        """Does the call-site detail pass this plan's match filter?"""
        return self.match is None or all(
            detail.get(k) == v for k, v in self.match.items())

    def matches(self, hit):
        return self.hits is None or hit in self.hits

    def delay_for(self, hit):
        """The latency this plan injects at ``hit`` (fixed here; the
        ramp plan overrides it)."""
        return self.delay

    def __repr__(self):
        where = "always" if self.hits is None \
            else "hits {0}".format(sorted(self.hits))
        return "FaultPlan({0!r}, {1}, {2})".format(self.site, self.kind,
                                                   where)


class LatencyRamp(FaultPlan):
    """A gray-node fault: latency that *ramps* instead of dropping.

    From ``start_hit`` on, every hit of the site is delayed by
    ``base_delay + step * (hit - start_hit)``, capped at ``cap`` — the
    signature of a slow-but-alive node (swelling queues, a failing
    disk): responses still arrive, just later and later.  Armed at the
    existing link sites (``shard.ship`` / ``repl.ship``) it is what
    the hedged-read and circuit-breaker defenses are exercised
    against.

    ``seed`` adds deterministic per-hit jitter of up to ``jitter``
    ticks, drawn from a generator seeded by (seed, hit) so the delay
    of hit N is a pure function of the seed and N — reorderings of
    other sites cannot shift it.
    """

    def __init__(self, site, start_hit=1, base_delay=1, step=1,
                 cap=None, seed=None, jitter=0, match=None):
        if start_hit < 1:
            raise ValueError("start_hit is 1-based")
        if base_delay < 1:
            raise ValueError("latency ramps need a positive base delay")
        if step < 0:
            raise ValueError("ramp step must be non-negative")
        if cap is not None and cap < base_delay:
            raise ValueError("cap must be at least the base delay")
        if jitter and seed is None:
            raise ValueError("jittered ramps need a seed")
        super().__init__(site, "latency", hits=None, delay=base_delay,
                         match=match)
        self.start_hit = start_hit
        self.step = step
        self.cap = cap
        self.seed = seed
        self.jitter = jitter

    def matches(self, hit):
        return hit >= self.start_hit

    def delay_for(self, hit):
        delay = self.delay + self.step * (hit - self.start_hit)
        if self.cap is not None:
            delay = min(delay, self.cap)
        if self.jitter:
            delay += random.Random(self.seed * 1000003 + hit).randrange(
                self.jitter + 1)
        return delay

    def __repr__(self):
        return ("LatencyRamp({0!r}, from hit {1}, {2}+{3}/hit, cap {4})"
                .format(self.site, self.start_hit, self.delay,
                        self.step, self.cap))


class FaultInjector:
    """Registry of injection sites and the plans armed against them.

    ``inject(site)`` counts one hit of the site, fires any matching
    plan, and returns the injected latency (0 normally).  ``hits``
    (a Counter) doubles as the site registry: a dry run under a plain
    injector *observes* every site a scenario passes through, and
    :func:`crash_points` turns that observation into the exhaustive
    crash-at-every-site sweep.
    """

    def __init__(self):
        self.hits = Counter()
        self.fired = []   # [(site, hit, kind)]
        self._plans = {}  # site -> [FaultPlan]
        self._rng = None
        self._rates = {}

    # -- arming ---------------------------------------------------------------

    def plan(self, plan):
        self._plans.setdefault(plan.site, []).append(plan)
        return self

    def crash_at(self, site, hit=1, torn=None, match=None):
        """Arm a crash at the Nth hit of ``site``."""
        return self.plan(FaultPlan(site, "crash", hits=(hit,), torn=torn,
                                   match=match))

    def transient_at(self, site, hits=(1,), match=None):
        """Arm retryable failures at the given hits of ``site``."""
        return self.plan(FaultPlan(site, "transient", hits=hits,
                                   match=match))

    def delay_at(self, site, hits=(1,), delay=1, match=None):
        """Arm latency spikes of ``delay`` units at the given hits."""
        return self.plan(FaultPlan(site, "latency", hits=hits,
                                   delay=delay, match=match))

    def ramp_at(self, site, start_hit=1, base_delay=1, step=1, cap=None,
                seed=None, jitter=0, match=None):
        """Arm a gray-node latency ramp (see :class:`LatencyRamp`)."""
        return self.plan(LatencyRamp(site, start_hit=start_hit,
                                     base_delay=base_delay, step=step,
                                     cap=cap, seed=seed, jitter=jitter,
                                     match=match))

    def disarm(self, kind):
        """Drop the armed plans of ``kind``; seeded rates stay.  A
        restarted process starts without the crashes scheduled against
        the one that died."""
        for site, plans in list(self._plans.items()):
            kept = [p for p in plans if p.kind != kind]
            if kept:
                self._plans[site] = kept
            else:
                del self._plans[site]
        return self

    @classmethod
    def seeded(cls, seed, rates):
        """An injector whose faults fire probabilistically but
        reproducibly.

        ``rates`` maps site -> (kind, probability[, delay]); each hit
        of the site draws one coin flip from ``random.Random(seed)``,
        so the same seed and call sequence yield the same schedule.
        """
        injector = cls()
        injector._rng = random.Random(seed)
        for site, spec in rates.items():
            kind, probability = spec[0], spec[1]
            delay = spec[2] if len(spec) > 2 else 1
            if kind not in FaultPlan.KINDS:
                raise ValueError("unknown fault kind {0!r}".format(kind))
            injector._rates[site] = (kind, probability, delay)
        return injector

    # -- firing ---------------------------------------------------------------

    def inject(self, site, **detail):
        """Register one hit of ``site``; fire armed faults.

        Returns the latency to charge (0 when nothing fired); raises
        :class:`CrashError` / :class:`TransientFault` for the other
        kinds.
        """
        self.hits[site] += 1
        hit = self.hits[site]
        for plan in self._plans.get(site, ()):
            if plan.match is not None:
                # Match-filtered plans fire on their own traffic's hit
                # numbering (global site hits would shift with
                # unrelated senders sharing the site).
                if not plan.accepts(detail):
                    continue
                plan.observed += 1
                if plan.matches(plan.observed):
                    return self._fire(site, plan.observed, plan.kind,
                                      plan.delay_for(plan.observed),
                                      plan.torn, detail)
            elif plan.matches(hit):
                return self._fire(site, hit, plan.kind,
                                  plan.delay_for(hit), plan.torn, detail)
        rate = self._rates.get(site)
        if rate is not None:
            kind, probability, delay = rate
            if self._rng.random() < probability:
                return self._fire(site, hit, kind, delay, None, detail)
        return 0

    def _fire(self, site, hit, kind, delay, torn, detail):
        self.fired.append((site, hit, kind))
        if kind == "crash":
            if torn is not None:
                detail = dict(detail, torn=torn)
            raise CrashError(site, hit, **detail)
        if kind == "transient":
            raise TransientFault(site, hit, **detail)
        return delay

    def observed(self):
        """{site: hits} seen so far — the input to :func:`crash_points`."""
        return dict(self.hits)

    def __repr__(self):
        return "FaultInjector({0} sites hit, {1} faults fired)".format(
            len(self.hits), len(self.fired))


class NullInjector(FaultInjector):
    """The default injector: nothing armed, nothing counted, zero cost.

    A shared inert singleton (:data:`NO_FAULTS`) lets every
    fault-aware component default to "no faults" without threading
    None-checks through hot paths.
    """

    def plan(self, plan):
        raise RuntimeError("NO_FAULTS is shared and inert; build a "
                           "FaultInjector to arm faults")

    def inject(self, site, **detail):
        return 0


NO_FAULTS = NullInjector()


def crash_points(observed, sites=None):
    """All (site, hit) crash points of an observed run.

    ``observed`` is :meth:`FaultInjector.observed` from a fault-free
    dry run; the result drives the exhaustive crash-at-every-site
    sweep: re-run the scenario once per point with
    ``FaultInjector().crash_at(site, hit)`` armed.
    """
    points = []
    for site in sorted(observed):
        if sites is not None and site not in sites:
            continue
        for hit in range(1, observed[site] + 1):
            points.append((site, hit))
    return points
