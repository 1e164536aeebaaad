"""Spans and counters recorded from outside the drivelab package.

`Recorder.phase` times the benchmark's own calls into the pipeline. `Recorder.patch`
replaces a function at one lookup site (a module or class attribute) with a
timing or counting wrapper, and `Recorder.restore` puts every original back.
Spans stay in memory as flat arrays (site, parent span, start, end) and are
written out once, when the run ends.

Durations are reported in reference seconds. The shared 2-vCPU machine this
benchmark was built on switches, every few seconds, between two speeds about
1.8x apart, so the same unit of work took from 2.1 s to 4.6 s. A Recorder
therefore runs a fixed speed probe at the start of every phase and at least
every PROBE_INTERVAL_S inside the pipeline (at `advance_world` and `Adam.step`
calls), and a duration counts each stretch between probes at the speed the
last probe measured, scaled so that the probe takes REFERENCE_PROBE_S. Time
spent in probes counts as zero. There, 38 repeats of the train unit spread
by 0.28 of their median in wall-clock time and by 0.06 in reference seconds
(probing every 0.2 s with half the probe).
"""

import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

from drivelab import autodiff, dataset, expert, metrics, policy, world

# (site name, owner, attribute). A function imported by name into several
# modules is looked up there, so each of those modules is a site of its own.
TIMED_SITES = (
    ("world.advance_world", world, "advance_world"),
    ("world.step_kinematics", world, "step_kinematics"),
    ("world.Route.project", world.Route, "project"),
    ("expert.expert_act", expert, "expert_act"),
    ("expert.expert_command", expert, "expert_command"),
    ("expert.forecast_collision", expert, "forecast_collision"),
    ("policy.encode_scene", policy, "encode_scene"),
    ("policy.encode_scene", dataset, "encode_scene"),
    ("policy.encode_scene", metrics, "encode_scene"),
    ("policy.Policy.forward", policy.Policy, "forward"),
    ("policy.Policy.infer", policy.Policy, "infer"),
    ("autodiff.backward", autodiff, "backward"),
    ("autodiff.Adam.step", autodiff.Adam, "step"),
)
TENSOR_SITE = ("autodiff.Tensor.__init__", autodiff.Tensor, "__init__")
# Counted in every run, traced or not: simulator ticks for the tick rates
# and optimizer steps for the steps-per-epoch check.
COUNTED_SITES = tuple(s for s in TIMED_SITES
                      if s[0] in ("world.advance_world", "autodiff.Adam.step"))
PROBE_SITES = tuple(name for name, _, _ in COUNTED_SITES)
PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 1.2e-3    # the probe's time on the reference machine, fast state

_PROBE_MATRIX = np.random.default_rng(0).normal(size=(16, 16)) * 0.2


def speed_probe():
    """Fixed work of the kinds drivelab does: interpreted arithmetic, small
    numpy products, list and dict churn."""
    v = np.ones(16)
    acc = 0.0
    for i in range(400):
        x = math.sin(i * 0.001) * math.cos(i * 0.002)
        v = np.tanh(_PROBE_MATRIX @ v + x)
        acc += float(v[i % 16])
        _ = {"k": [x, acc, i]}
    return acc


class Recorder:
    def __init__(self):
        self.names = []
        self._index = {}
        self.site = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.probe_start = array("d")
        self.probe_end = array("d")
        self._next_probe = 0.0
        self._stack = []
        self._saved = []

    def _site_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _open(self, idx):
        i = len(self.start)
        self.site.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def probe(self):
        self.probe_start.append(time.perf_counter())
        speed_probe()
        now = time.perf_counter()
        self.probe_end.append(now)
        self._next_probe = now + PROBE_INTERVAL_S

    def _maybe_probe(self):
        if time.perf_counter() >= self._next_probe:
            self.probe()

    @contextmanager
    def phase(self, name):
        self.probe()
        i = self._open(self._site_index(name))
        try:
            yield i
        finally:
            self._close(i)

    def count(self, name):
        return self.counts.get(name, 0)

    def _timed(self, name, fn):
        idx = self._site_index(name)
        opened, closed = self._open, self._close
        maybe_probe = self._maybe_probe if name in PROBE_SITES else None
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if maybe_probe:
                maybe_probe()
            i = opened(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(i)
        return wrapper

    def _counted(self, name, fn):
        maybe_probe = self._maybe_probe if name in PROBE_SITES else None
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if maybe_probe:
                maybe_probe()
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, sites, timed):
        for name, owner, attr in sites:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            wrap = self._timed if timed else self._counted
            setattr(owner, attr, wrap(name, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self, name=None, within=None):
        """Indices of the spans of one site (every span if name is None)
        whose start lies in the span `within`."""
        idx = np.arange(len(self.start))
        if name is not None:
            if name not in self._index:
                return idx[:0]
            idx = idx[np.frombuffer(self.site, dtype=np.int32) == self._index[name]]
        if within is not None:
            starts = np.frombuffer(self.start, dtype=np.float64)[idx]
            idx = idx[(starts >= self.start[within]) & (starts <= self.end[within])]
        return idx

    def slowdown(self):
        """Median probe time over REFERENCE_PROBE_S: how much slower than the
        reference machine this one ran."""
        probes = (np.frombuffer(self.probe_end, dtype=np.float64)
                  - np.frombuffer(self.probe_start, dtype=np.float64))
        return float(np.median(probes)) / REFERENCE_PROBE_S

    def raw_durations(self, idx):
        return (np.frombuffer(self.end, dtype=np.float64)[idx]
                - np.frombuffer(self.start, dtype=np.float64)[idx])

    def durations(self, idx):
        """Span durations in reference seconds."""
        clock = self.reference_clock()
        return (clock(np.frombuffer(self.end, dtype=np.float64)[idx])
                - clock(np.frombuffer(self.start, dtype=np.float64)[idx]))

    def reference_clock(self):
        """Reference seconds elapsed since the first probe, as a function of
        perf_counter time. It stands still during a probe and runs at
        REFERENCE_PROBE_S / (last probe's time) between probes."""
        starts = np.frombuffer(self.probe_start, dtype=np.float64).copy()
        ends = np.frombuffer(self.probe_end, dtype=np.float64).copy()
        rate = REFERENCE_PROBE_S / (ends - starts)
        knots = np.empty(2 * len(starts))
        knots[0::2], knots[1::2] = starts, ends
        slope = np.zeros(len(knots))
        slope[1::2] = rate
        at_knot = np.concatenate([[0.0], np.cumsum(np.diff(knots) * slope[:-1])])

        def clock(t):
            j = np.searchsorted(knots, t, side="right") - 1
            before = j < 0
            j = np.maximum(j, 0)
            return np.where(before, (t - knots[0]) * rate[0],
                            at_knot[j] + slope[j] * (t - knots[j]))
        return clock

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), site=np.frombuffer(self.site, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            probe_start=np.frombuffer(self.probe_start, dtype=np.float64),
            probe_end=np.frombuffer(self.probe_end, dtype=np.float64))
