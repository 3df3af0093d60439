"""Host-speed probe: a fixed pure-Python workload timed beside every
measurement, so that reported times are in seconds of one host speed.

On the shared virtual machine the benchmark was built on, the host's
other tenants slow every instruction by up to 60% for stretches of
seconds to minutes.  The slowdown is not steal: CPU time grows with
wall time (their ratio stays 1.00), so CPU time is no steadier.  It
does slow this probe, run on the same CPU, along with the program
(correlation 0.4-0.75 per ``link`` operation, highest in busy
stretches), so dividing a time by the probe's slowdown removes most of
it: in busy stretches, the IQR/median of the medians of 8 consecutive
operations fell from 0.18-0.21 (raw) to 0.045-0.055 (scaled).

The probe is interpreter work of the kind the program does (string
slicing, dict counting, sorting with a key, set intersection), never
calls the program, and runs with the collector off, so the program's
live heap does not change its work.  A reported time is
``measured × REFERENCE_S / probe time``: seconds at the host speed at
which the probe takes :data:`REFERENCE_S`.  The raw times and the
probe times are on each run's description line.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Optional, Sequence

from stats import median

#: The probe's time on the reference box (2-vCPU Linux VM, Python
#: 3.11) in a quiet stretch; only the ratio of times matters.
REFERENCE_S = 0.100
WORDS = 20_000


def probe_s(cpu: Optional[int] = None) -> float:
    """Wall clock of one run of the fixed probe workload, on CPU ``cpu``
    if given (the calling thread's CPU set is restored after)."""
    enabled = gc.isenabled()
    gc.disable()
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        start = time.perf_counter()
        rng = random.Random(7)
        words = ["".join(rng.choices("abcdefghijklmnop", k=8))
                 for _ in range(WORDS)]
        counts = {}
        for word in words:
            counts[word[:3]] = counts.get(word[:3], 0) + len(word)
        ordered = sorted(words, key=lambda word: (word[2:], word))
        grams = [{word[i:i + 2] for i in range(len(word) - 1)}
                 for word in ordered]
        sum(len(a & b) for a, b in zip(grams, grams[1:]))
        return time.perf_counter() - start
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)
        if enabled:
            gc.enable()


def slowdown(probes: Sequence[float]) -> float:
    """How much slower than the reference the host ran, from the probes
    taken around a measurement (their median over :data:`REFERENCE_S`)."""
    return median(probes) / REFERENCE_S
