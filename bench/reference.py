"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of a process changes by up to 1.9x, in slow
periods that last from a second to a minute and slow every process of
the container alike.  The timed passes therefore interleave the jobs with
this computation, which uses no ``fibercover`` code and does the same
kind of work as the library's kernel (composing permutations stored as
tuples, hashing them, building short-lived containers), and scale the job
times by the speed it reads at the same moments:

    speed = units done * UNIT_S / seconds they took

is 1 at a fixed reference speed, near that of the host's quiet periods,
and lower while the host is slow.  Over a pass, the jobs' total time
times the speed moves by a few percent between quiet and slow periods,
where the raw time moves by up to 80%.
"""

from __future__ import annotations

import gc
import random
import time

# Seconds one unit takes at the reference speed: its fastest time over
# 20 s on a 2-core x86 virtual machine (Python 3.11), a fixed constant,
# so that scaled times read as seconds at that speed.
UNIT_S = 0.0037

# Reference time spent after each job, as a share of the job's time.
SHARE = 0.2

_rng = random.Random(20220819)
_DEGREE = 240
_PERMS = [tuple(_rng.sample(range(_DEGREE), _DEGREE)) for _ in range(16)]


def unit() -> int:
    """One unit of reference work; returns a value so it is not idle."""
    x = _PERMS[0]
    seen = set()
    for k in range(512):
        g = _PERMS[k & 15]
        x = tuple([g[i] for i in x])
        seen.add(x)
    return len(seen)


class Reference:
    """Accumulates reference units and their time over a pass."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def run(self, seconds: float) -> None:
        """Run whole units until they have taken at least ``seconds``
        (at least one unit).  The collector is off meanwhile, so that
        garbage-collector settings of the code under test do not change
        the reference."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent = 0.0
            while True:
                start = time.perf_counter()
                unit()
                spent += time.perf_counter() - start
                self.units += 1
                if spent >= seconds:
                    break
            self.seconds += spent
        finally:
            if enabled:
                gc.enable()

    def after_job(self, job_s: float) -> None:
        self.run(SHARE * job_s)

    def speed(self) -> float:
        return self.units * UNIT_S / self.seconds if self.seconds else 1.0
