"""A fixed pure-Python probe of the machine's current speed.

On a shared host the interpreter's speed drifts by up to 2x within a minute
(another tenant on the sibling hyperthread, frequency changes).  The
benchmark runs ``probe()`` next to every job and scales the job's wall time
by ``NOMINAL_S / probe()``, which reports times in seconds at the speed at
which the probe takes ``NOMINAL_S``.  The probe is made of the operations the
package's hot loops are made of: modular products and differences through
function calls, list building, tuple-keyed dicts and Fraction arithmetic.
"""

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0002      # probe time on a quiet 2-core x86-64 host, Python 3.11
_P = 10007


def _mul(a, b):
    return a * b % _P


def _sub(a, b):
    return (a - b) % _P


def work():
    row, pivot = list(range(1, 65)), list(range(3, 67))
    for _ in range(8):
        f = row[0]
        row = [_sub(x, _mul(f, y)) for x, y in zip(row, pivot)]
    d = {(i, i & 7): i for i in range(64)}
    x = Fraction(1, 3)
    for i in range(1, 12):
        x = x * Fraction(i + 1, i) - Fraction(1, i + 5)
    return row, d, x


def probe(repeat: int = 5) -> float:
    """Median wall time of ``work()`` over ``repeat`` calls, in seconds."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
