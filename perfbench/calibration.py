"""A fixed reference loop that measures how fast the machine runs Python now.

The benchmark was written on a shared virtual machine whose speed changed by
a factor of up to 1.7 for minutes at a time as other tenants came and went,
for every job alike.  Wall and CPU time both followed, so no statistic over
raw times stayed within the bounds from one set of runs to the next.

``loop()`` runs the same pure-Python work every time: rational products
accumulated in a dict under tuple keys (as the algebra tables are), random
reads from a large list and row writes in a list of lists (as the coset
tables are), and a JSON round trip.  It does not touch matsuo, so a change
to the program never changes its time.  The benchmark runs it next to every
job and every set-up, and divides each time by the loop's time measured
beside it.  Multiplied by ``REFERENCE_S`` the quotient reads as seconds on
the machine where the benchmark was written, at its usual speed.
"""

import json
import random
import time
from fractions import Fraction

# Median time of ``loop()`` on the 2-core virtual machine where the
# benchmark was written (Python 3.11.7), over 60 runs.
REFERENCE_S = 0.06


def loop():
    """Run the reference work once; returns its wall time in seconds."""
    rng = random.Random(7)
    start = time.perf_counter()
    xs = [Fraction(rng.randrange(1, 50), rng.randrange(1, 50)) for _ in range(60)]
    acc = {}
    for i in range(60):
        for j in range(i, 60):
            key = ((i * j) % 97, (i + j) % 31)
            acc[key] = acc.get(key, 0) + xs[i] * xs[j]
    big = list(range(200000))
    total = 0
    for i in [rng.randrange(200000) for _ in range(20000)] * 3:
        total += big[i] % 7
    table = [[0] * 48 for _ in range(3000)]
    for n, row in enumerate(table):
        for g in range(0, 48, 3):
            row[g] = (n * 31 + g) % 3000
    text = json.dumps({"%d,%d" % key: str(v) for key, v in acc.items()})
    if len(json.loads(text)) != len(acc) or total < 0:
        raise AssertionError("calibration loop went wrong")
    return time.perf_counter() - start
