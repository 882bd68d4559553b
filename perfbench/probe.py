"""Reference computation that measures how fast the host runs right now.

    python3 perfbench/probe.py

run.py runs this before every round of import and CLI invocation, and once
after the last, and scales each round's CPU times by PROBE_REF_S / (the
mean CPU time of the probes on either side of it).  On a host shared with
other virtual machines, the same work can take 30-45% more or less CPU time
for minutes at a time; the probe is slowed in the same stretches, so the
scaled figure keeps a change of the program and drops the host's slow
drift.  It does a little of each kind of work the CLI does -- text
parsing, array arithmetic, JSON rendering -- always on the same inputs, and
it imports nothing from synsetgeom, so no change to the program moves it.
"""

import json

import numpy as np

rng = np.random.default_rng(0)
rows = rng.standard_normal((4096, 300))
text = "\n".join(" ".join(f"{x:.6f}" for x in row) for row in rows[:150])
parsed = np.array([[float(x) for x in line.split()] for line in text.splitlines()])
for _ in range(3):
    d = rows[::2] - rows[1::2]
    np.sqrt(np.einsum("ij,ij->i", d, d))
json.dumps([{"i": i, "v": round(float(x), 4)} for i, x in enumerate(rows.ravel()[:40_000])])
