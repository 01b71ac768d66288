"""Host-speed reference: fixed pieces of work timed between requests.

The host this benchmark runs on is shared, and its speed drifts over
minutes: the same `tables` run has done 7.3 and 15.8 requests a second ten
minutes apart, with process CPU time equal to wall time. A run times these
parts between its requests; the median time of each part over the run says
how fast the host was for that kind of work during it, and `run.py`
reports each timing both as measured and scaled to the reference host.

Each part mirrors one kind of work lienardqm requests spend their time on:

- `interpreter`: a pure-Python float recurrence over a memoryview, like
  the Sturm and RK4 kernels;
- `output`: floats formatted with 17 significant digits into CSV and JSON
  text, written to a file and removed, like `cli.write_output`;
- `pool`: a thread pool mapping a small Python function over points, like
  `cli.cmd_sweep`.

None of it uses the package, so no change to the program changes it.
Never edit it between two measurements that are to be compared.
"""

import gc
import json
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Round figures near each part's time in fast spells on the 2-CPU x86-64
# VM this was built on (7.5-11 ms). Only a scale: scaled metrics read in
# seconds of a host where every part takes its nominal time.
NOMINAL_S = {"interpreter": 0.010, "output": 0.010, "pool": 0.010}

_DIAG = memoryview(np.linspace(1.0, 3.0, 6000))
_ROWS = np.column_stack([np.linspace(0.0, 6.0, 1100),
                         np.sin(np.linspace(0.0, 6.0, 1100)),
                         np.cos(np.linspace(0.0, 6.0, 1100)),
                         np.linspace(1e-13, 1e-12, 1100)]).tolist()
_POINTS = [(0.5 + 0.01 * i, 0.2 + 0.003 * j) for i in range(20) for j in range(25)]


def _interpreter(workdir):
    q = 1.0
    count = 0
    for _ in range(20):
        for a in _DIAG:
            q = (a - 1.9) - 0.25 / q
            if q < 0.0:
                count += 1
    return count


def _output(workdir):
    lines = ["t,x,y,err"]
    lines.extend(",".join(f"{value:.17g}" for value in row) for row in _ROWS)
    csv = "\n".join(lines) + "\n"
    text = json.dumps({"rows": [dict(zip(("t", "x", "y", "err"), row))
                                for row in _ROWS[:500]]}, sort_keys=True, indent=1)
    path = workdir / "reference.out"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv)
            fh.write(text)
    finally:
        path.unlink(missing_ok=True)
    return len(csv) + len(text)


def _point(args):
    omega, k = args
    a_script = 9.0 * omega ** 3 / (k * k)
    lam = (a_script * a_script + 19.0) ** 0.5
    return (omega, k, a_script, lam, (lam - a_script + 0.5) * omega)


def _pool(workdir):
    with ThreadPoolExecutor() as pool:
        rows = list(pool.map(_point, _POINTS))
    rows.sort()
    return len(rows)


PARTS = {"interpreter": _interpreter, "output": _output, "pool": _pool}


def sample(workdir):
    """Seconds each part takes now, by part name (GC paused while timed)."""
    times = {}
    gc.disable()
    try:
        for name, part in PARTS.items():
            start = time.perf_counter()
            done = part(workdir)
            times[name] = time.perf_counter() - start
            if done <= 0:
                raise RuntimeError(f"reference part {name} did no work")
    finally:
        gc.enable()
    return times
