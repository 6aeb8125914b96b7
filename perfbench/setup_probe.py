"""Set-up probe, run in a fresh interpreter: python3 setup_probe.py SRC_DIR.

Imports rcumem.cli from SRC_DIR, runs a tiny simulate so its lazy
first-call work (scipy.stats quantiles, analytics) is done, and prints
the CLOCK_MONOTONIC time at which it finished, the seconds spent in the
host-speed reference meanwhile, the mean reference duration and the
package path.
"""
import contextlib
import io
import math
import sys
import time

import hostspeed

sys.path.insert(0, sys.argv[1])

with hostspeed.HostTimer() as timer:
    import rcumem  # noqa: E402
    import rcumem.cli  # noqa: E402

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = rcumem.cli.main(["simulate", "--alpha", "1", "--lambda", "1", "--publications", "1000", "--batches", "10"])
    done = time.monotonic()
    spent = math.fsum(timer.samples)  # all inside the caller's timing, the first one too
if rc != 0:
    sys.exit(f"warm-up simulate exited {rc}")
print(repr(done), repr(spent), repr(timer.mean_ref()), rcumem.__file__)
