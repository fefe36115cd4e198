"""Machine-speed calibration for timings on a shared machine.

On a machine shared with other processes, the same pure-Python work can
run up to 2x slower, in phases that last from a second to minutes.  A
fixed big-integer kernel is timed between the measured operations; its
time over KERNEL_REFERENCE_S is the machine's slowdown at that moment.
A run divides its timings by the mean slowdown over all its samples:
one sample is too short to say more than which phase it hit, but their
mean is the share of the run spent in slow phases.  KERNEL_REFERENCE_S
is the kernel's time on an unloaded 2-core x86-64 machine with CPython
3.11, so rescaled times read as seconds there.

The kernel does the two kinds of big-integer work the program spends
its time on: modular squaring of a 300-digit number (as in Pollard rho)
and a pseudo-remainder loop (as in the resultants).  Rerunning one fixed
round 9-11 times in fresh processes, dividing by it cut the coefficient
of variation of the round time from 0.065 to 0.022 (padic_deep), 0.106
to 0.029 (integral_deep) and 0.057 to 0.043 (cover_check), and raised it
from 0.057 to 0.087 (report_cli).  Either half alone did worse on
integral_deep (squaring: 0.053) or on the other three (pseudo-remainder:
0.046, 0.060, 0.119).
"""

import gc
import time

KERNEL_REFERENCE_S = 0.015
_MODULUS = 3**620 + 1  # 296 digits
_A = [3 ** (150 + 7 * k) + k for k in range(48)]
_B = [5 ** (120 + 5 * k) - k for k in range(24)]


def _kernel() -> None:
    y, q = 2, 1
    for _ in range(1500):
        y = (y * y + 1) % _MODULUS
        q = q * (y - 3) % _MODULUS
    r, lead, db = list(_A), _B[-1], len(_B) - 1
    for k in range(len(r) - 1 - db, -1, -1):
        top = r[db + k]
        r = [x * lead for x in r]
        for i in range(db + 1):
            r[k + i] -= top * _B[i]
        r.pop()


def machine_speed() -> float:
    """Slowdown now: the faster of two kernel timings (the first may run
    with caches the caller just evicted) over the reference.  The
    collector is paused so the kernel's time does not depend on how much
    the caller has allocated."""
    times = []
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return min(times) / KERNEL_REFERENCE_S
