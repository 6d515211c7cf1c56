"""Asteroid proximity hovering testbed.

Synthesizes small-body shape and rotation models, simulates a 12-thruster
spacecraft in the asteroid body-fixed frame, renders flash-LIDAR range
images, and trains a recurrent on/off thruster policy with clipped
policy-gradient updates.

Importing the package pins BLAS to one thread, unless the variables below
are already set: bytes depend on the BLAS thread count, every product here
is small, and training collects its lanes on the machine's cores instead
(see :func:`asterhover.ppo.collect_rollouts`). The pin takes effect only if
numpy has not been loaded yet.
"""

import os
import sys

__version__ = "0.1.0"

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_numpy_loaded = "numpy" in sys.modules
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

# Whether BLAS runs one thread: numpy loaded after the pin, with every
# variable at 1. Only then does collection fork, since a process with more
# BLAS threads would compete with its siblings for the same cores.
BLAS_PINNED = not _numpy_loaded and all(os.environ[n] == "1" for n in BLAS_THREAD_VARIABLES)


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask, so
    ``taskset`` lowers it), at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1
