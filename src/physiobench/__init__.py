"""1D CNN/attention benchmark harness for physiological waveforms.

Subpackages/modules:

* ``core`` — numpy autodiff engine (tensors, layers, gradient checking)
* ``attention`` — SE / non-local / CBAM blocks and the MSA encoder
* ``backbones`` — level-truncated VGG/ResNet/Inception/MSA models + planning
* ``datapipe`` — task rules, synthetic generator, binary dataset container
* ``harness`` — training loop, metrics, convergence timing, seeded sweeps
* ``cli`` — command-line front end

Importing the package runs OpenBLAS on one thread, unless the environment
already sets ``OPENBLAS_NUM_THREADS``.  It sets that variable to ``1``, which
an OpenBLAS that loads later (and every child process) reads, and calls the
runtime setter of every OpenBLAS already loaded, found through
``/proc/self/maps``; so a program that imports numpy first runs the CLI's
configuration.  Where a loaded OpenBLAS exports no setter named here, the
variable is left unset, so ``os.environ`` claims no thread count the process
lacks; without ``/proc/self/maps``, only an OpenBLAS that loads after the
import is set.  OpenBLAS then runs every GEMM on the thread that calls it.
``core.tensor`` runs its convolutions, attention blocks and elementwise
passes over batch blocks on one thread per CPU instead, cut so that no bit
depends on the CPU count: a seed replays bit for bit on any CPU count, for a
given numpy and BLAS build on a given CPU model.
"""

import ctypes
import os

# the forms numpy's bundled build (scipy-openblas, 64-bit integers), other
# 64-bit-integer builds and plain builds export
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_thread_in_loaded_openblas() -> bool:
    """Set every OpenBLAS mapped into this process to one thread.  False when
    one is mapped that exports none of ``_OPENBLAS_SETTERS``; True when the
    mappings cannot be read, since the variable is all there is to set."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip()
                     for line in maps if "openblas" in line.lower()}
    except OSError:
        return True
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, name) for name in _OPENBLAS_SETTERS
                       if hasattr(lib, name)), None)
        if setter is None:
            return False
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        setter(1)
    return True


if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not _one_thread_in_loaded_openblas():
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
