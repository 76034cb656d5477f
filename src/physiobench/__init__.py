"""1D CNN/attention benchmark harness for physiological waveforms.

Subpackages/modules:

* ``core`` — numpy autodiff engine (tensors, layers, gradient checking)
* ``attention`` — SE / non-local / CBAM blocks and the MSA encoder
* ``backbones`` — level-truncated VGG/ResNet/Inception/MSA models + planning
* ``datapipe`` — task rules, synthetic generator, binary dataset container
* ``harness`` — training loop, metrics, convergence timing, seeded sweeps
* ``cli`` — command-line front end

Importing the package sets one process policy for OpenBLAS, before anything
in it imports numpy: ``OPENBLAS_NUM_THREADS=1``, unless the environment
already sets it.  OpenBLAS reads the variable when it loads, and then runs
every GEMM on the thread that calls it.  ``core.tensor`` runs its
convolutions, attention blocks and elementwise passes over batch blocks on
one thread per CPU instead, cut so that no bit depends on the CPU count: a
seed replays bit for bit on any CPU count, for a given numpy and BLAS build
on a given CPU model.  Where numpy was imported before physiobench, OpenBLAS
has already read its environment, so the package leaves the variable alone:
``os.environ``, and every child process started from it, then show the
thread count actually in effect, and that caller keeps its BLAS sums'
dependence on it.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
