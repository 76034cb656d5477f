"""1D CNN/attention benchmark harness for physiological waveforms.

Subpackages/modules:

* ``core`` — numpy autodiff engine (tensors, layers, gradient checking)
* ``attention`` — SE / non-local / CBAM blocks and the MSA encoder
* ``backbones`` — level-truncated VGG/ResNet/Inception/MSA models + planning
* ``datapipe`` — task rules, synthetic generator, binary dataset container
* ``harness`` — training loop, metrics, convergence timing, seeded sweeps
* ``cli`` — command-line front end

Importing the package sets one process policy for OpenBLAS, before anything
in it imports numpy: ``OPENBLAS_THREAD_TIMEOUT=20``, unless the environment
already sets it.  OpenBLAS reads the variable when it loads.  Its worker
threads then spin for about 2^20 CPU cycles (under a millisecond) after each
call before they sleep, instead of the compiled-in 2^28 (about 0.1 s), so
they leave the CPUs to the elementwise passes that ``core.tensor`` runs on
its own threads between GEMMs.  Of 20, 22 and 24, 20 gave the fastest
ResNet + SE training step on a 2-CPU host.  The BLAS thread count and the
way a GEMM is split are unchanged, so no bit changes.  Where numpy was
imported before physiobench, OpenBLAS has already read its environment, so
the package leaves the variable alone: ``os.environ``, and every child
process started from it, then show the policy actually in effect.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

__version__ = "0.1.0"
