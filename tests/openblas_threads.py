"""Thread counts of the OpenBLAS libraries loaded into this process.

Imports only the standard library, so a child process can import it after
the modules whose import order a test sets.
"""

import ctypes

# the getters of numpy's bundled build (scipy-openblas, 64-bit integers),
# other 64-bit-integer builds and plain builds
GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
           "openblas_get_num_threads")


def loaded_openblas_threads() -> list[int]:
    """The count each loaded OpenBLAS reports; empty where none can be asked
    (no OpenBLAS loaded, no getter exported, or no ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip()
                     for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in GETTERS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = (), ctypes.c_int
                counts.append(getter())
                break
    return counts
