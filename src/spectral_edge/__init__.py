"""Numerics for rank-one spiked Hermitian matrix models: equilibrium
measures, spike phase transitions, limiting edge laws, exact finite-size
gap probabilities, and Monte Carlo verification.

The package re-exports no names: import them from their modules
(``spectral_edge.limitlaws``, ``spectral_edge.transition`` and so on), so
that a program loads only the modules it uses.  They need numpy alone: scipy
is imported only to evaluate the CDF of a GenGauss law."""

import ctypes

# glibc gives freed heap memory back to the system once 128 KiB sit free at
# the top of the heap, and raises that threshold only when a large mmapped
# block is freed.  The batched Nystrom tables and the gap determinants
# allocate and free 0.2-4 MB of temporaries per block, so under the default
# the process page-faults that memory back in on every block: eight
# law_query jobs took ~150 000 minor faults instead of ~1 400 on a 2-core
# VM, and their law tables ~25% longer.  Fixed thresholds keep such blocks
# on the heap.  C libraries without mallopt are left as they are.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (OSError, AttributeError):
    pass
else:
    _mallopt(-3, 4 << 20)    # M_MMAP_THRESHOLD: blocks below 4 MiB come from the heap
    _mallopt(-1, 8 << 20)    # M_TRIM_THRESHOLD: up to 8 MiB stay free at its top

__version__ = "0.1.0"
