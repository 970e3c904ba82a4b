"""Szegedy spatial-search simulator and exceptional-configuration attack toolkit.

Import names from their modules: qwattack.graphs, qwattack.szegedy,
qwattack.exceptional, qwattack.attack, qwattack.experiments and qwattack.cli.
"""

__version__ = "0.1.0"

# the thread caps a freshly imported numpy reads from the environment; the CLI and the
# worker pool set each to "1" before numpy loads (this module imports no numpy)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
