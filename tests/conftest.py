"""Suite-wide settings.

BLAS and OpenMP are pinned to one thread for the session, as
`bench/run.py` pins them, so that `train_and_score_cells` fits the
acceptance grid on every usable CPU and `predict_windows` scores on
threads. The pin only takes effect if it is set before numpy first
loads. When something has loaded numpy already, the variables are left
as they are, so that `cpu_slots` reads the BLAS threads numpy really
runs (unset: every CPU, and the session runs serial).

Hypothesis draws the same examples on every run (derandomized, no
example database), so a pass or failure reproduces.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
