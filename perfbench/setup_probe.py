"""Set-up probe: a fresh interpreter imports purepole and warms it, then exits.

run.py times this whole process, from spawn to exit, as the benchmark's
set-up time.  The BLAS thread variables are inherited from run.py.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import warm_up  # noqa: E402

warm_up()
