"""Self-tests of the benchmark's own helpers.

Run with ``python -m pytest bench/tests`` from the repository root;
the repository's tier-1 suite (``testpaths = tests``) does not collect
them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
