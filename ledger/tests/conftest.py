"""``python -m pytest ledger/tests -q`` (not collected by tier-1, whose
``testpaths`` is ``tests``)."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(LEDGER))
sys.path.insert(1, str(LEDGER.parent / "src"))
