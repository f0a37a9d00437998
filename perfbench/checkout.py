"""Locate the checkout's ``src`` tree and import rfneuron from it, never from elsewhere."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def import_rfneuron():
    """Put ``src`` first on the path and import the package built from it.

    Raises ``SystemExit`` with a message when the checkout holds no
    ``src/rfneuron`` or the import resolves to another copy.
    """
    if not (SRC / "rfneuron" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rfneuron sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rfneuron

    if Path(rfneuron.__file__).resolve().parent != SRC / "rfneuron":
        raise SystemExit(f"perfbench: rfneuron imported from {rfneuron.__file__}, not {SRC}")
    return rfneuron
