"""Keeps the reference helpers beside the tests (`linalg_reference`,
`meshcat_reference`, `cli_reference`) importable under every pytest
import mode, `importlib` included."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
