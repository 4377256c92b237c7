import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import env  # noqa: E402,F401  (pins threads and the import path before numpy loads)
