import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).resolve().parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# A failing property test prints its @reproduce_failure blob, so the failure can be
# replayed exactly; every other setting keeps hypothesis' default.
settings.register_profile("replay", print_blob=True)
settings.load_profile("replay")
