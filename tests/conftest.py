"""Session settings for the test suite: no process it runs writes bytecode.

A ``__pycache__`` left under ``src/`` would let a later benchmark run in the
same checkout skip compiling the package, and so read a start-up time about
ten times lower.  The environment variable carries the setting to the
interpreters that tests start.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
