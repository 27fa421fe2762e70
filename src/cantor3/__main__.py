"""`python -m cantor3 ...` runs the command line, as the installed `cantor3` script does."""

import sys

from .cli import main

if __name__ == "__main__":  # not when a process pool's spawned worker re-imports it
    sys.exit(main())
