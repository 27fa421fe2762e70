"""`python -m cantor3 ...` runs the command line, as the installed `cantor3` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
