"""``python -m qiso``: the command line of :mod:`qiso.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
