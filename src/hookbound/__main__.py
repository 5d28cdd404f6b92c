"""``python -m hookbound``: the command-line front end of ``hookbound.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
