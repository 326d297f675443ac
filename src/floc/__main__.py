"""``python -m floc``: the command-line interface."""

import sys

from floc.cli import main

if __name__ == "__main__":
    sys.exit(main())
