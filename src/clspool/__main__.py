"""``python -m clspool <command>``: the same entry point as the ``clspool`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
