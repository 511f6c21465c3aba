"""``python -m dualbraid``: the same command line as the ``dualbraid`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
