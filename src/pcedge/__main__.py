"""`python -m pcedge`: the same command line as the `pcedge` script."""

import sys

from .cli import main

sys.exit(main())
