"""``python -m mimosched``: the command-line interface, as the ``mimosched`` script runs it."""
import sys

from .cli import main

sys.exit(main())
