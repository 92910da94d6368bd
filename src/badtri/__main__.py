"""`python -m badtri ...`: the badtri command without an installed script."""

import sys

from .cli import main

sys.exit(main())
