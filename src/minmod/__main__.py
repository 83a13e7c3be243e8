"""``python -m minmod``: the command line of :mod:`minmod.cli`."""

from .cli import main

raise SystemExit(main())
