"""`python -m orckit`: the same command line as the `orckit` script."""

from .cli import main

raise SystemExit(main())
