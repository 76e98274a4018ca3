"""``python -m spectralkan``: the same commands as the ``spectralkan`` script."""
from .cli import main
raise SystemExit(main())
