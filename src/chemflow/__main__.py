"""``python -m chemflow``: the ``chemflow`` command without installing the package."""

from .io_cli import console_main

console_main()
