"""``python -m privcache``: the command-line front end, runnable from a
source tree without the installed ``privcache`` script."""

from .cli import entrypoint

entrypoint()
