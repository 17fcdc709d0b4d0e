"""``python -m nlpf``: the CLI.  Only ``nlpf.cli`` is imported, so --threads
pins the BLAS pools before numpy loads."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
