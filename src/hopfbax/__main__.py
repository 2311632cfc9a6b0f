"""``python -m hopfbax``: the command-line interface of hopfbax.cli."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
