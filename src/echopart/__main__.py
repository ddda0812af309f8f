"""``python -m echopart``: the echopart command line, as cli.main runs it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
