"""`python -m smsquiver`: the same entry point as the `smsquiver` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
