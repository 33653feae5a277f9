"""Run the command line interface as `python -m lekit`."""

from .cli import main

if __name__ == "__main__":
    main()
