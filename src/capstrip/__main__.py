"""`python -m capstrip`: the capstrip command line."""

from capstrip.cli import main

if __name__ == "__main__":
    main()
