"""`python -m ramsey3`: the ramsey3 command line."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
