"""python -m treedom: the treedom command line (cli), without an install
when src is on the import path."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
