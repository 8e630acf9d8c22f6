import gc
import sys

from .cli import main


def run() -> int:
    """Process entry of ``python -m opideal`` and the ``opideal`` script.

    A process serves one request, so every object alive once the imports
    are done lives until exit; frozen, no collection traverses them again,
    neither while the parser is built nor at interpreter finalization.
    ``cli.main`` leaves the GC state alone for in-process callers."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
