import gc
import sys


def run() -> int:
    """Process entry of ``python -m opideal`` and the ``opideal`` script.

    The command line's imports, numpy among them, run with the collector
    paused: they build no garbage for a pass to find.  A process serves
    one request, so every object alive once they are done lives until
    exit; frozen, no collection traverses them again, neither while the
    parser is built nor at interpreter finalization.  The collector is
    back in its former state before ``cli.main`` runs, and importing this
    module changes nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        from .cli import main
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
