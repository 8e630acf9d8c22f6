import gc
import sys


def run() -> int:
    """Process entry of ``python -m opideal`` and the ``opideal`` script.

    The command line is parsed before numpy is loaded, so ``--help`` and
    usage errors exit having run only ``cli`` and ``errors``.  The imports,
    numpy's among them, run with the collector paused: they build no
    garbage for a pass to find.  A process serves one request, so every
    object alive once they are done lives until exit; frozen, no
    collection traverses them again, neither while the command runs nor
    at interpreter finalization.  The collector is back in its former
    state before the command runs, and importing this module changes
    nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        from . import cli
        args = cli.build_parser().parse_args()
        import numpy  # loaded here, so that the freeze covers its heap
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    return cli.run(args)


if __name__ == "__main__":
    sys.exit(run())
