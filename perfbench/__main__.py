import signal
import sys

from . import stop_children
from .cli import main


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


# Whatever the way out (result, failed check, error, SIGTERM): no
# process this one started outlives it.
signal.signal(signal.SIGTERM, _terminated)
try:
    code = main()
finally:
    stop_children()
sys.exit(code)
