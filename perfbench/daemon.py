"""Start the ``repro serve`` daemon with the layer timers installed.

The traced serving run launches the daemon through this file instead
of ``python -m repro serve``: it installs the wrappers, then calls the
same ``serve_forever``.  On SIGTERM it waits for the request in flight,
writes its spool file and exits.

    python3 perfbench/daemon.py --cache-dir DIR --spool DIR
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spool", required=True)
    args = parser.parse_args()

    recorder = layers.Recorder(args.spool, role="daemon")
    layers.install_layers(recorder)
    from repro.service import serve_forever

    def stop(_signum: int, _frame: object) -> None:
        deadline = time.monotonic() + 5.0
        while recorder.inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        recorder.flush()
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    return serve_forever("127.0.0.1", 0, args.cache_dir, quiet=True)


if __name__ == "__main__":
    sys.exit(main())
