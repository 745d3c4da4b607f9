"""Run one platoonshare CLI command with tracing on (traced cli-cold run).

Usage, from the repository root:
    python perfbench/traced_cli.py SPANS.json COMMAND [ARG...]

Behaves like ``python -m platoonshare.cli COMMAND [ARG...]``: same stdout,
stderr and exit code. On exit it writes the recorded spans and computed
counts to SPANS.json for the parent benchmark process to merge.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import platoonshare.cli as cli
    from tracer import Tracer

    tracer = Tracer("fast")
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
