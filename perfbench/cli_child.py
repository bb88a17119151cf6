"""Run the sheafloci CLI once under the tracer (traced cli workload only).

Usage: python3 perfbench/cli_child.py <sheafloci arguments...>

The per-layer totals go to the JSON file named by PERFBENCH_TRACE_OUT;
the exit code, stdout and stderr are the CLI's own.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sheafloci.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.task = 0
    with tracer:
        code = sheafloci.cli.console_main(sys.argv[1:])
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump({"agg": tracer.agg, "absent": sorted(tracer.absent), "spans": tracer.span_count}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
