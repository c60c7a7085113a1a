#!/usr/bin/env python3
"""Write perfbench/reference.json from the probes in checks.py.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the forecasts or the scores,
and say so with the change: every benchmark run compares against this file.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import motioncast  # noqa: E402
import checks  # noqa: E402


def main():
    workdir = Path(tempfile.mkdtemp(dir=HERE))
    try:
        doc = {"seed": checks.REFERENCE_SEED, "rtol": checks.RTOL,
               "stream": checks.stream_probe(motioncast, workdir),
               "evaluate": checks.evaluate_probe(motioncast, workdir)}
    finally:
        shutil.rmtree(workdir)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
