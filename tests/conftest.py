"""Let subprocesses started by the tests import qckit from this source tree."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
