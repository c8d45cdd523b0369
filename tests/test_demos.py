"""The demos regenerate their committed outputs byte for byte.

Each demo writes into ``output/`` beside its own file, so it runs from a
copy in a temporary directory and never touches the repository.
"""

import os
import shutil
import subprocess
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
SRC = os.path.join(os.path.dirname(DEMOS), "src")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_regenerates_its_outputs(tmp_path, name):
    shutil.copy(os.path.join(DEMOS, name), tmp_path / name)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, name], cwd=tmp_path, env=env, check=True,
                   capture_output=True, timeout=120)
    written = sorted(os.listdir(tmp_path / "output"))
    assert written
    for out in written:
        with open(os.path.join(DEMOS, "output", out), "rb") as fh:
            expected = fh.read()
        assert (tmp_path / "output" / out).read_bytes() == expected, f"{name} changed {out}"
