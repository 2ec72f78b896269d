import json
import subprocess
import sys

import pytest

# On Linux a spawned process's ru_maxrss starts from its spawner's peak RSS,
# so a child spawned straight from pytest reports the larger of pytest's peak
# and its own.  A bare interpreter in between has a peak of a few MiB.
SPAWN_BARE = ("import subprocess, sys; "
              "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)")


@pytest.fixture
def run_bare_child():
    """Runs Python source in a child spawned by a bare interpreter and
    returns the JSON object the child prints."""
    def run(code: str) -> dict:
        proc = subprocess.run([sys.executable, "-c", SPAWN_BARE, code],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)
    return run
