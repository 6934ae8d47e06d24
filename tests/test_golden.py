"""Every recorded output of `check_outputs.py` is unchanged.

The command list of `check_outputs.outputs` runs in-process, and each output
is compared with its file under `tests/golden/outputs/`.  A change that moves
a recorded number replaces the file in the same commit
(`PYTHONPATH=src python tests/check_outputs.py tests/golden/outputs`).
"""

from itertools import zip_longest
from pathlib import Path

from check_outputs import outputs

GOLDEN = Path(__file__).parent / "golden" / "outputs"


def first_difference(want: str, got: str) -> str:
    pairs = zip_longest(want.splitlines(keepends=True), got.splitlines(keepends=True))
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"line {number}: recorded {a!r}, now {b!r}"
    return "no line differs"


def test_recorded_outputs_are_unchanged(tmp_path):
    produced, changed = [], []
    for name, text in outputs(str(tmp_path)):
        produced.append(name)
        path = GOLDEN / name
        want = path.read_text() if path.exists() else None
        if want is None:
            changed.append(f"{name}: no recorded file")
        elif text != want:
            changed.append(f"{name}: {first_difference(want, text)}")
    stale = sorted({p.name for p in GOLDEN.iterdir()} - set(produced))
    assert not changed, "\n".join(changed)
    assert not stale, f"recorded files no command writes: {stale}"
