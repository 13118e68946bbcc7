from __future__ import annotations

import pytest

from talentflow.pipeline import _atomic


def _partial_then_fail(p):
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("half a row,")
    raise OSError("disk full")


@pytest.mark.parametrize("old", ["old,bytes\n", None])
def test_atomic_failure_leaves_no_temp_file_and_keeps_target(tmp_path, old):
    target = tmp_path / "hops.csv"
    if old is not None:
        target.write_text(old, encoding="utf-8")
    with pytest.raises(OSError, match="disk full"):
        _atomic(target, _partial_then_fail)
    assert list(tmp_path.glob("*.tmp")) == []
    if old is None:
        assert not target.exists()
    else:
        assert target.read_text(encoding="utf-8") == old
