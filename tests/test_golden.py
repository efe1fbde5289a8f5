import json

from tests import golden


def test_golden_verdict_table_is_unchanged():
    want = json.loads(golden.PATH.read_text(encoding="utf-8"))
    got = json.loads(golden.render(golden.table()))  # through JSON, as the file was written
    for part in ("reports", "tolerance_sweep"):
        assert len(got[part]) == len(want[part])
        moved = [(w, g) for w, g in zip(want[part], got[part]) if w != g]
        assert not moved, f"{len(moved)} {part} entries moved; first: {moved[0]}"
    assert got == want
