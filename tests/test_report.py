import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.report import CheckRecord, Report, verdict_json

# every kind of character the encoder escapes differently: quotes,
# backslashes, control characters, non-ASCII, non-BMP and lone surrogates
TEXT = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é😀'),
    st.characters(blacklist_categories=()),
), max_size=12)

RECORD = st.builds(CheckRecord, TEXT, TEXT, st.booleans(),
                   st.none() | TEXT, st.none() | TEXT)


@st.composite
def report(draw):
    return Report(draw(TEXT), draw(st.lists(RECORD, max_size=4)))


def payload(command, results, residuals):
    """The `--json` payload as `Report.to_dict` defines it."""
    return {"command": command,
            "sections": [{"name": name, **rep.to_dict(residuals)}
                         for name, rep in results],
            "passed": all(rep.passed for _, rep in results)}


class TestVerdictJson:
    @settings(max_examples=100, deadline=None)
    @given(command=TEXT, residuals=st.booleans(),
           results=st.lists(st.tuples(TEXT, report()), min_size=1,
                            max_size=3))
    def test_matches_json_dumps(self, command, results, residuals):
        want = json.dumps(payload(command, results, residuals), indent=2)
        assert verdict_json(command, results, residuals) == want

    def test_every_optional_field(self):
        full = CheckRecord("n", "i", False, residual="r", detail="d")
        bare = CheckRecord("n", "i", True)
        results = [("a", Report("t", [full, bare])), ("b", Report("u"))]
        for residuals in (False, True):
            want = json.dumps(payload("c", results, residuals), indent=2)
            assert verdict_json("c", results, residuals) == want
        assert verdict_json("c", []) == json.dumps(payload("c", [], False),
                                                   indent=2)


def test_record_is_an_immutable_tuple():
    # the fields, their order and their defaults are those of the record
    # that Report.add builds; a record equals the tuple of its fields
    rec = CheckRecord("n", "i", True)
    assert rec == ("n", "i", True, None, None)
    assert CheckRecord._fields == ("name", "identity", "passed", "residual",
                                   "detail")
    with pytest.raises(AttributeError):
        rec.passed = False
    assert rec.to_dict(residuals=True) == {"name": "n", "identity": "i",
                                           "passed": True}
