"""Tests for the CAIDA serial-1 loader/serializer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology.loader import dumps_caida, load_caida, loads_caida, save_caida
from repro.topology.relationships import Relationship

from ..conftest import as_graphs

SAMPLE = """\
# inferred AS relationships
# provider|customer|-1, peer|peer|0
701|7018|0
701|9|-1
7018|9|0
"""


class TestParse:
    def test_basic(self):
        g = loads_caida(SAMPLE)
        assert g.relationship(701, 9) is Relationship.CUSTOMER
        assert g.relationship(9, 701) is Relationship.PROVIDER
        assert g.relationship(701, 7018) is Relationship.PEER
        assert g.frozen

    def test_comments_and_blank_lines_ignored(self):
        g = loads_caida("\n# x\n\n1|2|0\n")
        assert g.num_links() == 1

    def test_freeze_optional(self):
        g = loads_caida("1|2|-1", freeze=False)
        assert not g.frozen

    @pytest.mark.parametrize(
        "line, match",
        [
            ("1|2", "expected"),
            ("a|2|0", "non-integer"),
            ("1|2|7", "unknown relationship"),
        ],
    )
    def test_malformed(self, line, match):
        with pytest.raises(TopologyError, match=match):
            loads_caida(line)

    @pytest.mark.parametrize(
        "line", ["-5|2|-1", "1_0|2|-1", "99999999999999999999999|2|0", "1|4294967296|0"]
    )
    def test_asn_not_plain_decimal_in_32_bits(self, line):
        with pytest.raises(TopologyError, match="line 2: AS number"):
            loads_caida("7|8|0\n" + line)

    @pytest.mark.parametrize("rel", ["+0", "0_0", " -1", "-\u0661"])
    def test_relationship_code_is_exact(self, rel):
        with pytest.raises(TopologyError, match="unknown relationship"):
            loads_caida(f"1|2|{rel}")

    def test_largest_asn_accepted(self):
        assert loads_caida("4294967295|0|-1").num_links() == 1

    def test_error_reports_line_number(self):
        with pytest.raises(TopologyError, match="line 3"):
            loads_caida("1|2|0\n2|3|0\nbroken\n")


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path, fig2a_graph):
        path = tmp_path / "topo.txt"
        save_caida(fig2a_graph, path, header="fig2a")
        g2 = load_caida(path)
        assert g2.links() == fig2a_graph.links()
        assert path.read_text().startswith("# fig2a")

    @given(as_graphs())
    def test_dumps_loads_identity(self, g):
        assert loads_caida(dumps_caida(g)).links() == g.links()

    def test_dump_writes_provider_first(self, chain_graph):
        text = dumps_caida(chain_graph)
        assert "1|0|-1" in text
        assert "2|1|-1" in text


_FIELDS = st.one_of(
    st.integers(-3, 2**34).map(str),
    st.sampled_from(["0", "-1", "4294967295", "4294967296", "1_0", "+1", " 2", "x"]),
    st.text(max_size=6),
)
_LINES = st.one_of(
    st.text(max_size=20),
    st.lists(_FIELDS, min_size=2, max_size=4).map("|".join),
)


@given(st.lists(_LINES, max_size=8))
def test_any_document_gives_a_graph_or_a_topology_error(lines):
    try:
        g = loads_caida("\n".join(lines))
    except TopologyError:
        return
    assert all(0 <= asn <= 2**32 - 1 for asn in g.nodes())
