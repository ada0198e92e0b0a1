import pytest

from finsite.fincat import build_divisor_poset
from finsite.gtopology import GrothendieckTopology
from finsite.parsing import serialize_category, serialize_topology
from finsite.sieves import sieve_closure


@pytest.fixture(scope="session")
def broken720(tmp_path_factory):
    """The ``check-topology`` options of D_720 and of J_{2} less its least
    cover at 360, as files: J_{2} is the topology whose least cover L(x) is
    the principal sieve on 2 when 2 divides x and empty otherwise."""
    C = build_divisor_poset(720)
    least = {x: sieve_closure(C, x, [a for a in C.arrows_into(x) if C.dom(a) == 2]) for x in C.objects}
    covers = GrothendieckTopology(C, basis=lambda x: (least[x],)).covers_map()
    covers[360] = covers[360] - {least[360]}
    out = tmp_path_factory.mktemp("d720")
    (out / "d720.cat").write_text(serialize_category(C))
    (out / "broken.gtop").write_text(serialize_topology(GrothendieckTopology(C, "broken", covers=covers)))
    return {"category": str(out / "d720.cat"), "topology": str(out / "broken.gtop")}
