"""The result records: their reprs, immutability and tuple semantics."""

import pytest

from assocnf.oracle import build_graph, verify_all
from assocnf.rewrite import Step, normalize
from assocnf.terms import Leaf, measure, parse

T = parse("((a*b)*c)")
REPORT = verify_all(1)[1]


def test_reprs_name_every_field():
    trace = normalize(T, "longest")
    assert repr(measure(T)) == "Metrics(size=2, sigma=1, d_rm=1, is_nf=False)"
    assert repr(trace) == (
        "Trace(start=parse('((a*b)*c)'), final=parse('(a*(b*c))'), "
        "strategy='longest', step_count=1)"
    )
    assert repr(next(iter(trace.steps))) == "Step(position='', term_after=parse('(a*(b*c))'))"
    assert repr(normalize(parse("(((a*b)*c)*d)"), "longest").steps) == "<3 longest steps>"
    assert repr(Leaf()) == "Leaf()" and repr(Leaf("a")) == "Leaf('a')"
    assert str(T) == "((a*b)*c)"
    assert repr(verify_all(1)) == (
        "[VerificationReport(n=0, records=(TermRecord(term='.', size=0, sigma=0, "
        "d_rm=0, longest=0, shortest=0),), sn_ok=True, wcr_ok=True, "
        "unique_nf_ok=True, longest_matches_sigma=True, "
        "shortest_matches_formula=True, max_longest=0, max_attained_by=('.',)), "
        "VerificationReport(n=1, records=(TermRecord(term='(.*.)', size=1, "
        "sigma=0, d_rm=1, longest=0, shortest=0),), sn_ok=True, wcr_ok=True, "
        "unique_nf_ok=True, longest_matches_sigma=True, "
        "shortest_matches_formula=True, max_longest=0, max_attained_by=('(.*.)',))]"
    )
    assert repr(build_graph(2)) == (
        "RewriteGraph(n=2, nodes=('((.*.)*.)', '(.*(.*.))'), targets=((1,), ()))"
    )


@pytest.mark.parametrize(
    "record,field",
    [
        (measure(T), "sigma"),
        (Step("R", Leaf("a")), "position"),
        (normalize(T, "shortest"), "step_count"),
        (build_graph(2), "targets"),
        (REPORT.records[0], "longest"),
        (REPORT, "sn_ok"),
    ],
    ids=["Metrics", "Step", "Trace", "RewriteGraph", "TermRecord", "VerificationReport"],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_records_are_tuples_of_their_fields():
    assert Step("R", T) == ("R", T)
    trace = normalize(T, "longest")
    assert trace == (T, parse("(a*(b*c))"), "longest", 1)
    start, _, _, step_count = trace
    assert start is T and trace[-1] == step_count == 1
    # len counts the fields, not the steps
    assert len(trace) == 4 and len(trace.steps) == 1
    # graphs compare and hash by value, not by identity
    assert build_graph(3) == build_graph(3)
    assert hash(build_graph(3)) == hash(build_graph(3))
    assert build_graph(3) != build_graph(2)
