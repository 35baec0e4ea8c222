"""The package's exported names."""

import assocnf


def test_exported_names_are_unchanged():
    assert set(assocnf.__all__) == {
        "Term", "Leaf", "Node", "Metrics", "ParseError", "parse", "render",
        "size", "sigma", "depth_rightmost", "is_normal_form", "left_chain",
        "right_chain", "measure",
        "Position", "RewriteError", "InvalidPosition", "NotARedex", "Step",
        "Trace", "format_position", "find_redexes", "apply_at",
        "step_shortest", "normalize_shortest", "normalize_longest",
        "normalize", "STRATEGIES",
        "ENUMERATION_CAP", "GRAPH_CAP", "CapExceeded", "RewriteGraph",
        "TermRecord", "VerificationReport", "enumerate_shapes", "build_graph",
        "verify_sn", "verify_wcr", "verify_unique_nf", "longest_paths",
        "shortest_paths", "longest_path_from", "shortest_path_from",
        "verify_all", "report_table", "records_jsonl", "export_dot",
        "__version__",
    }
    assert len(assocnf.__all__) == len(set(assocnf.__all__))
    assert all(hasattr(assocnf, name) for name in assocnf.__all__)
