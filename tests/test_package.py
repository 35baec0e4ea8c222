"""The package's exported names and what importing it costs."""

import os
import subprocess
import sys
from pathlib import Path

import assocnf


def test_exported_names_are_unchanged():
    assert set(assocnf.__all__) == {
        "Term", "Leaf", "Node", "Metrics", "ParseError", "parse", "render",
        "size", "sigma", "depth_rightmost", "is_normal_form", "left_chain",
        "right_chain", "measure",
        "Position", "RewriteError", "InvalidPosition", "NotARedex", "Step",
        "Trace", "format_position", "find_redexes", "apply_at",
        "normalize_shortest", "normalize_longest", "normalize", "STRATEGIES",
        "ENUMERATION_CAP", "GRAPH_CAP", "CapExceeded", "RewriteGraph",
        "TermRecord", "VerificationReport", "enumerate_shapes", "build_graph",
        "verify_sn", "verify_wcr", "verify_unique_nf", "longest_paths",
        "shortest_paths", "verify_all", "report_table", "records_jsonl", "export_dot",
        "__version__",
    }
    assert len(assocnf.__all__) == len(set(assocnf.__all__))
    assert all(hasattr(assocnf, name) for name in assocnf.__all__)


def test_cli_import_pulls_in_no_dataclasses_or_inspect():
    # dataclasses imports inspect, ast, dis and tokenize, a large share of
    # every CLI process's start-up; the records are namedtuples instead.
    # json is needed only to write verify --records.
    code = (
        "import sys, assocnf.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(assocnf.__file__).parents[1])},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
