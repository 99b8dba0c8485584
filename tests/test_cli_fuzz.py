"""CLI fuzzing: one JSON node of a golden-corpus input replaced or deleted.

Each example takes a case from `test_cli_golden.cases()`, picks its own
input file or a file that file references, and replaces one node with a
value from `VALUES` or deletes it.  Every run must end in exit 0, 1 or 2
with no exception escaping `cli.main`.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import test_cli_golden as golden
from grpd import cli

VALUES = [None, -1, 0, 1, 2, "0", "x", "1/0", [], {}, [[]], 10**30, 1.5, True, "-3"]
DELETE = "<delete>"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    golden.write_inputs(d)
    return d


def _files(d, argv):
    """The JSON files a case reads: its arguments and the files an action references."""
    files = [a for a in argv if a.endswith(".json")]
    for f in list(files):
        doc = json.loads((d / f).read_text())
        if isinstance(doc, dict) and "groupoid" in doc:
            files += [doc["groupoid"], doc["algebra"]]
    return files


def _paths(x, path=()):
    yield path
    if isinstance(x, (dict, list)):
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from _paths(v, path + (k,))


def _mutate(doc, path, value):
    if not path:
        return value
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


CASES = {name: argv for name, argv in sorted(golden.cases().items())
         if any(a.endswith(".json") for a in argv)}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_single_node_mutation_exits_cleanly(corpus_dir, data):
    argv = CASES[data.draw(st.sampled_from(sorted(CASES)), label="case")]
    f = data.draw(st.sampled_from(_files(corpus_dir, argv)), label="file")
    text = (corpus_dir / f).read_text()
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.sampled_from(VALUES + [DELETE] if path else VALUES), label="value")
    (corpus_dir / f).write_text(json.dumps(_mutate(doc, path, value)))
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([str(corpus_dir / a) if a.endswith(".json") else a for a in argv])
    finally:
        (corpus_dir / f).write_text(text)
    assert code in (0, 1, 2)
