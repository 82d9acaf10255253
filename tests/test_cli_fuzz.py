"""Fuzzing of the command line through ``cli.main``.

Every command runs on catalog documents (dim 2 and 3) and small operator
documents after a few random edits: a node replaced by random JSON, a
node deleted or duplicated, the text cut short.  Whatever the input, a
run must end in exit 0, 1 or 2 with no traceback, and a second run on
the same files must print and write the same bytes.
"""

import copy
import io
import json
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from bihomtrias.catalog import catalog_get, catalog_list
from bihomtrias.cli import main
from bihomtrias.documents import algebra_to_document

ENTRY_IDS = list(catalog_list())
# Integers stay within [-2, 3] so that no mutated document declares a dim above 3.
SCALAR_TEXTS = ("0", "1", "-1", "1/2", "i", "2-3i", "(1+i)/2", "1/0", "1.5", "1e3", "", " 1",
                "x", "9" * 40)
KEYS = ("name", "dim", "left", "right", "middle", "alpha", "beta", "i", "j", "k", "c", "extra")

# A nudge puts a scalar text or a small integer where a document has one.
nudges = st.one_of(st.sampled_from(SCALAR_TEXTS), st.integers(-2, 3))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.just(0.5), st.text(max_size=3), nudges),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)
    ),
    max_leaves=6,
)

OPERATORS = (
    [["1"]],
    [["1", "0"], ["0", "1"]],
    [["0", "1"], ["1", "1"]],
    [["1", "0"], ["0", "0"]],
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "i"]],
)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, path + (index,))


@st.composite
def mutated_text(draw, base):
    """The JSON text of ``base`` after up to three random edits."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.sampled_from((0, 1, 1, 2, 3)))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(("nudge", "nudge", "replace", "delete", "duplicate")))
        if not path:
            doc = draw(json_values) if action == "replace" else doc
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action in ("nudge", "replace"):
            parent[key] = draw(nudges if action == "nudge" else json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent["extra"] = copy.deepcopy(parent[key])
    text = json.dumps(doc)
    if draw(st.sampled_from((False,) * 9 + (True,))):
        text = text[: draw(st.integers(0, len(text)))]
    return text


algebra_texts = st.sampled_from(ENTRY_IDS).flatmap(
    lambda entry_id: mutated_text(algebra_to_document(catalog_get(entry_id).algebra))
)
operator_texts = st.sampled_from(OPERATORS).flatmap(mutated_text)

COMMANDS = (
    ("verify", "{a}"),
    ("der", "{a}"),
    ("cent", "{a}"),
    ("iso", "{a}", "{b}", "--map", "{m}"),
    ("construct", "direct-sum", "{a}", "{b}", "-o", "{out}"),
    ("construct", "total-sum", "{a}", "-o", "{out}"),
    ("construct", "transport", "{a}", "--map", "{m}", "-o", "{out}"),
    ("rb", "verify", "{a}", "--op", "{m}", "--weight", "{w}"),
    ("catalog", "list"),
    ("catalog", "get", "{id}"),
    ("catalog", "verify", "{id}"),
)


def _run(argv, out):
    """(exit code, stdout, stderr, written file) of one in-process run."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code = "uncaught:\n" + traceback.format_exc()
    written = out.read_bytes() if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(COMMANDS),
    options=st.sampled_from(((), ("--strict",), ("--format", "structured"))),
    a=algebra_texts,
    b=algebra_texts,
    m=operator_texts,
    weight=st.sampled_from(SCALAR_TEXTS),
    entry_id=st.one_of(st.sampled_from(ENTRY_IDS), st.text(max_size=4)),
)
def test_mutated_documents_exit_cleanly_and_deterministically(
    command, options, a, b, m, weight, entry_id
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name, text in (("a", a), ("b", b), ("m", m)):
            files[name] = tmp / f"{name}.json"
            files[name].write_text(text, encoding="utf-8")
        out = tmp / "out.json"
        fields = {**files, "out": out, "w": weight, "id": entry_id}
        argv = [*options, *(arg.format(**fields) for arg in command)]
        first = _run(argv, out)
        assert first[0] in (0, 1, 2), (argv, first)
        assert "Traceback" not in first[2], (argv, first[2])
        assert _run(argv, out) == first, argv
