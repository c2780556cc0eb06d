"""`docs/diagram.schema.json` states the diagram and functor file formats a
second time, beside the dataclasses that `typed_json` reads them into. The
schema accepts what `typed_json.dump` writes, and what it rejects
`typed_json.parse` rejects too."""

import copy
import json
from pathlib import Path

import pytest

from bimonetary.category import (
    Affine,
    Diagram,
    EconObject,
    Functor,
    MorphismSpec,
    Ratio,
    RiskDiscount,
    ScaleBySeries,
    compose,
)
from bimonetary.errors import InputError
from bimonetary.typed_json import dump, parse
from tests.conftest import functor_document

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "diagram.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
DIAGRAM = jsonschema.Draft202012Validator(SCHEMA)
FUNCTOR = jsonschema.Draft202012Validator(
    {**SCHEMA["$defs"]["functor"], "$defs": SCHEMA["$defs"]}
)


def diagram() -> Diagram:
    """Every morphism kind, a chain among the edges and one equal-path pair."""
    nodes = tuple(EconObject(n, f"node {n}") for n in ("M2", "flow", "flow2"))
    scale = MorphismSpec(Affine(2.0, 1.0), "M2", "flow")
    by_rate = MorphismSpec(ScaleBySeries("E"), "flow", "flow2")
    ratio = MorphismSpec(Ratio("M2", "E"), "M2", "flow2")
    discount = MorphismSpec(RiskDiscount("Embi+ARG"), "flow2", "flow2")
    chain = compose(scale, by_rate)
    edges = (scale, by_rate, ratio, discount, chain)
    return Diagram(nodes, edges, (((scale, by_rate), (chain,)),))


def test_the_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_dumped_diagram_and_functor_documents_are_valid():
    d = diagram()
    DIAGRAM.validate(dump(Diagram, d))
    functor = Functor(
        "same",
        {n.id: EconObject(n.id, f"image of {n.id}") for n in d.nodes},
        {m: m for m in d.edges},
    )
    FUNCTOR.validate(functor_document(functor))


def _unknown_key(doc):
    doc["edges"][0]["weight"] = 1.0


def _missing_kind(doc):
    del doc["edges"][0]["kind"]


def _text_coefficient(doc):
    doc["edges"][0]["kind"]["a"] = "1"


def _empty_chain(doc):
    doc["edges"][4]["kind"]["parts"] = []


@pytest.mark.parametrize(
    "change", [_unknown_key, _missing_kind, _text_coefficient, _empty_chain]
)
def test_what_the_schema_rejects_parse_rejects(change):
    doc = copy.deepcopy(dump(Diagram, diagram()))
    assert doc["edges"][4]["kind"]["type"] == "chain"
    change(doc)
    assert not DIAGRAM.is_valid(doc)
    with pytest.raises(InputError):
        parse(Diagram, doc, "diagram")
