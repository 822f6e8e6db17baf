"""Every JSON example in README.md loads through the reader it documents."""

import json
import re
from pathlib import Path

from dpsynth.harness import config_from_dict, load_ingestion_schema
from dpsynth.queries import query_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"

# each example is told apart by the key its format requires
READERS = {"type": query_from_dict, "columns": load_ingestion_schema, "experiment": config_from_dict}


def _json_examples():
    """Every JSON value of every ```json block of the README, in order; a
    block may hold several, one after another."""
    decoder = json.JSONDecoder()
    for block in re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        rest = block.strip()
        while rest:
            value, end = decoder.raw_decode(rest)
            yield value
            rest = rest[end:].lstrip()


def test_every_json_example_loads():
    loaded = []
    for example in _json_examples():
        (key,) = READERS.keys() & example.keys()
        READERS[key](example)
        loaded.append(example.get("type", key))
    assert loaded == ["predicate", "hamming", "tables", "columns", "experiment"]
