"""The value types' contract: construction by position and by keyword, the
defaults, equality and hashing, read-only attributes, and pickling."""

import pickle
from pathlib import Path

import pytest

import mvtrack as mv
from mvtrack.io import scene_to_dict

FIXTURES = Path(__file__).parent.parent / "fixtures"

# Each type's constructor parameters, in positional order.
FIELDS = {
    mv.IndexPair: ("P", "E"),
    mv.Bar: ("dim", "birth", "death"),
    mv.PairTag: ("field_index", "role"),
    mv.CheckReport: ("ok", "problems"),
    mv.AtomicRearrangement: ("kind", "whole", "parts"),
    mv.Barcode: ("bars", "length", "betti_per_position", "step_of_position"),
    mv.TrackingStep: ("index", "case", "current", "result", "rearrangement", "appended_pairs",
                      "appended_tags", "connecting_pair", "hull_set", "adjacency_set", "notes",
                      "resolved"),
    mv.TrackingTrace: ("cx", "fields", "seed", "steps", "zigzag", "barcode", "stopped"),
    mv.Scene: ("cx", "fields", "seed", "labels"),
}
HASHABLE = (mv.IndexPair, mv.Bar, mv.PairTag, mv.CheckReport, mv.AtomicRearrangement)
PICKLED = (mv.IndexPair, mv.Bar, mv.CheckReport, mv.Scene)


@pytest.fixture(scope="module")
def instances(merging_saddles):
    scene = merging_saddles
    trace = mv.run_protocol(scene.fields, scene.seed)
    step = trace.steps[0]
    return {mv.IndexPair: step.connecting_pair, mv.Bar: trace.barcode.bars[0],
            mv.PairTag: step.appended_tags[0], mv.CheckReport: mv.CheckReport(False, ("x",)),
            mv.AtomicRearrangement: step.rearrangement, mv.Barcode: trace.barcode,
            mv.TrackingStep: step, mv.TrackingTrace: trace, mv.Scene: scene}


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_value_types_keep_their_contract(instances, kind):
    value = instances[kind]
    items = {name: getattr(value, name) for name in FIELDS[kind]}
    by_position, by_keyword = kind(*items.values()), kind(**items)
    assert type(by_position) is type(by_keyword) is kind
    assert value == by_position == by_keyword
    assert all(getattr(by_keyword, name) is item for name, item in items.items())
    if kind in HASHABLE:
        assert hash(value) == hash(by_position) == hash(by_keyword)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name, item in items.items():
        with pytest.raises(AttributeError):
            setattr(value, name, item)
    if kind in PICKLED:
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is kind and copy == value


def test_value_type_defaults_and_checks(instances):
    assert mv.PairTag() == mv.PairTag(None, "")
    assert mv.CheckReport(True).problems == () and mv.CheckReport(True)
    assert not mv.CheckReport(False, ("x",))
    barcode = instances[mv.Barcode]
    assert mv.Barcode(barcode.bars, barcode.length, barcode.betti_per_position).step_of_position is None
    scene = instances[mv.Scene]
    assert mv.Scene(scene.cx, scene.fields, scene.seed).labels is None
    step = instances[mv.TrackingStep]
    head = (step.index, step.case, step.current, step.result, step.rearrangement)
    short = mv.TrackingStep(*head, [], [])
    assert (short.connecting_pair, short.hull_set, short.adjacency_set, short.notes,
            short.resolved) == (None, None, None, (), True)
    with pytest.raises(TypeError):
        mv.TrackingStep(*head)  # the appended lists are required, never a shared default
    with pytest.raises(ValueError, match="^E must be a subset of P$"):
        mv.IndexPair(E=frozenset({(1,)}), P=frozenset({(0,)}))
    with pytest.raises(ValueError, match=r"^bad bar interval \[3, 2\]$"):
        mv.Bar(dim=1, birth=3, death=2)
    with pytest.raises(ValueError, match=r"^bad bar interval \[0, 0\]$"):
        mv.Bar(0, 0, 0)


@pytest.mark.parametrize("name", ["merging_saddles", "repeller_disk", "saddle_collision_nine",
                                  "unresolved_step"])
def test_a_scene_derives_its_names_and_pickles(name):
    """`names` reverses the label table; a pickled scene is rebuilt from its
    four given items, and `_replace` keeps the derived table."""
    scene = mv.load_scene(FIXTURES / f"{name}.json")
    assert scene.names == {i: label for label, i in (scene.labels or {}).items()}
    copy = pickle.loads(pickle.dumps(scene))
    assert type(copy) is mv.Scene and copy == scene and copy.names == scene.names
    shorter = scene._replace(fields=scene.fields[:1])
    assert type(shorter) is mv.Scene and shorter.names == scene.names
    assert shorter[:4] == (scene.cx, scene.fields[:1], scene.seed, scene.labels)


def test_replacing_the_labels_derives_the_names_again(merging_saddles):
    """`_replace(labels=...)` names each vertex by the new table, as a scene
    built with it does: `label_of` and `scene_to_dict` print the new label,
    and a vertex the table leaves out by its id."""
    scene = merging_saddles
    replaced = scene._replace(labels={"Z": 0})
    assert scene.label_of(0) == "A" and replaced.label_of(0) == "Z" and replaced.label_of(1) == "1"
    assert replaced.names == mv.Scene(*replaced[:4]).names == {0: "Z"}
    doc, before = scene_to_dict(replaced), scene_to_dict(scene)
    renamed = {label: "Z" if i == 0 else i for label, i in scene.labels.items()}
    assert doc["vertices"] == {"Z": 0}
    assert doc["maximal_simplices"] == [[renamed[v] for v in s] for s in before["maximal_simplices"]]
