"""The settable surface, pinned: every knob here is one more configuration
to test. A switch that only forced a slower path for a benchmark's
baseline was retired in favour of the input that needs that path (an
unindexed table, a key the planner cannot hash, a binding without an
exemplar index, one worker); this test keeps them retired."""

import dataclasses
import inspect

import repro.service
from repro.core import BridgeScopeConfig
from repro.minidb import Database, Session


def test_the_settable_surface_is_exactly_this():
    # plans never read batch_size; which engine runs an expression is not
    # a setting (the equivalence suites swap the executor instead)
    assert set(Database().planner_options) == {"batch_size"}
    # every statement a session runs is authorized: no bypass parameter
    assert list(inspect.signature(Session.execute).parameters) == ["self", "sql"]
    assert [field.name for field in dataclasses.fields(BridgeScopeConfig)] == [
        "schema_detail_threshold",
        "exemplar_top_k",
        "max_result_rows",
        "exemplar_scan_limit",
        "policy",
    ]
    # one dispatcher class; one worker is how it serializes
    assert [name for name in dir(repro.service) if name.endswith("Dispatcher")] == [
        "Dispatcher"
    ]
