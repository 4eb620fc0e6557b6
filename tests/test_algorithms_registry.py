"""The uniform ALGORITHMS registry and the 1.1 keyword-only signatures."""

import inspect

import pytest

from repro.analysis.ratios import measure, measure_many
from repro.core.profile import SpeedProfile
from repro.qbss import (
    ALGORITHMS,
    avrq,
    bkpq,
    clairvoyant,
    crad,
    crcd,
    crp2d,
    get_algorithm,
    incremental_profile,
    oaq,
    oaq_m,
    run_algorithm,
    verify_causality,
)
from repro.qbss.policies import FixedSplit, ThresholdQuery
from repro.workloads import generators

INSTANCE_FOR = {
    "crcd": lambda: generators.common_deadline_instance(6, seed=0),
    "crp2d": lambda: generators.power_of_two_instance(6, seed=0),
    "crad": lambda: generators.common_release_instance(6, seed=0),
    "avrq": lambda: generators.online_instance(6, seed=0),
    "bkpq": lambda: generators.online_instance(6, seed=0),
    "oaq": lambda: generators.online_instance(6, seed=0),
    "avrq_m": lambda: generators.multi_machine_instance(6, 2, seed=0),
    "avrq_nm": lambda: generators.multi_machine_instance(6, 2, seed=0),
    "oaq_m": lambda: generators.multi_machine_instance(6, 2, seed=0),
}

#: Every entry point that once took its options positionally, called with
#: one positional argument past its fixed parameters.
ONE_POSITIONAL_TOO_MANY = {
    "avrq": lambda: avrq(INSTANCE_FOR["avrq"](), FixedSplit(0.5)),
    "bkpq": lambda: bkpq(INSTANCE_FOR["bkpq"](), ThresholdQuery(2.0)),
    "oaq": lambda: oaq(INSTANCE_FOR["oaq"](), ThresholdQuery(2.0)),
    "oaq_m": lambda: oaq_m(INSTANCE_FOR["oaq_m"](), 2.0),
    "crad": lambda: crad(INSTANCE_FOR["crad"](), ThresholdQuery(2.0)),
    "crcd": lambda: crcd(INSTANCE_FOR["crcd"](), ThresholdQuery(2.0)),
    "crp2d": lambda: crp2d(INSTANCE_FOR["crp2d"](), ThresholdQuery(2.0)),
    "clairvoyant": lambda: clairvoyant(INSTANCE_FOR["avrq"](), 2.0),
    "measure": lambda: measure("avrq", INSTANCE_FOR["avrq"](), 3.0),
    "measure_many": lambda: measure_many("avrq", [INSTANCE_FOR["avrq"]()], 3.0),
    "SpeedProfile.from_breakpoints": lambda: SpeedProfile.from_breakpoints(
        [0.0, 1.0, 3.0], speeds=[2.0, 1.0]
    ),
}


class TestRegistry:
    def test_covers_every_entry_point(self):
        assert set(ALGORITHMS) == set(INSTANCE_FOR)

    def test_specs_are_consistent(self):
        for name, spec in ALGORITHMS.items():
            assert spec.name == name
            assert spec.setting in {"offline", "online", "multi"}
            assert spec.accepts <= {"alpha", "query_policy", "split_policy"}
            assert spec.summary

    @pytest.mark.parametrize("name", sorted(INSTANCE_FOR))
    def test_dispatch_by_name_runs(self, name):
        result = run_algorithm(name, INSTANCE_FOR[name]())
        assert result.validate().ok

    def test_uniform_signatures_keyword_only(self):
        # Past the instance, every parameter of every registered runner
        # is keyword-only.
        for spec in ALGORITHMS.values():
            params = list(inspect.signature(spec.fn).parameters.values())
            assert params[0].kind in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
            for p in params[1:]:
                assert p.kind is inspect.Parameter.KEYWORD_ONLY, (
                    f"{spec.name}.{p.name} is not keyword-only"
                )

    def test_unknown_name_lists_registry(self):
        with pytest.raises(KeyError, match="bkpq"):
            get_algorithm("nope")

    def test_rejects_unsupported_keyword(self):
        qi = INSTANCE_FOR["avrq"]()
        with pytest.raises(TypeError, match="does not accept"):
            run_algorithm("avrq", qi, query_policy=ThresholdQuery(2.0))

    def test_keywords_reach_the_algorithm(self):
        qi = INSTANCE_FOR["avrq"]()
        default = run_algorithm("avrq", qi)
        skewed = run_algorithm("avrq", qi, split_policy=FixedSplit(0.25))
        assert default.profile != skewed.profile

    def test_measure_accepts_registry_names(self):
        qi = INSTANCE_FOR["bkpq"]()
        by_name = measure("bkpq", qi, alpha=3.0)
        by_callable = measure(bkpq, qi, alpha=3.0)
        assert by_name.energy_ratio == by_callable.energy_ratio
        m = measure("oaq_m", INSTANCE_FOR["oaq_m"](), alpha=2.5)
        assert m.energy_ratio >= 1.0

    def test_verify_causality_dispatches_through_registry(self):
        qi = generators.online_instance(5, seed=3)
        assert verify_causality(qi, "avrq")
        assert verify_causality(qi, "bkpq")
        with pytest.raises(KeyError):
            verify_causality(qi, "not-an-algorithm")

    def test_replay_refuses_non_causal_algorithms(self):
        qi = generators.online_instance(4, seed=0)
        with pytest.raises(ValueError, match="replay"):
            incremental_profile(qi, "oaq")


class TestDeprecationShims:
    """The 1.1 positional forms are gone: only keywords reach the options."""

    def test_shared_default_alpha_is_consistent(self):
        from repro.core.constants import DEFAULT_ALPHA

        for fn in (clairvoyant, oaq_m):
            sig = inspect.signature(fn)
            assert sig.parameters["alpha"].default == DEFAULT_ALPHA
        assert (
            inspect.signature(measure).parameters["alpha"].default
            == DEFAULT_ALPHA
        )

    @pytest.mark.parametrize("entry", sorted(ONE_POSITIONAL_TOO_MANY))
    def test_too_many_positionals_is_a_type_error(self, entry):
        with pytest.raises(TypeError, match="positional"):
            ONE_POSITIONAL_TOO_MANY[entry]()
