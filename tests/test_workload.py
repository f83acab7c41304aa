import dataclasses
import json
import math
from fractions import Fraction

import pytest

from conftest import (SCENARIO_DIR, F, make_catalog, make_request, make_snapshot, make_topo,
                      single_topo)
from sfcsim.engine import MalformedScenario, run
from sfcsim.scenario import load_scenario
from sfcsim.solver import GreedySolver
from sfcsim.workload import (VnfCatalog, VnfTemplate, catalog_from_json,
                             catalog_to_json, validate_workload,
                             workload_from_json, workload_to_json)


@pytest.fixture
def topo():
    return single_topo(make_snapshot(3, [(0, 1), (1, 2)]))


@pytest.fixture
def catalog():
    return make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)], [(0, 1, 20)])


class TestCatalog:
    def test_band_demand_is_symmetric(self, catalog):
        assert catalog.band_demand(0, 1) == catalog.band_demand(1, 0) == F(20)

    def test_unknown_pair_is_none(self, catalog):
        assert catalog.band_demand(0, 2) is None

    def test_duplicate_template_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VnfCatalog([VnfTemplate(0, F(1), F(1)), VnfTemplate(0, F(2), F(2))])

    def test_demand_must_reference_templates(self, catalog):
        with pytest.raises(ValueError, match="unknown template"):
            catalog.add_link_demand(0, 9, 10)

    def test_conflicting_link_demand_rejected(self, catalog):
        catalog.add_link_demand(1, 0, 20)  # the same demand again is accepted
        with pytest.raises(ValueError) as err:
            catalog.add_link_demand(1, 0, 25)
        assert str(err.value) == "conflicting demand for template pair (0, 1)"
        assert catalog.band_demand(0, 1) == F(20)

    def test_nonpositive_demands_rejected(self):
        with pytest.raises(ValueError):
            VnfTemplate(0, F(0), F(64))
        with pytest.raises(ValueError):
            VnfTemplate(0, F(1), F(-4))
        cat = VnfCatalog([VnfTemplate(0, F(1), F(1))])
        with pytest.raises(ValueError, match="> 0"):
            cat.add_link_demand(0, 0, 0)

    def test_demands_are_read_as_a_scenario_file_reads_them(self):
        # A float used to stay a float: 0.3 became 5404319552844595/2**54 in
        # the solver's units, or crashed it.
        t = VnfTemplate(0, 0.3, 64)
        assert (t.cpu_demand, t.ram_demand) == (Fraction(3, 10), Fraction(64))
        assert type(t.cpu_demand) is type(t.ram_demand) is Fraction
        assert VnfTemplate(0, "5/7", F(1)).cpu_demand == Fraction(5, 7)

    def test_numpy_numbers_are_exact_quantities(self):
        np = pytest.importorskip("numpy")  # a test tool only; the runtime is stdlib
        t = VnfTemplate(0, np.int64(2), np.float64(0.3))
        assert (t.cpu_demand, t.ram_demand) == (Fraction(2), Fraction(3, 10))
        assert type(t.cpu_demand) is Fraction


class TestValidateWorkload:
    def test_defined_chain_passes(self, topo, catalog):
        req = make_request(chain=(0, 1), egress=2, end=5.0)
        assert validate_workload([req], catalog, topo).ok

    def test_summary_of_a_valid_workload(self, topo, catalog):
        reqs = [make_request(sfc_id=i, chain=(0, 1), egress=2) for i in range(3)]
        assert validate_workload(reqs, catalog, topo).summary() == "3 requests, all valid"

    def test_missing_link_demand(self, topo, catalog):
        req = make_request(chain=(0, 2))
        report = validate_workload([req], catalog, topo)
        assert [i.reason for i in report.issues] == ["MissingLinkDemand"]

    def test_inverted_lifecycle(self, topo, catalog):
        req = make_request(start=30.0, end=5.0, chain=(0,))
        report = validate_workload([req], catalog, topo)
        assert [i.reason for i in report.issues] == ["BadLifecycle"]

    def test_start_before_topology(self, catalog):
        topo = single_topo(make_snapshot(2, [(0, 1)]), t0=100.0)
        report = validate_workload([make_request(start=5.0, end=50.0)], catalog, topo)
        assert [i.reason for i in report.issues] == ["BadLifecycle"]

    @pytest.mark.parametrize("start, end", [(math.nan, 5.0), (1.0, math.inf),
                                            (math.nan, math.nan)])
    def test_non_finite_lifecycle(self, topo, catalog, start, end):
        report = validate_workload([make_request(start=start, end=end)], catalog, topo)
        assert [i.reason for i in report.issues] == ["BadLifecycle"]

    @pytest.mark.parametrize("qos", [math.nan, math.inf])
    def test_non_finite_qos(self, topo, catalog, qos):
        report = validate_workload([make_request(qos=qos)], catalog, topo)
        assert [i.reason for i in report.issues] == ["BadQos"]

    def test_unknown_vnf(self, topo, catalog):
        report = validate_workload([make_request(chain=(0, 77))], catalog, topo)
        assert [i.reason for i in report.issues] == ["UnknownVnf"]

    def test_bad_endpoint_and_qos(self, topo, catalog):
        req = make_request(ingress=9, qos=0.0)
        reasons = {i.reason for i in validate_workload([req], catalog, topo).issues}
        assert reasons == {"BadEndpoint", "BadQos"}

    def test_duplicate_sfc_id(self, topo, catalog):
        reqs = [make_request(sfc_id=4), make_request(sfc_id=4)]
        reasons = [i.reason for i in validate_workload(reqs, catalog, topo).issues]
        assert "DuplicateSfcId" in reasons

    @pytest.mark.parametrize("field, value, reason", [
        ("sfc_id", 1.5, "BadSfcId"),            # used to run, writing 1.5 into events.csv
        ("sfc_id", [1], "BadSfcId"),            # unhashable: TypeError at `in seen`
        ("start_time", "0", "BadLifecycle"),
        ("start_time", True, "BadLifecycle"),   # used to validate as time 1
        ("end_time", None, "BadLifecycle"),
        ("qos_max_latency", None, "BadQos"),
        ("vnf_chain", ([0], 1), "UnknownVnf"),
        ("vnf_chain", (0, 1.0, 2), "UnknownVnf"),  # 1.0 == 1 used to find template 1
    ])
    def test_a_field_of_the_wrong_kind_is_an_issue(self, field, value, reason):
        # The Python API is held to the JSON readers' kinds: a TypeError used
        # to escape validate_workload, or the value ran as another one.
        sc = load_scenario(SCENARIO_DIR / "example_a.json")
        requests = [dataclasses.replace(sc.requests[0], **{field: value}), *sc.requests[1:]]
        report = validate_workload(requests, sc.catalog, sc.topo)
        assert [i.reason for i in report.issues] == [reason]
        with pytest.raises(MalformedScenario, match=reason):
            run(sc.topo, requests, sc.catalog, GreedySolver())

    def test_summary_names_the_sfc(self, topo, catalog):
        report = validate_workload([make_request(sfc_id=13, chain=(0, 2))], catalog, topo)
        assert "sfc 13" in report.summary()
        assert "MissingLinkDemand" in report.summary()


class TestJson:
    def test_catalog_round_trip(self, catalog):
        back = catalog_from_json(catalog_to_json(catalog))
        assert back.templates.keys() == catalog.templates.keys()
        assert back.templates[0].cpu_demand == F(0.2)
        assert back.link_band_demand == catalog.link_band_demand

    def test_non_decimal_fractions_round_trip(self):
        # A float written for 1/3 read back as 3333333333333333/10**16, and
        # one for 5/7 as a little more than 5/7: seven such VNFs then no
        # longer fitted a capacity-5 node.
        cat = VnfCatalog([VnfTemplate(0, Fraction(5, 7), F(64)),
                          VnfTemplate(1, F(0.3), Fraction(1, 3))])
        cat.add_link_demand(0, 1, Fraction(1, 3))
        doc = json.loads(json.dumps(catalog_to_json(cat)))
        assert doc["templates"] == [{"id": 0, "cpu": "5/7", "ram_mb": 64},
                                    {"id": 1, "cpu": 0.3, "ram_mb": "1/3"}]
        assert doc["links"] == [{"a": 0, "b": 1, "band_mbps": "1/3"}]
        back = catalog_from_json(doc)
        assert back.templates == cat.templates
        assert back.link_band_demand == cat.link_band_demand
        assert 7 * back.templates[0].cpu_demand <= 5

    def test_workload_round_trip(self, catalog):
        reqs = [make_request(sfc_id=1, start=5, end=25, ingress=0, egress=2,
                             chain=(0, 1), qos=50.0)]
        back_reqs, back_cat = workload_from_json(workload_to_json(reqs, catalog))
        assert back_reqs == reqs
        assert back_cat.link_band_demand == catalog.link_band_demand
