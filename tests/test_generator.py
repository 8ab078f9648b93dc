import pytest

from concurflow.generator import CAP_RANGE, GenerationError, generate_instance
from concurflow.instance_io import parse_instance, serialize_instance


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = serialize_instance(generate_instance(1, 6, 9, 2, 4))
        b = serialize_instance(generate_instance(1, 6, 9, 2, 4))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize_instance(generate_instance(1, 6, 9, 2, 4))
        b = serialize_instance(generate_instance(2, 6, 9, 2, 4))
        assert a != b

    def test_seed_recorded(self):
        inst = generate_instance(7, 6, 9, 2, 4)
        assert inst.seed == 7
        assert inst.name == "gen-7"


class TestShape:
    @pytest.mark.parametrize("seed", range(5))
    def test_parameter_compliance(self, seed):
        k, max_paths = 3, 5
        inst = generate_instance(seed, 7, 12, k, max_paths, bound_range=(0.5, 3.0))
        net = inst.network
        assert len(net.nodes) == 7
        assert len(net.edges) == 12
        assert net.k == k
        for edge in net.edges:
            assert CAP_RANGE[0] <= edge.capacity <= CAP_RANGE[1]
        for com in net.commodities:
            assert 0.5 <= com.bound <= 3.0
        for group in inst.path_system.paths:
            assert 1 <= len(group) <= max_paths
        assert inst.path_system.path_count <= k * max_paths

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trips_through_parser(self, seed):
        inst = generate_instance(seed, 6, 10, 2, 4)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text

    def test_failure_on_impossible_request(self):
        # Two nodes cannot host three distinct connected ordered pairs.
        with pytest.raises(GenerationError):
            generate_instance(0, 2, 1, 3, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_instance(0, 1, 3, 1, 2)
        with pytest.raises(ValueError):
            generate_instance(0, 4, 0, 1, 2)
        with pytest.raises(ValueError):
            generate_instance(0, 4, 3, 1, 2, bound_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            generate_instance(0, 4, 3, 1, 2, bound_range=(2.0, 1.0))

    @pytest.mark.parametrize(
        "sizes", [(8.5, 14, 3, 6), (8, 14.0, 3, 6), (8, 14, 2.5, 6), (8, 14, 3, 2.5), (8, 14, 3, 6.0)]
    )
    def test_size_parameters_must_be_integers(self, sizes):
        # A non-integer path cap never meets the enumeration's limit: 2.5
        # paths per commodity yielded every path, 3/9/13 of them here.
        with pytest.raises(ValueError, match="^all size parameters must be positive integers, got "):
            generate_instance(3, *sizes)
