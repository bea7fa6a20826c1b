"""Spec validation, deterministic expansion, and TOML/JSON loading."""

import json
import pathlib

import pytest

from repro.experiments import (
    EngineSpec,
    ExperimentSpec,
    GateRule,
    ReducerSpec,
    ScaleSpec,
    expand,
    load_spec,
    spec_from_dict,
    spec_to_dict,
)
from repro.kinds import IndexKind

pytestmark = pytest.mark.experiments

REPO = pathlib.Path(__file__).resolve().parents[2]
SPEC_DIR = REPO / "benchmarks" / "specs"


class TestValidation:
    def test_name_must_be_bare_token(self):
        with pytest.raises(ValueError, match="bare token"):
            ExperimentSpec(name="has space")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            ExperimentSpec(name="x", workloads=("nope",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            ExperimentSpec(name="x", reducers=())

    def test_scale_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            ScaleSpec("nano", length=4)

    def test_unknown_archive_dataset_refused_when_the_spec_loads(self):
        with pytest.raises(ValueError, match="unknown archive dataset 'Adiak'"):
            spec_from_dict({"name": "x", "scales": [{"name": "a", "dataset": "Adiak"}]})

    def test_engine_fsync_policy_checked(self):
        with pytest.raises(ValueError, match="fsync"):
            EngineSpec(fsync="sometimes")

    def test_gate_direction_checked(self):
        with pytest.raises(ValueError, match="increase/decrease"):
            GateRule("m", 10.0, direction="sideways")

    def test_gate_workload_checked(self):
        with pytest.raises(ValueError, match="unknown workload"):
            GateRule("m", 10.0, workload="nope")


class TestExpand:
    def test_deterministic(self, tiny_spec):
        assert expand(tiny_spec) == expand(tiny_spec)

    def test_matrix_size_and_order(self, tiny_spec):
        trials = expand(tiny_spec)
        # 2 workloads x 1 scale x 1 reducer x 1 index x 1 engine x 2 repeats
        assert len(trials) == 4
        assert [t.index for t in trials] == [0, 1, 2, 3]
        assert [t.workload for t in trials] == ["batch_knn"] * 2 + ["pruning"] * 2

    def test_repeats_share_cell_seed(self, tiny_spec):
        first, second, third, _ = expand(tiny_spec)
        assert first.seed == second.seed
        assert first.cell_key == second.cell_key
        assert third.seed != first.seed  # distinct cells, distinct streams

    def test_cell_key_names_every_axis(self, tiny_spec):
        trial = expand(tiny_spec)[0]
        assert trial.cell_key == "batch_knn|tiny|PAA-4|none|k2-auto"
        axes = trial.axes()
        assert axes["method"] == "PAA" and axes["index_kind"] == "none"


class TestSerialisation:
    def test_dict_round_trip(self, tiny_spec):
        assert spec_from_dict(spec_to_dict(tiny_spec)) == tiny_spec

    def test_unknown_key_rejected(self, tiny_spec):
        payload = spec_to_dict(tiny_spec)
        payload["typo"] = 1
        with pytest.raises(ValueError, match="unknown spec keys"):
            spec_from_dict(payload)

    def test_bad_axis_entry_rejected(self, tiny_spec):
        payload = spec_to_dict(tiny_spec)
        payload["reducers"] = [{"method": "PAA", "typo": 9}]
        with pytest.raises(ValueError, match="bad reducers entry"):
            spec_from_dict(payload)

    def test_load_json(self, tiny_spec, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(tiny_spec)))
        assert load_spec(path) == tiny_spec

    def test_load_toml(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "t"\nworkloads = ["pruning"]\nindexes = ["dbch"]\n'
            '[[scales]]\nname = "s"\nlength = 32\nn_series = 8\nn_queries = 2\n'
            '[[reducers]]\nmethod = "PAA"\ncoefficients = 4\n'
            "[[engines]]\nk = 2\n"
        )
        spec = load_spec(path)
        assert spec.indexes == (IndexKind.DBCH,)
        assert spec.reducers == (ReducerSpec("PAA", 4),)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: x")
        with pytest.raises(ValueError, match=".toml or .json"):
            load_spec(path)

    @pytest.mark.parametrize("name", sorted(p.name for p in SPEC_DIR.glob("*.toml")))
    def test_committed_specs_parse(self, name):
        spec = load_spec(SPEC_DIR / name)
        assert spec.gates  # every committed spec carries regression gates
        assert expand(spec)

    def test_committed_bench_files_carry_a_spec_that_parses(self):
        """A committed ``BENCH_*.json`` must still name a spec the service
        accepts, or ``experiment diff`` cannot use it as a baseline."""
        paths = sorted(REPO.glob("BENCH_*.json"))
        assert paths
        for path in paths:
            spec = spec_from_dict(json.loads(path.read_text())["spec"])
            assert path.name == f"BENCH_{spec.name}.json"
