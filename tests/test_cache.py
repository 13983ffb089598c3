"""Tests for the persistent, content-addressed analysis cache.

Three properties matter, in this order:

1. **Transparency** — a cached sweep (cold or warm) is byte-identical to
   an uncached one; ``clear_caches()`` between sweeps changes nothing.
2. **Key injectivity** — any perturbation of the kernel IR, the analysis
   parameters or the machine model changes the key, while reformatting
   (a printer→parser round-trip) does not.  The canonical form is
   ``region_to_text``, so the printer-fixpoint tests in
   ``test_ir_parser.py`` are load-bearing for this file.
3. **Corruption safety** — truncated, garbage or mismatched entries are
   invalidations (recompute + overwrite), never wrong answers.

The store holds sweep results only (``sim.measure``, ``model.predict``):
the compiled record already keeps each region's static analyses.
"""

import dataclasses
import json
import os
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import ProgramAttributeDatabase
from repro.experiments.common import clear_caches, measure_suite, predict_suite
from repro.ir import parse_region, region_to_text
from repro.machines import POWER9
from repro.mca import steady_state_cycles
from repro.parallel import (
    AnalysisCache,
    NULL_CACHE,
    compute_key,
    current_cache,
    machine_fingerprint,
)
from repro.polybench import SUITE

from .kernels import build_gemm, build_vecadd
from .test_parallel import canon_measurements, canon_predictions
from .test_property_regions import regions


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


def run_sweep():
    return canon_measurements(
        measure_suite("p9-v100", "test")
    ) + canon_predictions(predict_suite("p9-v100", "test"))


def region_key(region, machine=None):
    """A content key over a region's canonical text, the result kinds' region part."""
    return compute_key("sim.measure", region_to_text(region), machine)


# ---------------------------------------------------------------------------
# Transparency: cached sweeps are byte-identical to uncached ones
# ---------------------------------------------------------------------------


class TestTransparency:
    def test_cold_and_warm_sweeps_bitwise_identical(self, tmp_path):
        baseline = run_sweep()

        clear_caches()
        cold_cache = AnalysisCache(str(tmp_path))
        with cold_cache.activate():
            cold = run_sweep()
        assert cold == baseline
        assert cold_cache.misses > 0 and cold_cache.writes > 0

        clear_caches(persistent=False)  # keep the disk entries
        warm_cache = AnalysisCache(str(tmp_path))
        with warm_cache.activate():
            warm = run_sweep()
        assert warm == baseline
        assert warm_cache.hits > 0
        assert warm_cache.misses == 0

    def test_default_cache_is_disabled(self):
        assert current_cache() is NULL_CACHE
        assert not current_cache().enabled

    def test_activation_nests_and_restores(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        with cache.activate():
            assert current_cache() is cache
        assert current_cache() is NULL_CACHE

    def test_clear_caches_also_clears_persistent_entries(self, tmp_path):
        """Satellite: two ``clear_caches()``-separated sweeps stay
        bit-identical, and the second genuinely recomputes."""
        cache = AnalysisCache(str(tmp_path))
        with cache.activate():
            first = run_sweep()
            assert cache.entry_count() > 0
            clear_caches()
            assert cache.entry_count() == 0
            second = run_sweep()
            assert cache.misses > 0  # recomputed, not replayed
        assert first == second

    def test_clear_caches_can_keep_persistent_entries(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        with cache.activate():
            run_sweep()
            entries = cache.entry_count()
            assert entries > 0
            clear_caches(persistent=False)
            assert cache.entry_count() == entries

    def test_static_analyses_stay_out_of_the_store(self, tmp_path):
        """Compiling the suite and scheduling its bands touch no entry."""
        cache = AnalysisCache(str(tmp_path))
        with cache.activate():
            db = ProgramAttributeDatabase()
            for spec in SUITE:
                for region in spec.build():
                    level = db.compile_region(region).band_level(POWER9)
                    steady_state_cycles(
                        level.leaf_ops, POWER9, carried_regs=level.carried
                    )
        assert len(db) == 24
        assert cache.entry_count() == 0
        assert (cache.hits, cache.misses, cache.writes) == (0, 0, 0)


# ---------------------------------------------------------------------------
# Key properties
# ---------------------------------------------------------------------------


class TestKeyStability:
    @settings(max_examples=25, deadline=None)
    @given(regions())
    def test_printer_parser_roundtrip_preserves_key(self, region):
        rt = parse_region(region_to_text(region))
        assert region_key(rt) == region_key(region)
        assert region_key(rt, POWER9) == region_key(region, POWER9)

    def test_key_is_stable_across_processes_by_construction(self):
        # pure function of content: same inputs, same key, every call
        a = compute_key("kind", {"x": 1, "y": [2, 3]}, POWER9)
        b = compute_key("kind", {"y": [2, 3], "x": 1}, POWER9)
        assert a == b

    def test_tuple_and_list_payloads_canonicalize_together(self):
        assert compute_key("k", (1, 2, 3)) == compute_key("k", [1, 2, 3])

    def test_sweep_result_keys_keep_their_bytes(self, tmp_path):
        """The first p9-v100/test case's two result keys, literally.

        A different key orphans every existing cache directory, so a
        change to the key computation must leave these bytes alone.
        """
        with AnalysisCache(str(tmp_path)).activate():
            measure_suite("p9-v100", "test", jobs=1)
            predict_suite("p9-v100", "test", jobs=1)
        kinds = {
            path.stem: json.loads(path.read_text())["kind"]
            for path in tmp_path.glob("*/*.json")
        }
        measure = "591e66ac74f374f87beae9016b20e8c993fa70dd6d7ec05779fcb3daa653a220"
        predict = "0abfe013b01d982889f535670b3530c8751645e8dfdf2c80f788eac3006779a9"
        assert kinds[measure] == "sim.measure"
        assert kinds[predict] == "model.predict"


class TestKeyInjectivity:
    def test_different_kernels_different_keys(self):
        assert region_key(build_gemm()) != region_key(build_vecadd())

    def test_node_mutation_changes_key(self):
        base = build_gemm()
        text = region_to_text(base)
        mutated_text = text.replace("[nk]", "[nz]")
        assert mutated_text != text
        mutated = parse_region(mutated_text)
        assert region_key(mutated) != region_key(base)

    def test_kind_is_part_of_the_key(self):
        assert compute_key("sim.measure", "x") != compute_key(
            "model.predict", "x"
        )

    @settings(max_examples=30, deadline=None)
    @given(
        field=st.sampled_from(
            [
                "cores",
                "smt",
                "frequency_ghz",
                "dispatch_width",
                "l1_latency",
                "dram_latency",
                "vector_width_bits",
            ]
        ),
        delta=st.integers(min_value=1, max_value=64),
    )
    def test_machine_perturbation_changes_fingerprint(self, field, delta):
        perturbed = dataclasses.replace(
            POWER9, **{field: getattr(POWER9, field) + delta}
        )
        assert machine_fingerprint(perturbed) != machine_fingerprint(POWER9)
        assert compute_key("k", "p", perturbed) != compute_key(
            "k", "p", POWER9
        )

    def test_port_count_perturbation_changes_fingerprint(self):
        ports = dict(POWER9.ports)
        ports["LS"] += 1
        perturbed = dataclasses.replace(
            POWER9, ports=MappingProxyType(ports)
        )
        assert machine_fingerprint(perturbed) != machine_fingerprint(POWER9)

    @settings(max_examples=20, deadline=None)
    @given(
        warmup=st.integers(min_value=1, max_value=8),
        measure=st.integers(min_value=1, max_value=32),
    )
    def test_schedule_parameters_are_part_of_the_key(self, warmup, measure):
        payload = {"warmup": warmup, "measure": measure}
        base = {"warmup": 4, "measure": 16}
        keys_equal = compute_key("mca", payload) == compute_key("mca", base)
        assert keys_equal == (payload == base)


# ---------------------------------------------------------------------------
# Corruption: a damaged entry is a miss, never a wrong answer
# ---------------------------------------------------------------------------


def _entry_files(cache_dir):
    out = []
    for root, _, names in os.walk(cache_dir):
        out.extend(
            os.path.join(root, n) for n in names if n.endswith(".json")
        )
    return sorted(out)


class TestCorruption:
    def _populate(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        value = cache.get_or_compute("k", {"p": 1}, None, lambda: [1, 2, 3])
        assert value == [1, 2, 3]
        (path,) = _entry_files(tmp_path)
        return path

    def _reread(self, tmp_path):
        # a *fresh* instance, so the in-memory layer cannot mask the disk
        cache = AnalysisCache(str(tmp_path))
        value = cache.get_or_compute("k", {"p": 1}, None, lambda: [1, 2, 3])
        return cache, value

    def test_truncated_entry_is_invalidated(self, tmp_path):
        path = self._populate(tmp_path)
        raw = open(path).read()
        open(path, "w").write(raw[: len(raw) // 2])
        cache, value = self._reread(tmp_path)
        assert value == [1, 2, 3]
        assert cache.invalidations == 1 and cache.misses == 1

    def test_garbage_entry_is_invalidated(self, tmp_path):
        path = self._populate(tmp_path)
        open(path, "wb").write(b"\x00\xff not json \xfe")
        cache, value = self._reread(tmp_path)
        assert value == [1, 2, 3]
        assert cache.invalidations == 1

    def test_schema_mismatch_is_invalidated(self, tmp_path):
        path = self._populate(tmp_path)
        entry = json.loads(open(path).read())
        entry["schema"] = 999
        open(path, "w").write(json.dumps(entry))
        cache, value = self._reread(tmp_path)
        assert value == [1, 2, 3]
        assert cache.invalidations == 1

    def test_version_mismatch_is_invalidated(self, tmp_path):
        path = self._populate(tmp_path)
        entry = json.loads(open(path).read())
        entry["version"] = "0.0.0"
        open(path, "w").write(json.dumps(entry))
        cache, value = self._reread(tmp_path)
        assert value == [1, 2, 3]
        assert cache.invalidations == 1

    def test_key_mismatch_is_invalidated(self, tmp_path):
        # an entry copied under the wrong address must not be served
        path = self._populate(tmp_path)
        entry = json.loads(open(path).read())
        entry["key"] = "0" * 64
        open(path, "w").write(json.dumps(entry))
        cache, value = self._reread(tmp_path)
        assert value == [1, 2, 3]
        assert cache.invalidations == 1

    def test_validator_rejection_is_invalidated(self, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        cache.get_or_compute("k", "p", None, lambda: "wrong-shape")
        fresh = AnalysisCache(str(tmp_path))
        value = fresh.get_or_compute(
            "k",
            "p",
            None,
            lambda: 42,
            validate=lambda v: isinstance(v, int),
        )
        assert value == 42
        assert fresh.invalidations == 1
        # the overwrite sticks: next read hits with the valid value
        again = AnalysisCache(str(tmp_path))
        assert (
            again.get_or_compute(
                "k", "p", None, lambda: 0,
                validate=lambda v: isinstance(v, int),
            )
            == 42
        )
        assert again.hits == 1

    def test_corrupt_entry_is_overwritten(self, tmp_path):
        path = self._populate(tmp_path)
        open(path, "w").write("garbage")
        self._reread(tmp_path)
        entry = json.loads(open(path).read())
        assert entry["value"] == [1, 2, 3]

    def test_sweep_survives_torn_entries(self, tmp_path):
        baseline = run_sweep()
        clear_caches()
        with AnalysisCache(str(tmp_path)).activate():
            assert run_sweep() == baseline
        paths = _entry_files(tmp_path)
        assert paths
        for path in paths:
            open(path, "w").write("}{ torn write")
        clear_caches(persistent=False)  # keep the torn entries
        fresh = AnalysisCache(str(tmp_path))
        with fresh.activate():
            assert run_sweep() == baseline
        assert fresh.invalidations >= 1
