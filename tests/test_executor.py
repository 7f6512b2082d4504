"""RunSpec / ParallelExecutor / ResultCache behaviour.

Covers the executor redesign's contracts: spec identity (hashing,
digests, serialisation), deterministic parallel merges (serial and
``--jobs N`` byte-identical), cache hit/miss/invalidation, and worker
crashes surfacing as :class:`ExecutorError` without losing the rest of
the batch.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.executor import (
    ExecutorError,
    ParallelExecutor,
    ResultCache,
    _tasks,
    code_version,
)
from repro.experiments.runner import CORE_POLICIES, ExperimentRunner
from repro.experiments.runspec import RunSpec
from repro.mmu.simulator import SANITIZE_ENV
from repro.obs.config import EventConfig
from repro.policies.registry import register_policy
from repro.workloads.parsec import WORKLOAD_NAMES

#: Tiny rendering scale so each simulation stays in the millisecond
#: range; identity/caching/merge semantics do not depend on scale.
SCALE = dict(request_scale=1 / 4000, footprint_scale=1 / 256)

#: Parallel width used by the pool tests; CI raises it via the
#: environment to exercise the executor with real concurrency.
JOBS = int(os.environ.get("REPRO_TEST_JOBS", "2"))


def small(workload="dedup", policy="proposed", **kwargs):
    return RunSpec.core(workload, policy, **SCALE, **kwargs)


class _AlwaysCrash:
    """Policy factory that dies on construction, in any process."""

    def __call__(self, mm):
        raise RuntimeError("injected crash")


@pytest.fixture
def crashy_policy():
    """Temporarily register a policy that crashes on construction.

    Pool workers are forked at submit time, so they inherit the live
    registry entry and the crash happens worker-side.  The entry is
    removed afterwards — other tests iterate ``available_policies()``
    and must not trip over it.
    """
    from repro.policies import registry

    register_policy("test-crashy", _AlwaysCrash())
    yield "test-crashy"
    registry._FACTORIES.pop("test-crashy", None)


# ----------------------------------------------------------------------
# RunSpec identity
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_mapping_and_tuple_overrides_are_equal(self):
        by_mapping = RunSpec("dedup", policy_overrides={
            "read_threshold": 4, "write_threshold": 2})
        by_tuple = RunSpec("dedup", policy_overrides=(
            ("write_threshold", 2), ("read_threshold", 4)))
        assert by_mapping == by_tuple
        assert hash(by_mapping) == hash(by_tuple)
        assert by_mapping.digest() == by_tuple.digest()

    def test_digest_differs_across_fields(self):
        base = small()
        assert base.digest() != small(policy="clock-dwf").digest()
        assert base.digest() != small(seed=7).digest()
        assert base.digest() != small(
            policy_overrides={"read_threshold": 9}).digest()

    def test_round_trips_through_json(self):
        spec = small(policy="nvm-only",
                     policy_overrides={}, warmup_fraction=0.25)
        rebuilt = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()

    def test_core_derives_single_module_transforms(self):
        assert small(policy="dram-only").spec_transform == ("dram-only",)
        assert small(policy="nvm-only").spec_transform == ("nvm-only",)
        assert small(policy="proposed").spec_transform == ()

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError, match="unknown spec transform"):
            RunSpec("dedup", spec_transform=("bogus",))

    def test_warmup_fraction_validated(self):
        with pytest.raises(ValueError):
            RunSpec("dedup", warmup_fraction=1.0)

    def test_specs_are_pool_and_dict_ready(self):
        import pickle

        spec = small(policy_overrides={"read_threshold": 4})
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert {spec: 1}[spec] == 1


# ----------------------------------------------------------------------
# RunResult serialisation
# ----------------------------------------------------------------------
class TestRunResultRoundTrip:
    def test_json_round_trip_is_exact(self):
        from repro.mmu.simulator import RunResult

        result = small().execute()
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = RunResult.from_dict(payload)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.summary() == result.summary()
        # wear histogram keys survive the str round-trip JSON forces
        assert rebuilt.wear.page_writes == result.wear.page_writes
        assert all(isinstance(page, int)
                   for page in rebuilt.wear.page_writes)


# ----------------------------------------------------------------------
# Executor semantics
# ----------------------------------------------------------------------
GRID = [small(workload, policy)
        for workload in ("dedup", "raytrace")
        for policy in ("proposed", "clock-dwf", "dram-only")]


#: Runs a cache-less spec list serially twice in one process, the
#: second pass in reverse order, and prints both passes' ``to_dict``s.
_RERUN_SCRIPT = """
import json

from repro.experiments.executor import ParallelExecutor
from repro.experiments.runspec import RunSpec

specs = [RunSpec.core(workload, policy, engine=engine,
                      request_scale=1 / 4000, footprint_scale=1 / 256)
         for workload in ("dedup", "raytrace")
         for policy, engine in (("proposed", "simulate"),
                                ("eager-migration", "simulate"),
                                ("clock-dwf", "simulate"),
                                ("proposed", "analytic"))]
first = ParallelExecutor(jobs=1).submit(specs)
second = ParallelExecutor(jobs=1).submit(specs[::-1])[::-1]
print(json.dumps([[r.to_dict() for r in first],
                  [r.to_dict() for r in second]]))
"""

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


class TestParallelExecutor:
    def test_parallel_matches_serial_exactly(self):
        serial = ParallelExecutor(jobs=1).submit(GRID)
        parallel = ParallelExecutor(jobs=JOBS).submit(GRID)
        for one, other in zip(serial, parallel):
            assert one.to_dict() == other.to_dict()
            assert json.dumps(one.summary(), sort_keys=True) == \
                json.dumps(other.summary(), sort_keys=True)

    def test_duplicates_simulated_once(self):
        executor = ParallelExecutor(jobs=1)
        spec = small()
        results = executor.submit([spec, spec, spec])
        assert executor.stats.simulated == 1
        assert results[0] is results[1] is results[2]

    def test_progress_reports_every_spec(self):
        seen = []
        executor = ParallelExecutor(
            jobs=1, progress=lambda done, total, spec:
            seen.append((done, total, spec)))
        executor.submit(GRID[:3])
        assert [done for done, _, _ in seen] == [1, 2, 3]
        assert all(total == 3 for _, total, _ in seen)
        assert {spec for _, _, spec in seen} == set(GRID[:3])

    def test_crash_surfaces_after_batch_completes(self, crashy_policy):
        crashing = RunSpec("dedup", policy=crashy_policy, **SCALE)
        batch = GRID[:3] + [crashing]
        executor = ParallelExecutor(jobs=JOBS)
        with pytest.raises(ExecutorError) as excinfo:
            executor.submit(batch)
        error = excinfo.value
        # the three healthy specs completed despite the crash ...
        assert set(error.results) == set(GRID[:3])
        assert [failure.spec for failure in error.failures] == [crashing]
        assert "injected crash" in error.failures[0].traceback
        # ... and the crash was retried before being reported
        assert executor.stats.retries >= 1
        assert executor.stats.failures == 1

    def test_serial_rerun_in_reverse_order_is_identical(self):
        # Per-process state (rendered-workload and profile caches, the
        # policy registry) must never leak from one run into another:
        # a second serial pass in reverse order gives every spec a
        # different predecessor, so any run that reads state an earlier
        # run wrote diverges.  A fresh interpreter makes the check
        # independent of what earlier tests left in this process.
        done = subprocess.run(
            [sys.executable, "-c", _RERUN_SCRIPT],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, (SRC_ROOT, os.environ.get("PYTHONPATH"))))},
            capture_output=True, text=True, timeout=300, check=True)
        first, second = json.loads(done.stdout.strip().splitlines()[-1])
        assert len(first) == len(second) == 8
        for one, other in zip(first, second):
            assert one == other


# ----------------------------------------------------------------------
# Pool tasks: one per rendered instance
# ----------------------------------------------------------------------
#: One workload, eight specs: the four core policies plus four
#: threshold settings of the proposed scheme.
ONE_WORKLOAD = [small("raytrace", policy) for policy in CORE_POLICIES] + [
    small("raytrace", policy_overrides={"read_threshold": threshold})
    for threshold in (2, 4, 8, 16)]


class TestGroupedTasks:
    def test_one_workload_batch_spreads_over_workers(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV)  # pair the baseline twins
        tasks = _tasks(sorted(ONE_WORKLOAD, key=RunSpec.key), workers=2)
        assert len(tasks) >= 2
        assert sorted((spec for task in tasks for spec in task),
                      key=RunSpec.key) == sorted(ONE_WORKLOAD,
                                                 key=RunSpec.key)
        # the baseline twins ride in one task, the nvm-only one first
        dram, nvm = ONE_WORKLOAD[0], ONE_WORKLOAD[1]
        (task,) = [task for task in tasks if dram in task]
        assert task.index(nvm) == task.index(dram) - 1

    def test_tasks_go_largest_first(self):
        pending = sorted((small(workload, policy) for workload in
                          ("blackscholes", "streamcluster")
                          for policy in CORE_POLICIES), key=RunSpec.key)
        tasks = _tasks(pending, workers=1)
        assert [task[0].workload for task in tasks] == \
            ["streamcluster", "blackscholes"]

    def test_serial_and_pooled_identical_on_a_mixed_batch(
            self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV)
        batch = GRID + ONE_WORKLOAD
        serial = ParallelExecutor(jobs=1)
        pooled = ParallelExecutor(jobs=JOBS)
        for one, other in zip(serial.submit(batch), pooled.submit(batch)):
            assert json.dumps(one.to_dict()) == json.dumps(other.to_dict())
        assert serial.stats.derived == pooled.stats.derived == 1

    @pytest.mark.parametrize("jobs", [1, JOBS])
    def test_failing_spec_keeps_its_siblings(self, crashy_policy, jobs):
        crashing = RunSpec("raytrace", policy=crashy_policy, **SCALE)
        executor = ParallelExecutor(jobs=jobs)
        with pytest.raises(ExecutorError) as excinfo:
            executor.submit(ONE_WORKLOAD + [crashing])
        error = excinfo.value
        assert set(error.results) == set(ONE_WORKLOAD)
        assert [failure.spec for failure in error.failures] == [crashing]

    def test_failed_twin_does_not_lose_the_baseline(self, monkeypatch):
        from repro.policies import registry

        monkeypatch.delenv(SANITIZE_ENV)
        dram, nvm = small("raytrace", "dram-only"), small("raytrace",
                                                         "nvm-only")
        expected = dram.execute().to_dict()
        registry.available_policies()  # load the built-ins to patch one
        monkeypatch.setitem(registry._FACTORIES, "nvm-only", _AlwaysCrash())
        executor = ParallelExecutor(jobs=1)
        with pytest.raises(ExecutorError) as excinfo:
            executor.submit([dram, nvm])
        error = excinfo.value
        assert [failure.spec for failure in error.failures] == [nvm]
        assert error.results[dram].to_dict() == expected
        assert executor.stats.derived == 0


# ----------------------------------------------------------------------
# Derived dram-only baseline
# ----------------------------------------------------------------------
class TestDerivedBaseline:
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_derived_equals_replay(self, workload, monkeypatch):
        # The suite sanitizes by default, which turns derivation off.
        monkeypatch.delenv(SANITIZE_ENV)
        for warmup in (None, 0.0, 0.5):
            dram, nvm = (RunSpec.core(workload, policy,
                                      warmup_fraction=warmup)
                         for policy in ("dram-only", "nvm-only"))
            executor = ParallelExecutor(jobs=1)
            derived, _ = executor.submit([dram, nvm])
            assert executor.stats.derived == 1
            assert executor.stats.simulated == 2
            replayed = dram.execute(instance=dram.render())
            assert derived.to_dict() == replayed.to_dict()

    @pytest.mark.parametrize("case", [
        "events", "overrides", "dram-only-clock", "sanitize"])
    def test_not_derived(self, case, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV)
        kwargs, policy = {}, "dram-only"
        if case == "events":
            kwargs["events"] = EventConfig()
        elif case == "overrides":
            kwargs["policy_overrides"] = {"read_threshold": 4}
        elif case == "dram-only-clock":
            policy = "dram-only-clock"
        else:
            monkeypatch.setenv(SANITIZE_ENV, "1")
        twin = policy.replace("dram", "nvm")
        specs = [small("dedup", policy, **kwargs),
                 small("dedup", twin, **kwargs)]
        executor = ParallelExecutor(jobs=1)
        try:
            executor.submit(specs)
        except ExecutorError as error:
            # single-tier policies take no overrides: both specs fail,
            # and derivation must not paper over the bad one
            assert case == "overrides"
            assert len(error.failures) == 2
        assert executor.stats.derived == 0


# ----------------------------------------------------------------------
# Persistent cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_after_miss_and_zero_resimulation(self, tmp_path):
        spec = small()
        first = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        warm = first.submit([spec])
        assert (first.stats.cache_misses, first.stats.simulated) == (1, 1)

        second = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        cached = second.submit([spec])
        assert (second.stats.cache_hits, second.stats.simulated) == (1, 0)
        assert cached[0].to_dict() == warm[0].to_dict()

    def test_code_version_change_invalidates(self, tmp_path):
        spec = small()
        old = ParallelExecutor(
            jobs=1, cache=ResultCache(tmp_path, version="aaaa"))
        old.submit([spec])
        new = ParallelExecutor(
            jobs=1, cache=ResultCache(tmp_path, version="bbbb"))
        new.submit([spec])
        assert new.stats.cache_hits == 0
        assert new.stats.simulated == 1

    def test_digest_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        executor.submit([small()])
        executor.submit([small(seed=7)])
        assert executor.stats.cache_hits == 0
        assert executor.stats.cache_misses == 2

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        spec = small()
        cache = ResultCache(tmp_path)
        ParallelExecutor(jobs=1, cache=cache).submit([spec])
        cache.path_for(spec).write_text("{not json", encoding="utf-8")
        fresh = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        fresh.submit([spec])
        assert fresh.stats.simulated == 1

    def test_cache_files_are_self_describing(self, tmp_path):
        spec = small()
        cache = ResultCache(tmp_path)
        ParallelExecutor(jobs=1, cache=cache).submit([spec])
        payload = json.loads(cache.path_for(spec).read_text())
        assert payload["version"] == code_version()
        assert RunSpec.from_dict(payload["spec"]) == spec

    @pytest.mark.parametrize("call", ["os.replace", "tempfile.mkstemp"])
    def test_full_disk_keeps_the_batch(self, tmp_path, monkeypatch, call):
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        specs = [small(), small(policy="clock-dwf"), small(seed=7)]
        want = [r.to_dict() for r in ParallelExecutor(jobs=1).submit(specs)]
        monkeypatch.setattr(call, no_space)
        executor = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        assert [r.to_dict() for r in executor.submit(specs)] == want
        assert executor.stats.cache_write_errors == 3
        assert list(tmp_path.iterdir()) == []  # no temp or partial file


# ----------------------------------------------------------------------
# code_version memoisation
# ----------------------------------------------------------------------
class TestCodeVersionMemo:
    @pytest.fixture
    def scratch_package(self, tmp_path, monkeypatch):
        """A throwaway versioned tree wired in as the default root."""
        import types

        import repro.experiments.executor as executor_module

        package = tmp_path / "repro"
        (package / "trace").mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "trace" / "mod.py").write_text("A = 1", encoding="utf-8")
        monkeypatch.setattr(
            executor_module, "repro",
            types.SimpleNamespace(__file__=str(package / "__init__.py")),
        )
        monkeypatch.setattr(executor_module, "_code_version_memo", None)
        return package

    def test_memo_hit_on_unchanged_tree(self, scratch_package):
        from repro.experiments import executor as executor_module

        first = executor_module.code_version()
        assert executor_module._code_version_memo is not None
        assert executor_module.code_version() == first

    def test_memo_invalidates_when_a_file_changes(self, scratch_package):
        from repro.experiments import executor as executor_module

        first = executor_module.code_version()
        (scratch_package / "trace" / "mod.py").write_text(
            "A = 1  # edited", encoding="utf-8")
        assert executor_module.code_version() != first

    def test_memo_invalidates_when_a_file_appears(self, scratch_package):
        from repro.experiments import executor as executor_module

        first = executor_module.code_version()
        (scratch_package / "trace" / "extra.py").write_text(
            "B = 2", encoding="utf-8")
        assert executor_module.code_version() != first

    def test_touch_without_change_keeps_the_version(self, scratch_package):
        from repro.experiments import executor as executor_module

        first = executor_module.code_version()
        target = scratch_package / "trace" / "mod.py"
        os.utime(target, ns=(1, 1))  # force a signature miss
        assert executor_module.code_version() == first

    def test_explicit_root_bypasses_the_memo(self, tmp_path):
        from repro.experiments import executor as executor_module

        package = tmp_path / "other"
        (package / "policies").mkdir(parents=True)
        (package / "policies" / "p.py").write_text("C = 3", encoding="utf-8")
        before = executor_module._code_version_memo
        version = code_version(root=package)
        assert len(version) == 16
        assert executor_module._code_version_memo is before


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_runner_batches_through_executor(self, tmp_path):
        executor = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        runner = ExperimentRunner(**SCALE, workloads=("dedup", "raytrace"),
                                  executor=executor)
        grid = runner.grid(policies=("proposed", "clock-dwf"))
        assert set(grid) == {"dedup", "raytrace"}
        assert executor.stats.simulated == 4
        # the runner's in-memory memo preserves object identity
        again = runner.submit([runner.spec_for("dedup", "proposed")])[0]
        assert again is grid["dedup"].runs["proposed"]


# ----------------------------------------------------------------------
# Per-process memos
# ----------------------------------------------------------------------
class TestMemoBounds:
    def test_instance_and_profile_memos_stay_bounded(self):
        import repro.experiments.executor as executor_module
        from repro.model import estimator
        from repro.workloads.parsec import MEMO_LIMIT

        executor_module._INSTANCES.clear()
        estimator._PROFILES.clear()
        # One more distinct rendering than the bound, as a resident
        # server fed fresh seeds would see.
        specs = [small(engine="analytic", seed=seed)
                 for seed in range(MEMO_LIMIT + 1)]
        ParallelExecutor(jobs=1).submit(specs)
        assert 0 < len(executor_module._INSTANCES) <= MEMO_LIMIT
        assert 0 < len(estimator._PROFILES) <= MEMO_LIMIT
