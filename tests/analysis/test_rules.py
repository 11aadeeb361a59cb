"""Per-rule fixture snippets: positive, negative, and suppression.

Each rule gets (at least) one snippet that must be flagged, one that
must not, and one where an in-source ``# repro: allow(...)`` downgrades
the finding to suppressed.  Snippets are linted through
:func:`repro.analysis.lint_source` under a relpath chosen to land inside
(or outside) the rule's scope.
"""

import textwrap

from repro.analysis import DEFAULT_RULES, lint_source
from repro.analysis.rules import (
    AtomicWriteRule,
    Float64HotPathRule,
    HotLoopRule,
    SeededRngRule,
    SimTimeRule,
    TypedFaultsRule,
)

HOT = "src/repro/mem/example.py"
DURABLE = "src/repro/ckpt/example.py"
PLAIN = "src/repro/core/example.py"
FAULTS = "src/repro/faults/example.py"


def _lint(relpath, snippet, rules=DEFAULT_RULES):
    return lint_source(relpath, textwrap.dedent(snippet), rules)


def _active(findings, rule):
    return [f for f in findings if f.rule == rule and not f.suppressed]


def _suppressed(findings, rule):
    return [f for f in findings if f.rule == rule and f.suppressed]


class TestHotLoopRule:
    def test_per_key_loop_is_flagged(self):
        findings = _lint(
            HOT,
            """
            def absorb(keys, values):
                out = []
                for k in keys:
                    out.append(int(k))
                return out
            """,
        )
        (f,) = _active(findings, "hot-loop")
        assert f.line == 4
        assert "keys" in f.message

    def test_range_size_and_len_forms_are_flagged(self):
        findings = _lint(
            HOT,
            """
            def a(keys):
                for i in range(keys.size):
                    pass

            def b(uniq):
                for i in range(len(uniq)):
                    pass

            def c(keys, values):
                for i, k in enumerate(keys):
                    pass
            """,
        )
        assert len(_active(findings, "hot-loop")) == 3

    def test_tolist_and_file_id_arrays_are_flagged(self):
        # The per-file accounting loop FileStore.read ran before its
        # array pass, and the other shapes the rule must see through.
        findings = _lint(
            HOT,
            """
            def account(self, fids, sizes):
                for fid, nbytes in zip(fids.tolist(), sizes.tolist()):
                    self.charge(fid, nbytes)

            def a(keys):
                for k in keys.tolist():
                    pass

            def b(file_ids):
                for fid in file_ids:
                    pass

            def c(self, victim_fids):
                for i, fid in enumerate(victim_fids.tolist()):
                    pass
            """,
        )
        hits = _active(findings, "hot-loop")
        assert [f.line for f in hits] == [3, 7, 11, 15]
        assert "'fids'" in hits[0].message

    def test_tolist_of_a_non_batch_array_is_clean(self):
        findings = _lint(
            HOT,
            """
            def per_file(self, sizes, offsets):
                for nbytes in sizes.tolist():
                    self.charge(nbytes)
                for i in range(offsets.size - 1):
                    pass
            """,
        )
        assert not _active(findings, "hot-loop")

    def test_vectorized_code_is_clean(self):
        findings = _lint(
            HOT,
            """
            import numpy as np

            def absorb(keys, values):
                order = np.argsort(keys)
                return keys[order], values[order]
            """,
        )
        assert not _active(findings, "hot-loop")

    def test_iterating_a_collection_of_key_arrays_is_clean(self):
        # ``for keys in self._served_keys`` iterates *arrays*, one per
        # peer — that is batch-at-a-time, not per-key.
        findings = _lint(
            HOT,
            """
            def merge(self):
                for keys in self._served_keys:
                    self.absorb(keys)
            """,
        )
        assert not _active(findings, "hot-loop")

    def test_three_arg_range_is_clean(self):
        findings = _lint(
            HOT,
            """
            def chunks(keys, n):
                for s in range(0, keys.size, n):
                    yield keys[s : s + n]
            """,
        )
        assert not _active(findings, "hot-loop")

    def test_out_of_scope_module_is_clean(self):
        findings = _lint(
            PLAIN,
            """
            def slow(keys):
                for k in keys:
                    print(k)
            """,
        )
        assert not _active(findings, "hot-loop")

    def test_allow_comment_suppresses(self):
        findings = _lint(
            HOT,
            """
            def oracle(keys, values):
                # repro: allow(hot-loop)
                for k in keys:
                    pass
            """,
        )
        assert not _active(findings, "hot-loop")
        assert len(_suppressed(findings, "hot-loop")) == 1

    def test_scope(self):
        rule = HotLoopRule()
        assert rule.applies_to("src/repro/mem/cache.py")
        assert rule.applies_to("src/repro/store/slot_index.py")
        # The per-key cache oracles are test code, outside the hot path.
        assert not rule.applies_to("tests/cache_oracles.py")
        assert not rule.applies_to("src/repro/core/cluster.py")
        assert not rule.applies_to("tests/mem/test_cache.py")


class TestAtomicWriteRule:
    def test_bare_write_is_flagged(self):
        findings = _lint(
            DURABLE,
            """
            def save(path, blob):
                with open(path, "w") as fh:
                    fh.write(blob)
            """,
        )
        (f,) = _active(findings, "atomic-write")
        assert "atomic_write_bytes" in f.message

    def test_all_write_modes_are_flagged(self):
        findings = _lint(
            DURABLE,
            """
            def save(path, blob):
                open(path, "wb")
                open(path, "a")
                open(path, "x")
                open(path, "r+")
                open(path, mode="w")
            """,
        )
        assert len(_active(findings, "atomic-write")) == 5

    def test_read_open_is_clean(self):
        findings = _lint(
            DURABLE,
            """
            def load(path):
                with open(path, "rb") as fh:
                    return fh.read()

            def load_default(path):
                with open(path) as fh:
                    return fh.read()
            """,
        )
        assert not _active(findings, "atomic-write")

    def test_utils_io_is_exempt(self):
        # The implementation of atomic_write_bytes itself must open for
        # writing — it is the one sanctioned site.
        findings = _lint(
            "src/repro/utils/io.py",
            """
            def atomic_write_bytes(path, data):
                with open(path + ".tmp", "wb") as fh:
                    fh.write(data)
            """,
        )
        assert not _active(findings, "atomic-write")

    def test_scope(self):
        rule = AtomicWriteRule()
        assert rule.applies_to("src/repro/ckpt/checkpoint.py")
        assert rule.applies_to("src/repro/ssd/file_store.py")
        assert rule.applies_to("src/repro/bench/harness.py")
        assert not rule.applies_to("src/repro/core/cluster.py")

    def test_regression_old_harness_snippet_is_flagged(self):
        # The exact shape fixed in this PR: run_e2e_bench used to dump
        # its JSON with a bare open(..., "w"), which a crash could leave
        # torn under the final name.  The linter must keep flagging it.
        findings = _lint(
            "src/repro/bench/harness.py",
            """
            import json

            def run_e2e_bench(result, write_path):
                if write_path is not None:
                    with open(write_path, "w") as fh:
                        json.dump(result, fh, indent=2, sort_keys=True)
                        fh.write("\\n")
                return result
            """,
        )
        assert len(_active(findings, "atomic-write")) == 1


class TestSeededRngRule:
    def test_global_np_random_is_flagged(self):
        findings = _lint(
            PLAIN,
            """
            import numpy as np

            def sample(n):
                return np.random.rand(n) + np.random.randint(0, 2)
            """,
        )
        assert len(_active(findings, "seeded-rng")) == 2

    def test_unseeded_default_rng_is_flagged(self):
        findings = _lint(
            PLAIN,
            """
            import numpy as np

            a = np.random.default_rng()
            b = np.random.default_rng(None)
            """,
        )
        assert len(_active(findings, "seeded-rng")) == 2

    def test_seeded_default_rng_and_annotations_are_clean(self):
        findings = _lint(
            PLAIN,
            """
            import numpy as np

            def make(seed: int) -> np.random.Generator:
                return np.random.default_rng(seed)

            def derive(ss: np.random.SeedSequence):
                return ss.spawn(2)
            """,
        )
        assert not _active(findings, "seeded-rng")

    def test_utils_rng_is_exempt(self):
        findings = _lint(
            "src/repro/utils/rng.py",
            """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert not _active(findings, "seeded-rng")

    def test_scope_is_tree_wide(self):
        rule = SeededRngRule()
        assert rule.applies_to("tests/mem/test_cache.py")
        assert rule.applies_to("benchmarks/test_ablations.py")
        assert not rule.applies_to("src/repro/utils/rng.py")


class TestSimTimeRule:
    def test_wall_clock_reads_are_flagged(self):
        findings = _lint(
            PLAIN,
            """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
        )
        assert len(_active(findings, "sim-time")) == 2

    def test_simulated_seconds_are_clean(self):
        findings = _lint(
            PLAIN,
            """
            def cost(n_bytes, bandwidth):
                return n_bytes / bandwidth
            """,
        )
        assert not _active(findings, "sim-time")

    def test_bench_and_benchmarks_are_exempt(self):
        rule = SimTimeRule()
        assert not rule.applies_to("src/repro/bench/harness.py")
        assert not rule.applies_to("benchmarks/test_hps_micro.py")
        assert rule.applies_to("src/repro/core/cluster.py")
        assert rule.applies_to("tests/core/test_engine.py")

    def test_allow_comment_suppresses(self):
        findings = _lint(
            PLAIN,
            """
            import time

            def stamp():
                return time.monotonic()  # repro: allow(sim-time)
            """,
        )
        assert not _active(findings, "sim-time")
        assert len(_suppressed(findings, "sim-time")) == 1


class TestFloat64HotPathRule:
    def test_astype_and_dtype_are_flagged(self):
        findings = _lint(
            HOT,
            """
            import numpy as np

            def widen(values):
                a = values.astype(np.float64)
                b = values.astype("float64")
                c = np.zeros(4, dtype=np.float64)
                d = np.zeros(4, dtype="float64")
                return a, b, c, d
            """,
        )
        assert len(_active(findings, "f64-hot-path")) == 4

    def test_float32_and_scalar_float64_are_clean(self):
        findings = _lint(
            HOT,
            """
            import numpy as np

            def ok(values):
                a = values.astype(np.float32)
                b = np.zeros(4, dtype=np.float32)
                c = np.float64(values.sum())  # scalar accumulation
                return a, b, c
            """,
        )
        assert not _active(findings, "f64-hot-path")

    def test_out_of_scope_module_is_clean(self):
        findings = _lint(
            PLAIN,
            """
            import numpy as np

            def widen(values):
                return values.astype(np.float64)
            """,
        )
        assert not _active(findings, "f64-hot-path")

    def test_scope(self):
        rule = Float64HotPathRule()
        assert rule.applies_to("src/repro/hbm/allreduce.py")
        assert not rule.applies_to("src/repro/nn/optim.py")


class TestSuppressionMechanics:
    def test_same_line_and_line_above_both_work(self):
        same = _lint(
            HOT,
            """
            def a(keys):
                for k in keys:  # repro: allow(hot-loop)
                    pass
            """,
        )
        above = _lint(
            HOT,
            """
            def a(keys):
                # repro: allow(hot-loop)
                for k in keys:
                    pass
            """,
        )
        for findings in (same, above):
            assert not _active(findings, "hot-loop")
            assert len(_suppressed(findings, "hot-loop")) == 1

    def test_wrong_rule_id_does_not_suppress(self):
        findings = _lint(
            HOT,
            """
            def a(keys):
                # repro: allow(sim-time)
                for k in keys:
                    pass
            """,
        )
        assert len(_active(findings, "hot-loop")) == 1

    def test_allow_file_suppresses_everywhere(self):
        findings = _lint(
            HOT,
            """
            # repro: allow-file(hot-loop)

            def a(keys):
                for k in keys:
                    pass

            def b(uniq):
                for k in uniq:
                    pass
            """,
        )
        assert not _active(findings, "hot-loop")
        assert len(_suppressed(findings, "hot-loop")) == 2

    def test_comma_separated_ids(self):
        findings = _lint(
            HOT,
            """
            import numpy as np

            def a(keys):
                # repro: allow(hot-loop, f64-hot-path)
                for k in keys:
                    out = np.zeros(2, dtype=np.float64)
            """,
        )
        assert not _active(findings, "hot-loop")
        # dtype= is on the line *below* the allow comment — it anchors
        # to its own line, which the comment does not cover
        assert _active(findings, "f64-hot-path")

    def test_suppressed_findings_still_reported(self):
        findings = _lint(
            HOT,
            """
            def a(keys):
                for k in keys:  # repro: allow(hot-loop)
                    pass
            """,
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert "(suppressed)" in findings[0].format()


class TestTypedFaultsRule:
    def test_bare_raise_is_flagged(self):
        findings = _lint(
            FAULTS,
            """
            def fail():
                raise RuntimeError("boom")
            """,
        )
        (f,) = _active(findings, "typed-faults")
        assert f.line == 3
        assert "RuntimeError" in f.message

    def test_raise_exception_call_and_name_are_flagged(self):
        findings = _lint(
            FAULTS,
            """
            def a():
                raise Exception("boom")

            def b():
                raise Exception
            """,
        )
        assert len(_active(findings, "typed-faults")) == 2

    def test_bare_except_and_tuple_catch_are_flagged(self):
        findings = _lint(
            FAULTS,
            """
            def a(op):
                try:
                    op()
                except Exception:
                    pass

            def b(op):
                try:
                    op()
                except (ValueError, RuntimeError):
                    pass

            def c(op):
                try:
                    op()
                except:
                    pass
            """,
        )
        assert len(_active(findings, "typed-faults")) == 3

    def test_typed_raise_and_catch_are_clean(self):
        findings = _lint(
            FAULTS,
            """
            from repro.faults.errors import FaultError, FaultExhaustedError

            def a(op):
                try:
                    op()
                except FaultExhaustedError as exc:
                    raise FaultError("escalated", surface="x") from exc
                except ValueError:
                    pass
            """,
        )
        assert not _active(findings, "typed-faults")

    def test_out_of_scope_module_is_clean(self):
        findings = _lint(
            PLAIN,
            """
            def fail():
                raise RuntimeError("boom")
            """,
        )
        assert not _active(findings, "typed-faults")

    def test_allow_comment_suppresses(self):
        findings = _lint(
            FAULTS,
            """
            def fail():
                raise RuntimeError("boom")  # repro: allow(typed-faults)
            """,
        )
        assert not _active(findings, "typed-faults")
        assert _suppressed(findings, "typed-faults")

    def test_scope(self):
        rule = TypedFaultsRule()
        assert rule.applies_to("src/repro/faults/inject.py")
        assert not rule.applies_to("src/repro/core/cluster.py")
        assert not rule.applies_to("tests/faults/test_soak.py")
