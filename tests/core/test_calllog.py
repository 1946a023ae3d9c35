"""Unit tests for the function-call / return-value log."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calllog import CallLogEntry, ComponentCallLog
from repro.fastpath import reference_mode


def make_log():
    return ComponentCallLog("VFS")


class TestAppend:
    def test_entries_sequence(self):
        log = make_log()
        a = log.append("open", ("/f", "r"), {})
        b = log.append("read", (3, 10), {}, key=3)
        assert a.seq < b.seq
        assert len(log) == 2
        assert log.total_appended == 2

    def test_args_deep_copied(self):
        log = make_log()
        buffers = [b"abc"]
        entry = log.append("writev", (3, buffers), {})
        buffers.append(b"mutated")
        assert entry.args[1] == [b"abc"]

    def test_key_and_flags(self):
        log = make_log()
        entry = log.append("close", (3,), {}, key=3, canceling=True)
        assert entry.key == 3 and entry.canceling
        opener = log.append("open", (), {}, key=4, session_opener=True)
        assert opener.session_opener


class TestActiveStack:
    def test_retvals_attach_to_innermost(self):
        log = make_log()
        outer = log.append("open", (), {})
        log.push_active(outer)
        inner = log.append("read", (), {})
        log.push_active(inner)
        assert log.record_retval("9PFS", "uk_9pfs_read", b"x")
        log.pop_active(inner)
        assert log.record_retval("9PFS", "uk_9pfs_open", 0)
        log.pop_active(outer)
        assert [r.func for r in inner.nested] == ["uk_9pfs_read"]
        assert [r.func for r in outer.nested] == ["uk_9pfs_open"]

    def test_no_active_entry_records_nothing(self):
        log = make_log()
        assert not log.record_retval("9PFS", "f", 1)
        assert log.total_retvals == 0

    def test_retval_result_deep_copied(self):
        log = make_log()
        entry = log.append("open", (), {})
        log.push_active(entry)
        result = {"size": 1}
        log.record_retval("9PFS", "stat", result)
        result["size"] = 999
        assert entry.nested[0].result == {"size": 1}

    def test_error_outcomes_recorded(self):
        log = make_log()
        entry = log.append("open", (), {})
        log.push_active(entry)
        log.record_retval("9PFS", "lookup", error=("ENOENT", "missing"))
        assert entry.nested[0].error == ("ENOENT", "missing")


class TestQueries:
    def test_record_count_includes_retvals(self):
        log = make_log()
        entry = log.append("open", (), {})
        log.push_active(entry)
        log.record_retval("9PFS", "a", 1)
        log.record_retval("9PFS", "b", 2)
        log.pop_active(entry)
        assert log.record_count() == 3

    def test_entries_for_key(self):
        log = make_log()
        log.append("read", (3,), {}, key=3)
        log.append("read", (4,), {}, key=4)
        log.append("write", (3,), {}, key=3)
        assert len(log.entries_for_key(3)) == 2

    def test_space_bytes_counts_payloads(self):
        log = make_log()
        small = log.append("read", (3, 1), {})
        base = log.space_bytes()
        big = log.append("write", (3, b"x" * 1000), {})
        assert log.space_bytes() >= base + 1000


class TestPruning:
    def test_remove_entries(self):
        log = make_log()
        a = log.append("read", (3,), {}, key=3)
        b = log.append("read", (4,), {}, key=4)
        removed = log.remove_entries([a])
        assert removed == 1
        assert log.entries == [b]
        assert log.total_pruned == 1

    def test_remove_empty_list(self):
        log = make_log()
        assert log.remove_entries([]) == 0

    def test_replace_entries_preserves_position(self):
        log = make_log()
        a = log.append("open", (), {}, key=3)
        b = log.append("read", (), {}, key=3)
        c = log.append("other", (), {}, key=9)
        synthetic = log.make_synthetic(3, {"offset": 10})
        log.replace_entries([a, b], synthetic, at_entry=b)
        assert [e.func for e in log.entries] == ["__setstate__", "other"]

    def test_synthetic_entry_shape(self):
        log = make_log()
        entry = log.make_synthetic(3, {"offset": 1})
        assert entry.is_synthetic and entry.completed
        assert entry.synthetic_patch == (3, {"offset": 1})
        assert entry.entry_count() == 1

    def test_clear(self):
        log = make_log()
        log.append("open", (), {})
        log.clear()
        assert len(log) == 0


# --- the key index against the reference walk ------------------------------

#: the long-lived key: opened once and never queried, while state-neutral
#: traffic on it is appended and pruned (a listening server socket)
LISTEN = 99
_KEYS = st.sampled_from([None, 0, 1, 2, "srv", LISTEN])
_PICK = st.integers(min_value=0, max_value=10_000)
_PAYLOAD = st.sampled_from([None, 7, b"", b"x" * 40, "naïve", (1, b"ab"),
                            {"size": 3}])

_STEPS = st.lists(st.one_of(
    st.tuples(st.just("append"), _KEYS, _PAYLOAD),
    st.tuples(st.just("neutral"), _KEYS),
    st.tuples(st.just("rekey"), _PICK, _KEYS),
    st.tuples(st.just("result"), _PICK, _PAYLOAD),
    st.tuples(st.just("push"), _PICK),
    st.tuples(st.just("pop")),
    st.tuples(st.just("retval"), st.sampled_from(["9PFS", "LWIP"]),
              _PAYLOAD),
    st.tuples(st.just("remove"), st.lists(_PICK, max_size=6)),
    st.tuples(st.just("replace"), st.lists(_PICK, max_size=6), _PICK,
              _KEYS),
    st.tuples(st.just("clear")),
), max_size=60)


def _apply(log, pool, step):
    """Run one generated step; ``pool`` holds every entry ever made."""
    live = log.entries
    op = step[0]
    if op == "append":
        pool.append(log.append("op", (step[2],), {}, key=step[1]))
    elif op == "neutral":
        # a state-neutral call: logged, then pruned on completion
        entry = log.append("recv", (), {}, key=step[1])
        pool.append(entry)
        log.remove_entries([entry])
    elif op == "rekey" and pool:
        pool[step[1] % len(pool)].key = step[2]
    elif op == "result" and pool:
        pool[step[1] % len(pool)].result = step[2]
    elif op == "push" and live:
        # the dispatcher pushes each entry once, while it executes
        entry = live[step[1] % len(live)]
        if all(entry is not active for active in log._active):
            log.push_active(entry)
    elif op == "pop" and log.active_entry is not None:
        log.pop_active(log.active_entry)
    elif op == "retval":
        log.record_retval(step[1], "f", step[2])
    elif op == "remove" and pool:
        log.remove_entries([pool[i % len(pool)] for i in step[1]])
    elif op == "replace" and live:
        doomed = [live[i % len(live)] for i in step[1]]
        synthetic = log.make_synthetic(step[3], {"ops": len(doomed)})
        pool.append(synthetic)
        log.replace_entries(doomed, synthetic,
                            at_entry=live[step[2] % len(live)])
    elif op == "clear":
        log.clear()


def _check_index(log, order):
    """Every bucket equals the reference walk for its key, and the
    derived queries equal their recomputation; ``order`` is the
    expected ``live_keys()`` (persisting keys keep their place, new
    keys join at the end)."""
    live = log.entries
    keys = {e.key for e in live if e.key is not None}
    assert set(log._by_key) == keys
    for key, bucket in log._by_key.items():
        indexed = log.entries_for_key(key)
        with reference_mode():
            assert bucket == indexed == log.entries_for_key(key)
    assert log.record_count() == sum(e.entry_count() for e in live)
    assert log.space_bytes() == log.recompute_space_bytes()
    assert log.has_multi_entry_key() == any(
        sum(e.key == key for e in live) > 1 for key in keys)
    assert log.live_keys() == order


class TestKeyIndexProperties:
    @settings(max_examples=300)
    @given(steps=_STEPS)
    def test_buckets_match_the_reference_walk(self, steps):
        log = make_log()
        pool = [log.append("socket", (), {}, key=LISTEN,
                           session_opener=True)]
        order = [LISTEN]
        for step in steps:
            _apply(log, pool, step)
            live_keys = [e.key for e in log.entries if e.key is not None]
            if step[0] == "clear":
                order = list(dict.fromkeys(live_keys))
            else:
                order = [k for k in order if k in live_keys] + [
                    k for k in dict.fromkeys(live_keys) if k not in order]
            _check_index(log, order)

    def test_long_lived_key_holds_only_live_entries(self):
        log = make_log()
        opener = log.append("socket", (), {}, key=LISTEN,
                            session_opener=True)
        for _ in range(500):
            log.remove_entries([log.append("recv", (), {}, key=LISTEN)])
        # read the bucket directly: a query must not be what cleans it
        assert log._by_key[LISTEN] == [opener]
        assert len(log._entries) <= len(log) + max(
            ComponentCallLog._COMPACT_FLOOR, len(log))
