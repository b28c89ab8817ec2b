import csv
import logging
import os
import pickle
import signal
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ojainfer import Dataset, SeedSpec
from ojainfer import io as oio
from ojainfer import workers
from ojainfer.io import (
    content_hash_config,
    content_hash_file,
    read_csv,
    write_csv,
    write_results,
)

from oracle import write_csv_cells


class TestReadCsv:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,0\n0,1\n")
        data = read_csv(path)
        assert (data.n, data.d) == (2, 2)
        np.testing.assert_array_equal(data.samples, np.eye(2))

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("alpha,beta\n1.5,2.5\n3.5,4.5\n")
        data = read_csv(path)
        assert data.n == 2
        np.testing.assert_array_equal(data.samples, [[1.5, 2.5], [3.5, 4.5]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="ragged.csv"):
            read_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ValueError, match="bad.csv"):
            read_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no numeric rows"):
                read_csv(path)

    @pytest.mark.parametrize("text", ["a,b\r\n1,2\r\n3,4\r\n", "1,2\n\n3,4\n\n", '1,"2"\n3,4\n'])
    def test_crlf_blank_lines_and_quoted_numbers_accepted(self, tmp_path, text):
        path = tmp_path / "ok.csv"
        path.write_bytes(text.encode())
        np.testing.assert_array_equal(read_csv(path).samples, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", ["\n\n", "alpha,beta\n", "alpha,beta\n\n"])
    def test_no_data_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no numeric rows"):
                read_csv(path)

    @pytest.mark.parametrize("text", ["a,b\n1,2\n3,\n", "1,2\n#3,4\n", '1,2\n3,"x"\n'])
    def test_errors_name_the_path(self, tmp_path, text):
        path = tmp_path / "named.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="named.csv"):
            read_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2\n3,4\n5,6.5\n")
        np.testing.assert_array_equal(read_csv(path).samples, [[1.5, 2.0], [3.0, 4.0], [5.0, 6.5]])

    def test_large_file_loads_fast_and_round_trips(self, tmp_path):
        rng = SeedSpec(191).rng()
        data = Dataset(rng.standard_normal((7352, 561)))
        first = tmp_path / "har_shaped.csv"
        write_csv(data, first)
        t0 = time.perf_counter()
        loaded = read_csv(first)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        np.testing.assert_array_equal(loaded.samples, data.samples)
        second = tmp_path / "again.csv"
        write_csv(loaded, second)
        assert first.read_bytes() == second.read_bytes()


# The real worker probes and sender, for tests that patch them.
OS_THREADS, SEND = workers.os_threads, workers._send


def _whole_file(path, skip):
    return np.loadtxt(path, skiprows=skip, encoding="utf-8-sig", **oio._LOADTXT)


def _message(path):
    with pytest.raises(ValueError) as info:
        read_csv(path)
    return str(info.value)


class TestSplitParse:
    """read_csv's byte-range parse, forced onto small files: 3 ranges, 2 forked children."""

    @pytest.fixture(autouse=True)
    def pieces(self, monkeypatch):
        monkeypatch.setattr(oio, "_PIECE_BYTES", 16)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        monkeypatch.setattr(workers, "IMPORT_THREADS", 1)
        monkeypatch.setattr(workers, "os_threads", lambda: 1)
        split = oio._read_pieces
        results = []  # what each _read_pieces call returned; None means the fallback ran

        def recorded(path, skip):
            results.append(split(path, skip))
            return results[-1]

        monkeypatch.setattr(oio, "_read_pieces", recorded)
        return results

    ROWS = "".join(f"{i}.25,{-i}e-3\n" for i in range(40))

    @pytest.mark.parametrize("text,skip", [
        (ROWS, 0),
        (ROWS[:200] + "\n" * 300 + ROWS[200:], 0),  # the first cut lands in the blank lines
        ("\n" * 10 + ROWS + "\n" * 400, 0),  # the last range is blank lines only
        ("a,b\r\n" + ROWS.replace("\n", "\r\n"), 1),
        ("alpha,beta\n" + ROWS, 1),
        (ROWS.replace(",", ',"').replace("\n", '"\n'), 0),
        ("".join(f'"{i}\n",{i}\n' for i in range(60)), 0),  # both cuts fall outside the quotes
        ("\ufeff" + ROWS, 0),
        ("\ufeffalpha,beta\n" + ROWS, 1),
    ], ids=["plain", "cut-on-blank-line", "blank-range", "crlf-header", "header", "quoted",
            "quoted-line-break", "bom", "bom-header"])
    def test_split_bits_match_whole_file(self, tmp_path, pieces, text, skip):
        path = tmp_path / "split.csv"
        path.write_bytes(text.encode())
        got = read_csv(path).samples
        assert pieces[0] is not None  # parsed in ranges, not by the fallback
        want = _whole_file(path, skip)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_quoted_line_breaks_fall_back(self, tmp_path, pieces):
        path = tmp_path / "whole.csv"
        path.write_text("".join(f'{i},"{i}\n"\n' for i in range(60)))
        got = read_csv(path).samples
        assert pieces[0] is None
        assert got.tobytes() == _whole_file(path, 0).tobytes()

    def test_bare_cr_falls_back_without_forking(self, tmp_path, monkeypatch, pieces):
        # No line feed to cut at: every cut lands at the end of the file.
        path = tmp_path / "whole.csv"
        path.write_bytes(self.ROWS.replace("\n", "\r").encode())
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a file it cannot cut"))
        got = read_csv(path).samples
        assert pieces[0] is None
        assert got.tobytes() == _whole_file(path, 0).tobytes()

    # The last entry fills a whole range with rows that are ragged only against the others.
    @pytest.mark.parametrize("bad", ["3,\n", "#3,4\n", '3,"x"\n', "3,4,5\n", "3,x\n", "3\n",
                                     "\ufeff3,4\n", "7,8,9\n" * 60])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_errors_match_the_whole_file_parse(self, tmp_path, monkeypatch, bad, where):
        path = tmp_path / "named.csv"
        path.write_text("a,b\n" + (bad + self.ROWS if where == "first" else self.ROWS + bad),
                        encoding="utf-8")
        split = _message(path)
        monkeypatch.setattr(oio, "_PIECE_BYTES", 1 << 40)
        assert split == _message(path)
        assert "named.csv" in split

    def test_ragged_only_across_the_cut(self, tmp_path, monkeypatch):
        # Two ranges, cut at the boundary: each parses, their widths differ.
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        path = tmp_path / "named.csv"
        path.write_text("1,2\n" * 25 + "1,2,3\n" * 16)
        split = _message(path)
        monkeypatch.setattr(oio, "_PIECE_BYTES", 1 << 40)
        assert split == _message(path)

    def test_quote_open_at_the_cut(self, tmp_path, monkeypatch):
        # A quote opened on the line that ends at the cut runs to the end of
        # the file, so the whole-file parse fails; each range alone parses.
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        rows = [f"{i}.25\n" for i in range(40)]
        for j in range(len(rows)):
            start = len("".join(rows[:j]))
            text = "".join(rows[:j]) + '"' + "".join(rows[j:])
            if start <= len(text) // 2 < start + 1 + len(rows[j]):
                break
        path = tmp_path / "named.csv"
        path.write_text(text)
        split = _message(path)
        monkeypatch.setattr(oio, "_PIECE_BYTES", 1 << 40)
        assert split == _message(path)

    @staticmethod
    def _short_pickle(part, wfd):
        with open(wfd, "wb") as out:
            out.write(pickle.dumps(part())[:-8])

    @staticmethod
    def _send_then_exit_3(part, wfd):
        SEND(part, wfd)
        os._exit(3)

    @pytest.mark.parametrize("death", ["sigkill", "exit-3", "short-pickle", "exit-3-after-sending"])
    def test_dead_child_falls_back(self, tmp_path, monkeypatch, caplog, pieces, death):
        # Two ranges, so one child; run_parts parses its range again here, and the split stands.
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        path = tmp_path / "split.csv"
        path.write_text(self.ROWS)
        parent, real = os.getpid(), oio._parse_range

        def dying(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL) if death == "sigkill" else os._exit(3)
            return real(*args)

        if death == "short-pickle":
            monkeypatch.setattr(workers, "_send", self._short_pickle)
        elif death == "exit-3-after-sending":
            monkeypatch.setattr(workers, "_send", self._send_then_exit_3)
        else:
            monkeypatch.setattr(oio, "_parse_range", dying)
        with caplog.at_level(logging.WARNING, logger="ojainfer.workers"):
            got = read_csv(path).samples
        assert pieces[0] is not None  # the split, its range 1 parsed again here
        assert got.tobytes() == _whole_file(path, 0).tobytes()
        assert [r.getMessage() for r in caplog.records] == [
            "part 1 of 2: its worker failed, so it runs again here"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_while_another_thread_runs(self, tmp_path, monkeypatch, pieces):
        path = tmp_path / "whole.csv"
        path.write_text(self.ROWS)
        assert path.stat().st_size >= oio._PIECE_BYTES
        monkeypatch.setattr(workers, "os_threads", OS_THREADS)
        forks, loads = [], []
        fork, loadtxt = os.fork, np.loadtxt
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: loads.append(1) or loadtxt(*args, **kwargs))
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert OS_THREADS() >= 2
            got = read_csv(path).samples
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert (forks, loads, pieces) == ([], [1], [None])
        assert got.tobytes() == _whole_file(path, 0).tobytes()

    def test_interrupt_reaps_the_children(self, tmp_path, monkeypatch):
        # Ctrl-C during the parent's own range; the conftest fixture checks
        # that no child is left.
        path = tmp_path / "split.csv"
        path.write_text(self.ROWS)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(oio, "_parse_range", interrupted)
        with pytest.raises(KeyboardInterrupt):
            read_csv(path)


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1.7976931348623157e308]),
    st.integers(-10**15, 10**15).map(float),
)


class TestWriteCsv:
    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=7), elements=CELLS))
    @example(arr=np.array([[-0.0]]))
    @example(arr=np.array([[1e300], [5e-324], [3.0]]))
    @example(arr=np.array([[-1e-300, 2.0, -7.0, 0.1]]))
    def test_bytes_match_per_cell_writer(self, tmp_path_factory, arr):
        folder = tmp_path_factory.mktemp("cells")
        write_csv(Dataset(arr), folder / "fast.csv")
        write_csv_cells(arr, folder / "cells.csv")
        assert (folder / "fast.csv").read_bytes() == (folder / "cells.csv").read_bytes()
        back = read_csv(folder / "fast.csv").samples
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


    @pytest.mark.parametrize("arr", [
        np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0]]),
        np.array([[np.nan], [np.inf], [-np.inf], [-0.0], [5e-324], [-2.5e-310]]),
        np.array([[0.1, -0.0], [np.nan, 1e300], [-np.inf, 5e-324]]),
        np.array([[7.0]]),
    ], ids=["1xd", "nx1", "nxd", "1x1"])
    def test_bytes_match_savetxt(self, tmp_path, arr):
        # write_csv formats whatever rows it is given; a Dataset holds finite ones only.
        write_csv(SimpleNamespace(samples=arr), tmp_path / "fast.csv")
        np.savetxt(tmp_path / "savetxt.csv", arr, fmt="%.17g", delimiter=",")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    def test_bytes_match_savetxt_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oio, "_WRITE_BLOCK", 7)
        arr = SeedSpec(5).rng().standard_normal((23, 3))
        write_csv(Dataset(arr), tmp_path / "fast.csv")
        np.savetxt(tmp_path / "savetxt.csv", arr, fmt="%.17g", delimiter=",")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()


class TestCacheEntry:
    """io._read_entry reads back only what io._write_entry writes."""

    @pytest.mark.parametrize("arr", [
        np.arange(15, dtype=np.float32).reshape(5, 3),
        np.arange(15.0).reshape(5, 3).astype(">f8"),
        np.asfortranarray(np.arange(15.0).reshape(5, 3)),
        np.arange(15.0),
        np.arange(30.0).reshape(5, 3, 2),
        np.empty((0, 3)),
    ], ids=["float32", "big-endian", "fortran", "1-d", "3-d", "empty"])
    def test_other_arrays_are_refused_even_with_their_checksum(self, tmp_path, arr):
        entry = tmp_path / "e.npy"
        with open(entry, "wb") as fh:
            np.save(fh, arr)
            fh.write(oio._checksum(np.ascontiguousarray(arr)))
        assert oio._read_entry(entry) is None

    def test_new_entry_is_never_evicted(self, tmp_path, monkeypatch):
        old, new = tmp_path / "old.npy", tmp_path / "new.npy"
        assert oio._write_entry(tmp_path, old, np.zeros((4, 2)))
        monkeypatch.setattr(oio, "_CACHE_BYTES", old.stat().st_size + 1)
        # An mtime after the new entry's (a clock set back, a copied cache) must not save old.
        os.utime(old, ns=(4 * 10**18, 4 * 10**18))
        assert oio._write_entry(tmp_path, new, np.ones((4, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["new.npy"]

    def test_array_that_fills_the_cap_is_not_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oio, "_CACHE_BYTES", 64)
        assert not oio._write_entry(tmp_path, tmp_path / "e.npy", np.zeros((4, 2)))
        assert list(tmp_path.iterdir()) == []


class TestWriteResults:
    def test_empty_stream_is_refused(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="empty record stream"):
            write_results([], path)
        assert not path.exists()

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.csv"
        write_results([{"a": 1, "b": 0.5}], path)
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.DictReader(fh)) == [{"a": "1", "b": "0.5"}]

    def test_cells_of_every_kind(self, tmp_path):
        path = tmp_path / "kinds.csv"
        write_results([{"t": True, "f": np.False_, "nan": float("nan"), "inf": np.inf,
                        "ninf": -np.inf, "none": None, "f32": np.float32(0.1), "i": np.int64(3),
                        "s": "bootstrap:2"}], path)
        assert path.read_text().splitlines()[1] == \
            "True,False,nan,inf,-inf,,0.10000000149011612,3,bootstrap:2"

    def test_many_records_round_trip_exactly(self, tmp_path):
        rng = SeedSpec(193).rng()
        records = [{"idx": i, "value": float(v), "label": "row"}
                   for i, v in enumerate(rng.standard_normal(10_000) * 10.0**rng.integers(-8, 8, 10_000))]
        path = tmp_path / "many.csv"
        write_results(records, path)
        with open(path, newline="", encoding="utf-8") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == 10_000
        for orig, rec in zip(records, back):
            assert int(rec["idx"]) == orig["idx"]
            assert float(rec["value"]) == orig["value"]  # exact float round trip
            assert rec["label"] == "row"


class TestManifest:
    def test_content_hashes_stable(self, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(b"12345")
        assert content_hash_file(f) == content_hash_file(f)
        assert content_hash_config({"a": 1}) == content_hash_config({"a": 1})
        assert content_hash_config({"a": 1}) != content_hash_config({"a": 2})
