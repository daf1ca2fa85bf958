"""Database ingestion: streaming FASTA and the greedy length-bucket packer."""

import numpy as np
import pytest

from repro.core import PAD_CODE
from repro.seq import (
    AlphabetError,
    content_digest,
    encode,
    pack_database,
    random_dna,
    read_fasta,
    stream_fasta,
    synthetic_database,
    write_fasta,
)
from repro.seq.db import pack_subset


@pytest.fixture
def db(rng):
    return synthetic_database(n=60, min_length=20, max_length=200, rng=rng)


class TestStreamFasta:
    def test_round_trips_write_fasta(self, tmp_path, db):
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        streamed = list(stream_fasta(path))
        assert [r.name for r in streamed] == [r.name for r in db]
        for got, want in zip(streamed, db):
            np.testing.assert_array_equal(got.codes, want.codes)

    def test_matches_read_fasta(self, tmp_path, db):
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        assert [r.name for r in stream_fasta(path)] == [r.name for r in read_fasta(path)]

    def test_is_lazy(self, tmp_path, db):
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        gen = stream_fasta(path)
        assert next(gen).name == db[0].name  # only the head was parsed
        gen.close()


class TestPackDatabase:
    def test_indices_partition_the_database(self, db):
        packed = pack_database(db, max_lanes=16)
        seen = sorted(i for b in packed.buckets for i in b.indices.tolist())
        assert seen == list(range(len(db)))
        assert packed.n_sequences == len(db)

    def test_lanes_in_database_order_within_bucket(self, db):
        packed = pack_database(db, max_lanes=16)
        for bucket in packed.buckets:
            assert bucket.indices.tolist() == sorted(bucket.indices.tolist())

    def test_lane_contents_match_records(self, db):
        packed = pack_database(db, max_lanes=16)
        for bucket in packed.buckets:
            for lane, index in enumerate(bucket.indices.tolist()):
                length = int(bucket.lengths[lane])
                assert length == len(db[index].codes)
                np.testing.assert_array_equal(
                    bucket.codes[lane, :length], db[index].codes
                )
                assert (bucket.codes[lane, length:] == PAD_CODE).all()

    def test_max_lanes_cap(self, db):
        packed = pack_database(db, max_lanes=7)
        assert all(b.lanes <= 7 for b in packed.buckets)

    def test_max_waste_invariant(self, db):
        packed = pack_database(db, max_lanes=512, max_waste=0.1)
        for bucket in packed.buckets:
            assert int(bucket.lengths.min()) >= (1.0 - 0.1) * bucket.width

    def test_accepts_name_codes_tuples(self, rng):
        packed = pack_database([("a", random_dna(10, rng)), ("b", random_dna(5, rng))])
        assert packed.names == ["a", "b"]
        assert packed.lengths.tolist() == [10, 5]

    def test_small_window_still_packs_everything(self, db):
        packed = pack_database(db, max_lanes=16, window=8)
        seen = sorted(i for b in packed.buckets for i in b.indices.tolist())
        assert seen == list(range(len(db)))

    def test_empty_database(self):
        packed = pack_database([])
        assert packed.buckets == []
        assert packed.n_sequences == 0
        assert packed.total_residues == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            pack_database([], max_lanes=0)
        with pytest.raises(ValueError):
            pack_database([], max_waste=1.0)

    @pytest.mark.parametrize("window", [0, -3])
    def test_nonpositive_window_is_refused(self, db, window):
        """Refused, not packed one record per bucket as if window were 1."""
        with pytest.raises(ValueError, match="window"):
            pack_database(db, window=window)

    def test_str_codes_are_encoded(self):
        """Text sequences go through ``encode``, as ``search_db`` queries do."""
        packed = pack_database([("x", "ACGT"), ("y", "ggc"), ("z", "")])
        want = pack_database([("x", encode("ACGT")), ("y", encode("ggc")), ("z", encode(""))])
        assert content_digest(packed) == content_digest(want)
        assert packed.buckets[0].codes[0].tolist() == [0, 1, 2, 3]
        with pytest.raises(AlphabetError):
            pack_database([("n", "ACNT")])

    def test_ingest_spans(self, tmp_path, db):
        """A traced ingest names its stages: parse per block, pack per window."""
        from repro.obs import observed

        path = tmp_path / "db.fa"
        write_fasta(path, db)
        with observed() as (tracer, _):
            pack_database(stream_fasta(path), window=25)
        names = [span.name for span in tracer.spans]
        assert names.count("pack") == 3  # 60 records in windows of 25
        parse = [span for span in tracer.spans if span.name == "fasta_parse"]
        assert parse and sum(span.args["bytes"] for span in parse) == path.stat().st_size

    def test_padded_slots_accounting(self, db):
        packed = pack_database(db, max_lanes=16)
        assert packed.padded_slots >= packed.total_residues
        assert packed.total_residues == sum(len(r.codes) for r in db)


class TestSyntheticDatabase:
    def test_deterministic_for_seed(self):
        a = synthetic_database(n=5, rng=3)
        b = synthetic_database(n=5, rng=3)
        for x, y in zip(a, b):
            assert x.name == y.name
            np.testing.assert_array_equal(x.codes, y.codes)

    def test_lengths_in_range(self):
        for r in synthetic_database(n=20, min_length=10, max_length=12, rng=1):
            assert 10 <= len(r.codes) <= 12

    def test_names_sort_in_database_order(self):
        names = [r.name for r in synthetic_database(n=11, rng=0)]
        assert names == sorted(names)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_database(n=-1)
        with pytest.raises(ValueError):
            synthetic_database(min_length=10, max_length=5)


def naive_pack_subset(packed, indices, max_lanes, max_waste):
    """The per-lane reference: the wanted ``(index, codes)`` records, cut
    by the per-record oracle packer (``tests/_packing.py``)."""
    from _packing import reference_buckets

    from repro.seq.db import PackedDatabase

    wanted = {int(i) for i in indices}
    buffer = []
    for bucket in packed.buckets:
        for lane in range(bucket.lanes):
            index = int(bucket.indices[lane])
            if index in wanted:
                buffer.append((index, bucket.codes[lane, : int(bucket.lengths[lane])]))
    if len(buffer) != len(wanted):
        raise ValueError("not in the database")
    buffer.sort(key=lambda item: item[0])
    buckets = reference_buckets(buffer, max_lanes, max_waste)
    return PackedDatabase(buckets=buckets, names=packed.names, lengths=packed.lengths)


def assert_same_packing(got, want):
    assert len(got.buckets) == len(want.buckets)
    for g, w in zip(got.buckets, want.buckets):
        for field in ("codes", "lengths", "indices"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field
    assert got.names is want.names or got.names == want.names
    assert got.lengths is want.lengths


class TestRepackMatchesPerLaneReference:
    """``pack_subset`` gathers whole blocks at a time; the buckets it cuts
    must equal the per-lane reference bit for bit."""

    @pytest.fixture
    def packed(self, rng):
        records = synthetic_database(n=90, min_length=0, max_length=70, rng=rng)
        return pack_database(records, max_lanes=16, max_waste=0.3, window=40)

    @pytest.mark.parametrize("max_lanes,max_waste", [(512, 0.15), (4, 0.5), (1, 0.0), (7, 0.9)])
    def test_pack_subset_random_subsets(self, packed, max_lanes, max_waste):
        rng = np.random.default_rng(max_lanes)
        n = packed.n_sequences
        subsets = [np.zeros(0, np.int64), np.arange(n), np.arange(n)[::-1]]
        subsets += [rng.choice(n, size=int(rng.integers(1, n)), replace=False) for _ in range(8)]
        for wanted in subsets:
            got = pack_subset(packed, wanted, max_lanes, max_waste)
            assert_same_packing(got, naive_pack_subset(packed, wanted, max_lanes, max_waste))
            assert got._bound_index == {}

    def test_duplicates_and_plain_lists(self, packed):
        wanted = [5, 3, 5, 40, 3]
        got = pack_subset(packed, wanted, 8, 0.2)
        assert_same_packing(got, naive_pack_subset(packed, wanted, 8, 0.2))

    def test_empty_database(self):
        empty = pack_database([])
        assert pack_subset(empty, [], 4, 0.5).buckets == []

    @pytest.mark.parametrize("bad", [[90], [-1], [0, 1, 1000]])
    def test_missing_index_raises(self, packed, bad):
        with pytest.raises(ValueError, match="not in the database"):
            pack_subset(packed, bad, 4, 0.5)
