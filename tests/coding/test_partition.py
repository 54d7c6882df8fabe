"""Unit and property tests for row partitioning and chunk grids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.partition import ChunkGrid, RowPartition


class TestRowPartition:
    def test_exact_division(self):
        part = RowPartition(12, 3)
        assert part.block_rows == 4
        assert part.padded_rows == 12
        assert part.pad == 0

    def test_padding(self):
        part = RowPartition(10, 3)
        assert part.block_rows == 4
        assert part.padded_rows == 12
        assert part.pad == 2

    def test_pad_matrix_no_copy_when_exact(self):
        part = RowPartition(6, 3)
        a = np.arange(12.0).reshape(6, 2)
        assert part.pad_matrix(a) is a

    def test_pad_matrix_appends_zeros(self):
        part = RowPartition(5, 3)
        a = np.ones((5, 2))
        padded = part.pad_matrix(a)
        assert padded.shape == (6, 2)
        assert np.all(padded[5] == 0)

    def test_pad_matrix_wrong_rows_raises(self):
        with pytest.raises(ValueError, match="rows"):
            RowPartition(5, 3).pad_matrix(np.ones((4, 2)))

    def test_blocks_roundtrip(self):
        part = RowPartition(10, 4)
        a = np.random.default_rng(0).normal(size=(10, 3))
        blocks = part.blocks(a)
        assert blocks.shape == (4, part.block_rows, 3)
        np.testing.assert_array_equal(part.unpad(blocks), a)

    def test_unpad_shape_check(self):
        part = RowPartition(10, 4)
        with pytest.raises(ValueError, match="leading shape"):
            part.unpad(np.zeros((3, part.block_rows, 2)))

    def test_block_of_row(self):
        part = RowPartition(10, 4)  # block_rows == 3
        assert part.block_of_row(0) == (0, 0)
        assert part.block_of_row(3) == (1, 0)
        assert part.block_of_row(9) == (3, 0)

    def test_block_of_row_out_of_range(self):
        with pytest.raises(IndexError):
            RowPartition(10, 4).block_of_row(10)

    def test_k_larger_than_rows_rejected(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            RowPartition(3, 5)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            RowPartition(0, 1)

    @given(rows=st.integers(1, 500), k=st.integers(1, 20))
    def test_property_pad_bounds(self, rows, k):
        if k > rows:
            rows, k = k, rows
            if k < 1:
                k = 1
        part = RowPartition(rows, k)
        assert 0 <= part.pad < k
        assert part.padded_rows == part.block_rows * k
        assert part.padded_rows >= rows

    @given(
        rows=st.integers(2, 120),
        k=st.integers(1, 12),
        cols=st.integers(1, 4),
    )
    @settings(max_examples=50)
    def test_property_blocks_unpad_roundtrip(self, rows, k, cols):
        k = min(k, rows)
        part = RowPartition(rows, k)
        rng = np.random.default_rng(rows * 31 + k)
        a = rng.normal(size=(rows, cols))
        np.testing.assert_array_equal(part.unpad(part.blocks(a)), a)


class TestChunkGrid:
    def test_even_chunks(self):
        grid = ChunkGrid(12, 4)
        np.testing.assert_array_equal(grid.chunk_sizes(), [3, 3, 3, 3])
        assert grid.chunk_bounds(0) == (0, 3)
        assert grid.chunk_bounds(3) == (9, 12)

    def test_uneven_chunks_interleaved(self):
        grid = ChunkGrid(10, 4)
        np.testing.assert_array_equal(grid.chunk_sizes(), [2, 3, 2, 3])

    def test_arc_balance_property(self):
        # Any consecutive arc of m chunks carries m*rows/num_chunks rows
        # to within one row (what S2C2's wrap-around layout relies on).
        grid = ChunkGrid(80, 60)
        sizes = grid.chunk_sizes()
        doubled = np.concatenate([sizes, sizes])
        avg = 80 / 60
        for arc_len in (1, 7, 23, 59):
            arcs = np.convolve(doubled, np.ones(arc_len), mode="valid")
            assert arcs.max() - arcs.min() <= 1.0
            assert abs(arcs.max() - arc_len * avg) <= 1.0

    def test_offsets_sentinel(self):
        grid = ChunkGrid(10, 4)
        offsets = grid.chunk_offsets()
        assert offsets[0] == 0
        assert offsets[-1] == 10

    def test_rows_of_chunks(self):
        grid = ChunkGrid(10, 4)
        rows = grid.rows_of_chunks(np.array([0, 2]))
        np.testing.assert_array_equal(rows, [0, 1, 5, 6])

    def test_rows_of_chunks_empty(self):
        grid = ChunkGrid(10, 4)
        assert grid.rows_of_chunks(np.array([], dtype=int)).size == 0

    def test_rows_of_chunks_out_of_range(self):
        with pytest.raises(IndexError):
            ChunkGrid(10, 4).rows_of_chunks(np.array([4]))

    def test_chunk_of_row_inverse(self):
        grid = ChunkGrid(10, 4)
        for row in range(10):
            chunk = grid.chunk_of_row(row)
            begin, end = grid.chunk_bounds(chunk)
            assert begin <= row < end

    def test_chunk_of_row_out_of_range(self):
        with pytest.raises(IndexError):
            ChunkGrid(10, 4).chunk_of_row(10)

    def test_more_chunks_than_rows_rejected(self):
        with pytest.raises(ValueError, match="cannot exceed"):
            ChunkGrid(3, 5)

    def test_row_coverage_expansion(self):
        grid = ChunkGrid(10, 4)
        cov = grid.row_coverage_from_chunk_coverage(np.array([2, 1, 0, 3]))
        # sizes are [2, 3, 2, 3] with interleaved spreading
        np.testing.assert_array_equal(cov, [2, 2, 1, 1, 1, 0, 0, 3, 3, 3])

    def test_row_coverage_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            ChunkGrid(10, 4).row_coverage_from_chunk_coverage(np.zeros(3))

    @given(rows=st.integers(1, 400), chunks=st.integers(1, 40))
    @settings(max_examples=60)
    def test_property_sizes_partition_rows(self, rows, chunks):
        chunks = min(chunks, rows)
        grid = ChunkGrid(rows, chunks)
        sizes = grid.chunk_sizes()
        assert sizes.sum() == rows
        assert sizes.max() - sizes.min() <= 1
        all_rows = grid.rows_of_chunks(np.arange(chunks))
        np.testing.assert_array_equal(all_rows, np.arange(rows))


def expand_rows_loop(grid: ChunkGrid, chunks) -> np.ndarray:
    """The per-chunk ``np.arange`` expansion ``rows_of_chunks`` replaced."""
    chunks = np.asarray(chunks, dtype=np.int64)
    if chunks.size == 0:
        return np.empty(0, dtype=np.int64)
    if chunks.min() < 0 or chunks.max() >= grid.num_chunks:
        raise IndexError("chunk index out of range")
    offsets = grid.chunk_offsets()
    return np.concatenate(
        [np.arange(offsets[c], offsets[c + 1], dtype=np.int64) for c in chunks]
    )


class TestRowsOfChunksMatchesLoop:
    """``rows_of_chunks`` (offsets + ``np.repeat``) and ``row_count``
    pinned against the per-chunk expansion, corners included."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 90),
        data=st.data(),
    )
    def test_drawn_chunk_lists(self, rows, data):
        grid = ChunkGrid(rows, data.draw(st.integers(1, rows)))
        chunks = data.draw(
            st.lists(st.integers(0, grid.num_chunks - 1), max_size=3 * grid.num_chunks)
        )
        expected = expand_rows_loop(grid, chunks)
        got = grid.rows_of_chunks(np.array(chunks, dtype=np.int64))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        assert grid.row_count(chunks) == expected.size
        assert type(grid.row_count(chunks)) is int

    @pytest.mark.parametrize(
        "chunks",
        [[], [3], [2, 2, 2], [5, 0, 3, 0], [6, 5, 4, 3, 2, 1, 0], list(range(7))],
    )
    def test_empty_repeated_unsorted(self, chunks):
        grid = ChunkGrid(23, 7)
        expected = expand_rows_loop(grid, chunks)
        np.testing.assert_array_equal(grid.rows_of_chunks(chunks), expected)
        assert grid.rows_of_chunks(chunks).dtype == np.int64
        assert grid.row_count(chunks) == expected.size

    @pytest.mark.parametrize("chunks", [[7], [-1], [0, 7], [3, -2, 1]])
    def test_out_of_range_raises_like_loop(self, chunks):
        grid = ChunkGrid(23, 7)
        with pytest.raises(IndexError, match="chunk index out of range"):
            expand_rows_loop(grid, chunks)
        with pytest.raises(IndexError, match="chunk index out of range"):
            grid.rows_of_chunks(chunks)
        with pytest.raises(IndexError, match="chunk index out of range"):
            grid.row_count(chunks)
