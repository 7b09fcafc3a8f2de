"""Unit and property tests for the Vdelta-style encoder."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.apply import replay
from repro.delta.instructions import Add, Copy
from repro.delta.vdelta import BaseIndex, VdeltaEncoder


def roundtrip(base: bytes, target: bytes, **kwargs) -> None:
    encoder = VdeltaEncoder(**kwargs)
    result = encoder.encode(base, target)
    assert replay(result.instructions, base) == target


class TestEncodeBasics:
    def test_identical_documents_one_copy(self):
        base = b"the quick brown fox jumps over the lazy dog" * 4
        result = VdeltaEncoder().encode(base, base)
        assert result.instructions == [Copy(0, len(base))]
        assert result.stats.match_ratio == 1.0

    def test_unrelated_documents_all_add(self):
        base = b"a" * 100
        target = b"z" * 100
        result = VdeltaEncoder().encode(base, target)
        # a single-byte target compresses to one RUN instruction
        from repro.delta.instructions import Run

        assert result.instructions == [Run(ord("z"), 100)]
        assert result.stats.match_ratio == 0.0

    def test_unrelated_mixed_content_all_add(self):
        base = b"a" * 100
        target = b"zyxw" * 25  # no runs, nothing matching the base
        result = VdeltaEncoder().encode(base, target)
        assert result.instructions == [Add(target)]
        assert result.stats.match_ratio == 0.0

    def test_empty_base(self):
        roundtrip(b"", b"hello world, nothing to match here")

    def test_empty_target(self):
        result = VdeltaEncoder().encode(b"some base content", b"")
        assert result.instructions == []

    def test_both_empty(self):
        result = VdeltaEncoder().encode(b"", b"")
        assert result.instructions == []

    def test_small_edit(self):
        base = b"<html><body>" + b"<p>paragraph</p>" * 50 + b"</body></html>"
        target = base.replace(b"paragraph", b"PARAGRAPH", 1)
        result = VdeltaEncoder().encode(base, target)
        assert replay(result.instructions, base) == target
        # most of the document should be copied
        assert result.stats.match_ratio > 0.9

    def test_insertion_in_middle(self):
        base = b"0123456789" * 20
        target = base[:100] + b"INSERTED CONTENT" + base[100:]
        roundtrip(base, target)

    def test_deletion_in_middle(self):
        base = b"0123456789" * 20
        target = base[:50] + base[120:]
        roundtrip(base, target)

    def test_reordered_blocks(self):
        block_a = b"A" * 40 + b"unique-a-suffix!"
        block_b = b"B" * 40 + b"unique-b-suffix!"
        roundtrip(block_a + block_b, block_b + block_a)

    def test_repeated_base_content(self):
        # Highly repetitive base exercises the per-key chain cap.
        base = b"<td>cell</td>" * 500
        target = b"<td>cell</td>" * 499 + b"<td>diff</td>"
        roundtrip(base, target)


class TestBackwardExtension:
    def test_backward_extension_shrinks_literals(self):
        # Construct a case where the hash probe lands mid-match: the target
        # shares a long run with the base, but the first chunk of the run
        # also appears elsewhere, so the greedy scan may enter the run late.
        base = b"X" * 64 + b"abcdefghijklmnopqrstuvwxyz0123456789" + b"Y" * 64
        target = b"prefix-" + b"abcdefghijklmnopqrstuvwxyz0123456789" + b"-suffix"
        forward_only = VdeltaEncoder(backward=False).encode(base, target)
        with_backward = VdeltaEncoder(backward=True).encode(base, target)
        assert replay(forward_only.instructions, base) == target
        assert replay(with_backward.instructions, base) == target
        assert (
            with_backward.stats.copied_bytes >= forward_only.stats.copied_bytes
        )

    def test_backward_never_crosses_previous_copy(self):
        base = b"abcdef" * 30
        target = b"abcdef" * 30
        result = VdeltaEncoder().encode(base, target)
        # produced instructions must tile the target exactly
        assert replay(result.instructions, base) == target


class TestEncoderConfig:
    def test_min_match_below_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            VdeltaEncoder(chunk_size=8, min_match=4)

    def test_larger_chunks_still_roundtrip(self):
        base = bytes(random.Random(1).randrange(256) for _ in range(2000))
        target = base[:700] + b"edit" + base[900:]
        roundtrip(base, target, chunk_size=16, min_match=16)

    def test_step_sampling_still_roundtrips(self):
        base = b"0123456789abcdef" * 100
        target = base[:500] + b"@@@" + base[500:]
        roundtrip(base, target, step=8)

    def test_index_reuse_matches_one_shot(self):
        encoder = VdeltaEncoder()
        base = b"shared content block " * 40
        index = encoder.index(base)
        target = base.replace(b"shared", b"SHARED", 3)
        via_index = encoder.encode_with_index(index, target)
        one_shot = encoder.encode(base, target)
        assert via_index.instructions == one_shot.instructions

    def test_index_chains_leave_the_collector(self):
        # A server keeps hundreds of thousands of chains alive; tuples of
        # ints drop out of the cyclic collector's generations after one
        # pass, so full collections stop walking them.
        index = BaseIndex(b"shared content block " * 40, chunk_size=4)
        assert max(len(chain) for chain in index.table.values()) > 1
        gc.collect()
        assert not any(gc.is_tracked(chain) for chain in index.table.values())

    def test_index_chains_keep_first_positions_in_order(self):
        base = b"abab" * 50
        index = BaseIndex(base, chunk_size=2, max_chain=5)
        assert index.candidates(b"ab") == (0, 2, 4, 6, 8)
        assert index.candidates(b"ba") == (1, 3, 5, 7, 9)
        assert index.candidates(b"zz") == ()
        sparse = BaseIndex(base, chunk_size=2, step=4, max_chain=64)
        assert sparse.candidates(b"ab") == tuple(range(0, 199, 4))

    def test_index_chunk_size_mismatch_rejected(self):
        encoder = VdeltaEncoder(chunk_size=4)
        index = BaseIndex(b"some base", chunk_size=8)
        with pytest.raises(ValueError):
            encoder.encode_with_index(index, b"target")


class TestStats:
    def test_stats_sum_to_target_length(self):
        base = b"hello world " * 30
        target = b"hello there " * 30
        result = VdeltaEncoder().encode(base, target)
        total = result.stats.copied_bytes + result.stats.added_bytes
        assert total == len(target)

    def test_instruction_counts(self):
        base = b"aaaa bbbb cccc dddd " * 20
        target = base + b"tail"
        result = VdeltaEncoder().encode(base, target)
        copies = sum(1 for i in result.instructions if isinstance(i, Copy))
        adds = len(result.instructions) - copies
        assert result.stats.copies == copies
        assert result.stats.adds == adds


@settings(max_examples=150, deadline=None)
@given(
    base=st.binary(max_size=400),
    target=st.binary(max_size=400),
)
def test_roundtrip_property(base, target):
    """Any (base, target) pair reconstructs exactly."""
    result = VdeltaEncoder().encode(base, target)
    assert replay(result.instructions, base) == target


@settings(max_examples=60, deadline=None)
@given(
    base=st.binary(min_size=50, max_size=300),
    splice_at=st.integers(min_value=0, max_value=300),
    insert=st.binary(max_size=50),
)
def test_roundtrip_on_edited_base(base, splice_at, insert):
    """Targets derived from the base by splicing reconstruct exactly."""
    cut = min(splice_at, len(base))
    target = base[:cut] + insert + base[cut:]
    result = VdeltaEncoder().encode(base, target)
    assert replay(result.instructions, base) == target
    # Derived targets should mostly be copies once they are long enough.
    if len(base) >= 100 and not insert:
        assert result.stats.match_ratio > 0.5
