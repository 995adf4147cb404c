"""Scratchpad heap-residency tests."""

from repro.hardware.spm import heap_spm_access_fraction


class TestHeapResidency:
    """The level-wise spill model behind 'the majority of comparisons
    and swaps still happen in the SPM' (Section III-A)."""

    def test_fits_entirely(self):
        assert heap_spm_access_fraction(100, 1024) == 1.0

    def test_no_spm(self):
        assert heap_spm_access_fraction(100, 0) == 0.0

    def test_empty_heap(self):
        assert heap_spm_access_fraction(0, 10) == 1.0

    def test_majority_resident_on_mild_spill(self):
        # heap 2x the SPM: only the last level spills
        f = heap_spm_access_fraction(2048, 1024)
        assert f > 0.5

    def test_fraction_decreases_with_heap_size(self):
        fractions = [
            heap_spm_access_fraction(words, 256)
            for words in (256, 1024, 16384, 1 << 20)
        ]
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[-1] > 0.0  # top levels always resident
