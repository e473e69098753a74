package pager

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

func sealedPage(t *testing.T, id PageID, seed int64) []byte {
	t.Helper()
	phys := make([]byte, PageSize)
	rng := rand.New(rand.NewSource(seed))
	rng.Read(phys[PageHeaderSize:])
	SealPage(id, phys)
	return phys
}

func TestSealVerifyRoundTrip(t *testing.T) {
	for _, id := range []PageID{0, 1, 7, 1 << 20} {
		phys := sealedPage(t, id, int64(id)+1)
		if err := VerifyPage(id, phys); err != nil {
			t.Errorf("page %d: %v", id, err)
		}
	}
}

func TestVerifyZeroPageValid(t *testing.T) {
	phys := make([]byte, PageSize)
	if err := VerifyPage(3, phys); err != nil {
		t.Errorf("all-zero page rejected: %v", err)
	}
}

// Acceptance: every single-bit flip anywhere in a sealed page — header or
// payload — is detected.
func TestEveryBitFlipDetected(t *testing.T) {
	phys := sealedPage(t, 5, 99)
	work := make([]byte, PageSize)
	for bit := 0; bit < PageSize*8; bit++ {
		copy(work, phys)
		work[bit/8] ^= 1 << (bit % 8)
		err := VerifyPage(5, work)
		if err == nil {
			t.Fatalf("flip of bit %d undetected", bit)
		}
		var cpe *CorruptPageError
		if !errors.As(err, &cpe) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip of bit %d: wrong error type %T: %v", bit, err, err)
		}
	}
}

// A correctly sealed page read back as a different id is a misdirected
// write and must be rejected even though its checksum matches.
func TestMisdirectedWriteDetected(t *testing.T) {
	phys := sealedPage(t, 3, 7)
	err := VerifyPage(4, phys)
	if err == nil {
		t.Fatal("misdirected write undetected")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestUnsupportedFormatVersionRejected(t *testing.T) {
	phys := sealedPage(t, 1, 11)
	phys[2] = PageFormatVersion + 1
	putU32(phys[8:12], pageCRC(phys)) // reseal so only the version differs
	if err := VerifyPage(1, phys); err == nil {
		t.Fatal("future format version accepted")
	}
}

// A legacy header is recognised as active only when it is valid and marked
// so.
func TestLegacyJournalActive(t *testing.T) {
	page := make([]byte, PageSize)
	copy(page, legacyJournalMagic)
	page[8], page[9] = 1, 1
	putU32(page[24:28], crc32.Checksum(page[:24], castagnoli))
	if !LegacyJournalActive(page) {
		t.Error("an active legacy header is not recognised")
	}
	page[9] = 0
	putU32(page[24:28], crc32.Checksum(page[:24], castagnoli))
	if LegacyJournalActive(page) {
		t.Error("an inactive legacy header reads as active")
	}
	page[9] = 1
	if LegacyJournalActive(page) {
		t.Error("a torn legacy header reads as active")
	}
}
