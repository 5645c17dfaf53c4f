package psc

import (
	"fmt"
	"sync"

	"repro/internal/elgamal"
	"repro/internal/spill"
)

// spillSlot is the fixed record size: a ciphertext in elgamal's
// fixed-width encoding, two 65-byte points with an identity as 65 zero
// bytes.
const spillSlot = 130

// ctSpill is the ciphertext codec over a spill.Store: a random-access
// store of n encoded ciphertexts backing the streaming shuffle's
// inter-pass vectors, the tally's combined gather table, and the
// pre-decrypt buffer. It holds O(1) ciphertexts in memory — encoded
// records are ~10× smaller than parsed ciphertexts and never enter the
// heap as group elements until read.
type ctSpill struct {
	st *spill.Store
}

// newSpill creates a store for n ciphertexts. The backing respects the
// process spill dir (-spill-dir), falling back to memory where that dir
// is unwritable.
func newSpill(n int) (*ctSpill, error) {
	st, err := spill.New(n, spillSlot)
	if err != nil {
		return nil, err
	}
	return &ctSpill{st: st}, nil
}

// write stores cts at element offset off.
func (s *ctSpill) write(off int, cts []elgamal.Ciphertext) error {
	return s.st.WriteAt(off, encodeSlots(cts))
}

// encodeSlots packs ciphertexts into fixed-size spill records.
func encodeSlots(cts []elgamal.Ciphertext) []byte {
	buf := make([]byte, 0, len(cts)*spillSlot)
	for _, c := range cts {
		buf = c.AppendFixed(buf)
	}
	return buf
}

// readRange returns the count elements starting at off.
func (s *ctSpill) readRange(off, count int) ([]elgamal.Ciphertext, error) {
	raw, err := s.st.ReadRange(off, count)
	if err != nil {
		return nil, err
	}
	return decodeSlots(raw, count)
}

// readRangeScratch is readRange reading through the caller's scratch
// buffer instead of the store's shared one — for concurrent readers of
// disjoint ranges (the gather store's stripes). It returns the decoded
// elements and the possibly-grown scratch for reuse.
func (s *ctSpill) readRangeScratch(off, count int, scratch []byte) ([]elgamal.Ciphertext, []byte, error) {
	raw, scratch, err := s.st.ReadRangeInto(off, count, scratch)
	if err != nil {
		return nil, scratch, err
	}
	out, err := decodeSlots(raw, count)
	return out, scratch, err
}

// readIndices gathers the elements at the given offsets — the strided
// read of a column pass.
func (s *ctSpill) readIndices(idx []int) ([]elgamal.Ciphertext, error) {
	out := make([]elgamal.Ciphertext, 0, len(idx))
	var slot [spillSlot]byte
	for _, i := range idx {
		if err := s.st.ReadSlot(i, slot[:]); err != nil {
			return nil, err
		}
		c, err := decodeSlot(slot[:])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// decodeSlots parses the count fixed-size records at the front of raw.
func decodeSlots(raw []byte, count int) ([]elgamal.Ciphertext, error) {
	out := make([]elgamal.Ciphertext, 0, count)
	for i := 0; i < count; i++ {
		c, err := decodeSlot(raw[i*spillSlot:])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// decodeSlot parses one fixed-size record.
func decodeSlot(b []byte) (elgamal.Ciphertext, error) {
	c, err := elgamal.ParseFixedCiphertext(b)
	if err != nil {
		return elgamal.Ciphertext{}, fmt.Errorf("psc: corrupt spill slot: %w", err)
	}
	return c, nil
}

// Close releases the backing storage. Safe to call more than once.
func (s *ctSpill) Close() error {
	return s.st.Close()
}

// lockedSpill serializes a ctSpill shared by concurrent readers (the
// tally's per-CP decrypt streams all walk the final vector) and makes
// closing safe while readers may still be in flight: a round-failure
// path can tear the spill down and any late reader gets an error, not
// a read of released storage.
type lockedSpill struct {
	mu     sync.Mutex
	sp     *ctSpill
	closed bool
}

func (ls *lockedSpill) readRange(off, count int) ([]elgamal.Ciphertext, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return nil, fmt.Errorf("psc: spill closed")
	}
	return ls.sp.readRange(off, count)
}

// Close releases the underlying spill; subsequent reads error.
func (ls *lockedSpill) Close() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.closed = true
	return ls.sp.Close()
}
