package psc

import (
	"fmt"

	"repro/internal/elgamal"
	"repro/internal/spill"
)

// spillSlot is the fixed record size: a ciphertext in elgamal's
// fixed-width spill encoding, two uncompressed 65-byte points with an
// identity as 65 zero bytes, so a read needs no square root.
const spillSlot = 130

// ctSpill is the ciphertext codec over a spill.Store: a random-access
// store of n encoded ciphertexts backing the streaming shuffle's
// row-pass outputs (one per CP and one per CP stage on the tally), the
// tally's per-DC and combined gather tables, and the pre-decrypt
// buffer. It holds O(1) ciphertexts in memory — encoded records are
// ~10× smaller than parsed ciphertexts and never enter the heap as
// group elements until read. Like the Store it is not safe for
// concurrent use: every ctSpill has one owning goroutine at a time.
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

// add folds other, a whole vector of the same length, into s a chunk at
// a time: element-wise ciphertext sums, OR in the exponent of PSC's
// bins, one BatchAddCiphertexts call per chunk.
func (s *ctSpill) add(other *ctSpill) error {
	return forEachChunk(s.st.Slots(), func(off, end int) error {
		cur, err := s.readRange(off, end-off)
		if err != nil {
			return err
		}
		cts, err := other.readRange(off, end-off)
		if err != nil {
			return err
		}
		return s.write(off, elgamal.BatchAddCiphertexts(cur, cts))
	})
}

// readColumnGroup returns the input of column-pass block b: the
// elements of the spilled row-pass output that the block's column group
// covers, in grid.inIndex order. Prover and verifier both read the
// column pass through it, each from its own spill.
func (s *ctSpill) readColumnGroup(g grid, b int) ([]elgamal.Ciphertext, error) {
	n := g.blockLen(2, b)
	out := make([]elgamal.Ciphertext, 0, n)
	var slot [spillSlot]byte
	for j := 0; j < n; j++ {
		if err := s.st.ReadSlot(g.inIndex(2, b, j), slot[:]); err != nil {
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
