// Package spill provides bounded-residency record stores: fixed-slot
// vectors written sequentially by one phase of a protocol and read back
// — contiguously or strided — by the next, holding O(1) records in
// memory. The PSC shuffle's inter-pass vectors, the tally's gather
// table and pre-decrypt buffer, and the PrivCount tally's per-DC
// report buffers all live here, which is what takes a tally
// server's residency from O(bins) to O(chunk) end to end.
//
// Records live in an unlinked temp file (the kernel reclaims the
// blocks when the handle closes, however the process exits), falling
// back to an in-memory byte buffer — with a logged metric — where the
// configured directory is unwritable. Encoded records are typically an
// order of magnitude smaller than their parsed in-heap forms and never
// enter the heap until read.
package spill

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"repro/internal/metrics"
)

var (
	dirMu sync.Mutex
	dir   string
)

// SetDir configures the directory spill files are created in. The
// empty string (the default) selects the system temp dir. Daemons wire
// this to -spill-dir so operators can point multi-gigabyte rounds at a
// scratch disk instead of a tmpfs-backed /tmp.
func SetDir(d string) {
	dirMu.Lock()
	dir = d
	dirMu.Unlock()
}

// Dir returns the configured spill directory ("" means the system temp
// dir).
func Dir() string {
	dirMu.Lock()
	defer dirMu.Unlock()
	return dir
}

// Store is a random-access store of n fixed-size records. It is not
// safe for concurrent use: every store in the protocol layers has one
// owning goroutine at a time, and changes hands whole.
type Store struct {
	n, slot int
	file    *os.File // nil when memory-backed
	mem     []byte
	readBuf []byte
}

// New creates a store for n records of slot bytes each. It never fails
// on storage grounds: an unwritable spill directory falls back to an
// in-memory buffer, counted in the process-wide metrics registry as
// spill/mem-fallbacks and logged once per store — still far below
// parsed-record residency, but no longer disk-bounded, which operators
// sizing a million-bin round need to see.
func New(n, slot int) (*Store, error) {
	if n < 0 || slot <= 0 {
		return nil, fmt.Errorf("spill: store of %d records × %d bytes", n, slot)
	}
	s := &Store{n: n, slot: slot}
	f, err := os.CreateTemp(Dir(), "spill-*.dat")
	if err != nil {
		metrics.Default().Inc("spill/mem-fallbacks")
		log.Printf("spill: %v; falling back to memory (%d B)", err, n*slot)
		s.mem = make([]byte, n*slot)
		return s, nil
	}
	// Unlink immediately: the kernel reclaims the blocks when the file
	// handle closes, however the process exits.
	os.Remove(f.Name())
	s.file = f
	return s, nil
}

// Slots returns the record count the store was created for.
func (s *Store) Slots() int { return s.n }

// InMemory reports whether the store fell back to a memory buffer.
func (s *Store) InMemory() bool { return s.file == nil && s.mem != nil }

// WriteAt stores len(buf)/slot-size records at record offset off. buf
// must be a whole number of slots.
func (s *Store) WriteAt(off int, buf []byte) error {
	if len(buf)%s.slot != 0 {
		return fmt.Errorf("spill: write of %d bytes is not a whole number of %d-byte slots", len(buf), s.slot)
	}
	count := len(buf) / s.slot
	if off < 0 || off+count > s.n {
		return fmt.Errorf("spill: write [%d,%d) out of range %d", off, off+count, s.n)
	}
	if s.file != nil {
		_, err := s.file.WriteAt(buf, int64(off)*int64(s.slot))
		return err
	}
	if s.mem == nil {
		return fmt.Errorf("spill: store closed")
	}
	copy(s.mem[off*s.slot:], buf)
	return nil
}

// ReadRange returns the raw bytes of count records starting at record
// offset off. The returned slice aliases an internal buffer (or the
// memory backing) and is only valid until the next Read call.
func (s *Store) ReadRange(off, count int) ([]byte, error) {
	if off < 0 || count < 0 || off+count > s.n {
		return nil, fmt.Errorf("spill: read [%d,%d) out of range %d", off, off+count, s.n)
	}
	return s.raw(int64(off)*int64(s.slot), count*s.slot)
}

// ReadSlot reads record i into buf, which must be at least one slot
// long. One slot is read per call — the strided gather of a column
// pass; sequential writes leave the file hot in the page cache, so the
// gather costs syscalls, not seeks.
func (s *Store) ReadSlot(i int, buf []byte) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("spill: slot %d out of range %d", i, s.n)
	}
	if len(buf) < s.slot {
		return fmt.Errorf("spill: %d-byte buffer for %d-byte slot", len(buf), s.slot)
	}
	if s.file != nil {
		return readFull(s.file, buf[:s.slot], int64(i)*int64(s.slot))
	}
	if s.mem == nil {
		return fmt.Errorf("spill: store closed")
	}
	copy(buf[:s.slot], s.mem[i*s.slot:])
	return nil
}

// raw returns count bytes at byte offset pos, reusing the read buffer.
func (s *Store) raw(pos int64, count int) ([]byte, error) {
	if s.file == nil {
		if s.mem == nil {
			return nil, fmt.Errorf("spill: store closed")
		}
		return s.mem[pos : pos+int64(count)], nil
	}
	if cap(s.readBuf) < count {
		s.readBuf = make([]byte, count)
	}
	buf := s.readBuf[:count]
	if err := readFull(s.file, buf, pos); err != nil {
		return nil, err
	}
	return buf, nil
}

// readFull fills buf from f at pos. A read that ends early — slots past
// the last one written — is io.ErrUnexpectedEOF, never a buffer left
// holding bytes from before the call.
func readFull(f *os.File, buf []byte, pos int64) error {
	n, err := f.ReadAt(buf, pos)
	if n == len(buf) {
		return nil
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("spill: read of %d bytes at %d: %w", len(buf), pos, err)
}

// Close releases the backing storage. Safe to call more than once;
// subsequent reads and writes error.
func (s *Store) Close() error {
	s.mem, s.readBuf = nil, nil
	if s.file == nil {
		return nil
	}
	f := s.file
	s.file = nil
	return f.Close()
}
