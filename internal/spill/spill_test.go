package spill

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

func fill(slot, i int) []byte {
	buf := make([]byte, slot)
	for j := range buf {
		buf[j] = byte(i + j)
	}
	return buf
}

// TestRoundTrip exercises sequential writes followed by contiguous and
// strided reads, for both backings.
func TestRoundTrip(t *testing.T) {
	for _, mem := range []bool{false, true} {
		const n, slot = 100, 17
		s, err := New(n, slot)
		if err != nil {
			t.Fatal(err)
		}
		if mem {
			// Force the memory backing to run the same assertions on
			// the fallback path.
			s.file.Close()
			s.file, s.mem = nil, make([]byte, n*slot)
		}
		if s.InMemory() != mem {
			t.Fatalf("InMemory() = %v, want %v", s.InMemory(), mem)
		}
		for i := 0; i < n; i += 4 {
			count := 4
			if i+count > n {
				count = n - i
			}
			var chunk []byte
			for j := 0; j < count; j++ {
				chunk = append(chunk, fill(slot, i+j)...)
			}
			if err := s.WriteAt(i, chunk); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.ReadRange(10, 5)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if !bytes.Equal(got[j*slot:(j+1)*slot], fill(slot, 10+j)) {
				t.Fatalf("mem=%v: record %d mismatch", mem, 10+j)
			}
		}
		buf := make([]byte, slot)
		for _, i := range []int{0, 13, 42, n - 1} {
			if err := s.ReadSlot(i, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, fill(slot, i)) {
				t.Fatalf("mem=%v: strided record %d mismatch", mem, i)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if _, err := s.ReadRange(0, 1); err == nil {
			t.Fatal("read after close succeeded")
		}
		if err := s.WriteAt(0, make([]byte, slot)); err == nil {
			t.Fatal("write after close succeeded")
		}
	}
}

// TestUnwritableDirFallsBack is the satellite failure-path test: a spill
// dir that cannot be written must degrade to the in-memory backing and
// count the fallback, not fail the round.
func TestUnwritableDirFallsBack(t *testing.T) {
	defer SetDir(Dir())
	SetDir(filepath.Join(t.TempDir(), "does", "not", "exist"))
	before := metrics.Default().Get("spill/mem-fallbacks")
	s, err := New(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.InMemory() {
		t.Fatal("store is file-backed despite unwritable dir")
	}
	if got := metrics.Default().Get("spill/mem-fallbacks"); got != before+1 {
		t.Fatalf("mem-fallbacks = %g, want %g", got, before+1)
	}
	if err := s.WriteAt(3, fill(4, 3)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRange(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(4, 3)) {
		t.Fatal("fallback store round-trip mismatch")
	}
}

// TestConfiguredDirUsed checks SetDir actually routes files there.
func TestConfiguredDirUsed(t *testing.T) {
	defer SetDir(Dir())
	SetDir(t.TempDir())
	before := metrics.Default().Get("spill/mem-fallbacks")
	s, err := New(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.InMemory() {
		t.Fatal("store fell back to memory in a writable dir")
	}
	if got := metrics.Default().Get("spill/mem-fallbacks"); got != before {
		t.Fatalf("mem-fallbacks moved: %g -> %g", before, got)
	}
}

func TestBounds(t *testing.T) {
	s, err := New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteAt(8, make([]byte, 3*4)); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if err := s.WriteAt(0, make([]byte, 5)); err == nil {
		t.Fatal("ragged write succeeded")
	}
	if _, err := s.ReadRange(9, 2); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if err := s.ReadSlot(10, make([]byte, 4)); err == nil {
		t.Fatal("out-of-range slot read succeeded")
	}
	if _, err := New(-1, 4); err == nil {
		t.Fatal("negative store size accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Fatal("zero slot size accepted")
	}
}

// TestShortFileReadFails: a file-backed store read past its last
// written slot must fail, not hand back the read buffer's previous
// contents (ReadRange) or leave the caller's buffer as it was
// (ReadSlot) under a nil error.
func TestShortFileReadFails(t *testing.T) {
	const slot = 8
	s, err := New(4, slot)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.InMemory() {
		t.Skip("store fell back to memory")
	}
	if err := s.WriteAt(0, append(fill(slot, 1), fill(slot, 2)...)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRange(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(fill(slot, 1), fill(slot, 2)...); !bytes.Equal(got, want) {
		t.Fatalf("ReadRange(0,2) = %x, want %x", got, want)
	}
	if got, err := s.ReadRange(2, 2); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadRange(2,2) past the written slots = %x, %v; want io.ErrUnexpectedEOF", got, err)
	}
	buf := fill(slot, 9)
	if err := s.ReadSlot(3, buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadSlot(3) past the written slots = %x, %v; want io.ErrUnexpectedEOF", buf, err)
	}
	if err := s.ReadSlot(1, buf); err != nil || !bytes.Equal(buf, fill(slot, 2)) {
		t.Fatalf("ReadSlot(1) = %x, %v; want %x", buf, err, fill(slot, 2))
	}
}
