package psc

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"repro/internal/elgamal"
	"repro/internal/wire"
)

// DC is a PSC data collector. It keeps only a bit table: Observe hashes
// the item into a bin and discards it, so even a compromised DC holds
// no client IPs, domains, or onion addresses (§5.1: "we do not store,
// even temporarily, IP addresses since PSC uses oblivious counters").
//
// The keyed hash is built once per round and Observe reuses it, one
// item buffer and one digest, so observing allocates nothing.
type DC struct {
	Name string

	m        wire.Messenger
	cfg      ConfigureMsg
	jointKey elgamal.Point
	bins     []bool
	ready    bool

	mac  hash.Hash // HMAC-SHA256 under the round's hash key
	item []byte    // the item being hashed; zeroed once it is
	sum  [sha256.Size]byte
}

// NewDC creates a data collector speaking on m — a dedicated connection
// or one round's stream of a multiplexed session. A DC serves exactly
// one round; daemons create one per round stream.
func NewDC(name string, m wire.Messenger) *DC {
	return &DC{Name: name, m: m}
}

// Setup receives the round configuration (hash key, table size, joint
// encryption key) from the tally server.
func (dc *DC) Setup() error {
	if err := dc.m.Expect(kindConfig, &dc.cfg); err != nil {
		return fmt.Errorf("psc dc %s: configure: %w", dc.Name, err)
	}
	// The configure frame is input from outside the process: the table
	// it sizes must fit the one vector budget checkShape enforces.
	if dc.cfg.Bins <= 0 || dc.cfg.Bins > maxVectorElems {
		return fmt.Errorf("psc dc %s: configured with %d bins, want [1,%d]", dc.Name, dc.cfg.Bins, maxVectorElems)
	}
	if len(dc.cfg.HashKey) == 0 {
		return fmt.Errorf("psc dc %s: no hash key in configuration", dc.Name)
	}
	pk, err := parseKey(dc.cfg.JointKey)
	if err != nil {
		return fmt.Errorf("psc dc %s: joint key: %w", dc.Name, err)
	}
	dc.jointKey = pk
	elgamal.Precompute(dc.jointKey)
	dc.bins = make([]bool, dc.cfg.Bins)
	dc.mac = hmac.New(sha256.New, dc.cfg.HashKey)
	dc.ready = true
	return nil
}

// Observe records that an item was seen. Only the item's bin survives:
// the first 8 bytes of HMAC-SHA256(hash key, item), little-endian, mod
// the table size, so an item lands in the same bin at every DC of the
// round but is unlinkable without the round key. Observe is not safe
// for concurrent use; callers feed a DC from one goroutine at a time.
func (dc *DC) Observe(item string) error {
	if !dc.ready {
		return fmt.Errorf("psc dc %s: observe before setup", dc.Name)
	}
	dc.item = append(dc.item[:0], item...)
	dc.mac.Write(dc.item)
	dc.mac.Sum(dc.sum[:0])
	dc.bins[binary.LittleEndian.Uint64(dc.sum[:8])%uint64(dc.cfg.Bins)] = true
	// Leave no copy of the item behind: the reset returns the MAC to its
	// keyed state, overwriting the buffered input block.
	dc.mac.Reset()
	clear(dc.item)
	return nil
}

// Finish encrypts the bit table under the joint key and streams it to
// the tally server chunk by chunk, then clears the table. Only one
// chunk of ciphertexts is ever resident, so a DC's memory is bounded by
// the chunk size however large the table: the upload pipeline encrypts
// chunk k+1 while chunk k is on the wire.
func (dc *DC) Finish() error {
	if !dc.ready {
		return fmt.Errorf("psc dc %s: finish before setup", dc.Name)
	}
	dc.ready = false
	if err := dc.m.Send(kindTable, VectorHeader{Round: dc.cfg.Round, N: dc.cfg.Bins}); err != nil {
		return err
	}
	err := forEachChunk(len(dc.bins), func(off, end int) error {
		cts, _ := elgamal.BatchEncryptBits(dc.jointKey, dc.bins[off:end])
		return dc.m.Send(kindChunk, ChunkMsg{Off: off, Count: end - off, Data: encodeVector(cts)})
	})
	if err != nil {
		return err
	}
	for i := range dc.bins {
		dc.bins[i] = false
	}
	return nil
}
