package psc

import (
	"fmt"

	"repro/internal/elgamal"
	"repro/internal/wire"
)

// DC is a PSC data collector. It keeps only a bit table: Observe hashes
// the item into a bin and discards it, so even a compromised DC holds
// no client IPs, domains, or onion addresses (§5.1: "we do not store,
// even temporarily, IP addresses since PSC uses oblivious counters").
type DC struct {
	Name string

	m        wire.Messenger
	cfg      ConfigureMsg
	jointKey elgamal.Point
	bins     []bool
	ready    bool
}

// NewDC creates a data collector speaking on m — a dedicated connection
// or one round's stream of a multiplexed session. A DC serves exactly
// one round; daemons create one per round stream.
func NewDC(name string, m wire.Messenger) *DC {
	return &DC{Name: name, m: m}
}

// Setup registers with the tally server and receives the round
// configuration (hash key, table size, joint encryption key).
func (dc *DC) Setup() error {
	if err := dc.m.Send(kindRegister, RegisterMsg{Role: RoleDC, Name: dc.Name}); err != nil {
		return fmt.Errorf("psc dc %s: register: %w", dc.Name, err)
	}
	if err := dc.m.Expect(kindConfig, &dc.cfg); err != nil {
		return fmt.Errorf("psc dc %s: configure: %w", dc.Name, err)
	}
	if dc.cfg.Bins <= 0 {
		return fmt.Errorf("psc dc %s: configured with %d bins", dc.Name, dc.cfg.Bins)
	}
	if len(dc.cfg.HashKey) == 0 {
		return fmt.Errorf("psc dc %s: no hash key in configuration", dc.Name)
	}
	pk, _, err := elgamal.ParsePoint(dc.cfg.JointKey)
	if err != nil {
		return fmt.Errorf("psc dc %s: joint key: %w", dc.Name, err)
	}
	dc.jointKey = pk
	elgamal.Precompute(dc.jointKey)
	dc.bins = make([]bool, dc.cfg.Bins)
	dc.ready = true
	return nil
}

// Observe records that an item was seen. Only the item's bin survives.
func (dc *DC) Observe(item string) error {
	if !dc.ready {
		return fmt.Errorf("psc dc %s: observe before setup", dc.Name)
	}
	dc.bins[binOf(dc.cfg.HashKey, item, dc.cfg.Bins)] = true
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
	if err := dc.m.Send(kindTable, VectorHeader{From: dc.Name, Round: dc.cfg.Round, N: dc.cfg.Bins}); err != nil {
		return err
	}
	err := forEachChunk(len(dc.bins), dc.cfg.ChunkElems, func(off, end int) error {
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
