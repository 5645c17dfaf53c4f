package privcount

import (
	"fmt"

	"repro/internal/wire"
)

// SK is a share keeper. It holds the seed of every blinding share
// vector the DCs generate and answers the collect request with the
// negated sum of their expansions, so that when the tally server sums
// DC reports and SK sums, the blinding telescopes away. PrivCount's privacy
// guarantee holds as long as at least one SK is honest (§2.3): no
// smaller coalition can unblind a DC's counters.
//
// An SK's seal keypair is long-term: one SK value serves many rounds
// (ServeRound per round stream), concurrently if asked, like the
// deployed share-keeper daemons.
type SK struct {
	Name string
	m    wire.Messenger
	key  *SealKey
}

// NewSK creates a share keeper. The messenger may be nil when the SK
// serves rounds on explicit streams via ServeRound.
func NewSK(name string, m wire.Messenger) (*SK, error) {
	key, err := NewSealKey()
	if err != nil {
		return nil, err
	}
	return &SK{Name: name, m: m, key: key}, nil
}

// Serve runs one round on the SK's bound messenger.
func (sk *SK) Serve() error { return sk.ServeRound(sk.m) }

// ServeRound runs the share keeper's side of one round over m:
// register its seal key, receive the configuration and every DC's
// sealed seed, then answer the collect request with the negated sum of
// the named DCs' expansions. All round state is local, so one SK serves many rounds
// concurrently.
func (sk *SK) ServeRound(m wire.Messenger) error {
	if err := m.Send(kindRegister, RegisterMsg{SealPub: sk.key.Public()}); err != nil {
		return fmt.Errorf("privcount sk %s: register: %w", sk.Name, err)
	}
	var cfg ConfigureMsg
	if err := m.Expect(kindConfigure, &cfg); err != nil {
		return fmt.Errorf("privcount sk %s: configure: %w", sk.Name, err)
	}
	size := cfg.Slots
	if size <= 0 || size > maxSlots {
		return fmt.Errorf("privcount sk %s: configured for %d slots, want 1..%d", sk.Name, size, maxSlots)
	}

	// One seed per DC is all the SK holds until the collect request
	// names the DCs whose reports the tally has; only those expand into
	// the answer. A later box from the same DC replaces its seed — the
	// restart semantics of a DC that rejoined during setup and drew
	// fresh seeds. Every seed is wiped when the round ends.
	seeds := make(map[string][]byte)
	defer func() {
		for _, seed := range seeds {
			clear(seed)
		}
	}()
	var collect CollectMsg
	for {
		f, err := m.Recv()
		if err != nil {
			return fmt.Errorf("privcount sk %s: relay: %w", sk.Name, err)
		}
		if f.Kind == kindCollect {
			if err := wire.DecodePayload(f.Payload, &collect); err != nil {
				return fmt.Errorf("privcount sk %s: collect: %w", sk.Name, err)
			}
			break
		}
		if f.Kind != kindRelay {
			return fmt.Errorf("privcount sk %s: expected %q or %q frame, got %q", sk.Name, kindRelay, kindCollect, f.Kind)
		}
		var relay RelayMsg
		if err := wire.DecodePayload(f.Payload, &relay); err != nil {
			return fmt.Errorf("privcount sk %s: relay: %w", sk.Name, err)
		}
		if relay.N != size {
			return fmt.Errorf("privcount sk %s: DC %s vector has %d slots, want %d",
				sk.Name, relay.From, relay.N, size)
		}
		seed, err := sk.key.Open(relay.Box)
		if err != nil {
			return fmt.Errorf("privcount sk %s: open box from %s: %w", sk.Name, relay.From, err)
		}
		if len(seed) != seedSize {
			return fmt.Errorf("privcount sk %s: seed from %s is %d bytes, want %d",
				sk.Name, relay.From, len(seed), seedSize)
		}
		clear(seeds[relay.From])
		seeds[relay.From] = seed
	}

	// The TS may exclude DCs that never reported, but never below the
	// quorum floor it declared at configure time: a smaller list — an
	// absent or empty one included — would let it isolate individual
	// DCs' counters with only their fraction of the calibrated noise.
	floor := cfg.MinDCs
	if floor <= 0 {
		floor = cfg.NumDCs
	}
	if len(collect.DCs) < floor {
		return fmt.Errorf("privcount sk %s: collect names %d DCs, below the declared quorum floor %d",
			sk.Name, len(collect.DCs), floor)
	}
	sums := make([]uint64, size)
	for _, name := range collect.DCs {
		seed, ok := seeds[name]
		if !ok {
			return fmt.Errorf("privcount sk %s: collect names DC %s, which shared no seed", sk.Name, name)
		}
		err := expandSeed(seed, size, func(off int, shares []uint64) error {
			for j, s := range shares {
				sums[off+j] -= s // negate: SK sums cancel DC blinding at the TS
			}
			return nil
		})
		if err != nil {
			return err
		}
		// A seed expands once: a collect list padded with a repeated
		// name fails above instead of reaching the quorum floor.
		clear(seed)
		delete(seeds, name)
	}
	if err := m.Send(kindSums, SumsMsg{Round: cfg.Round, N: len(sums)}); err != nil {
		return err
	}
	return sendValues(m, sums)
}
