package event

// Bus fan-outs events from the simulator to subscribed data collectors.
// Dispatch is synchronous and in subscription order, keeping simulation
// runs deterministic. A Bus is not safe for concurrent use; the
// simulation kernel is single-threaded by design.
type Bus struct {
	subs []subscription
}

type subscription struct {
	relays map[RelayID]bool // nil means all relays
	types  map[Type]bool    // nil means all types
	fn     func(Event)
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers fn for every published event.
func (b *Bus) Subscribe(fn func(Event)) {
	b.subs = append(b.subs, subscription{fn: fn})
}

// SubscribeFiltered registers fn for events observed by one of the given
// relays (nil or empty = all) with one of the given types (nil or empty =
// all). PrivCount DCs attach to exactly one relay this way, mirroring the
// paper's one-DC-per-relay deployment (§3.1).
func (b *Bus) SubscribeFiltered(relays []RelayID, types []Type, fn func(Event)) {
	s := subscription{fn: fn}
	if len(relays) > 0 {
		s.relays = make(map[RelayID]bool, len(relays))
		for _, r := range relays {
			s.relays[r] = true
		}
	}
	if len(types) > 0 {
		s.types = make(map[Type]bool, len(types))
		for _, t := range types {
			s.types[t] = true
		}
	}
	b.subs = append(b.subs, s)
}

// Publish delivers e to every matching subscriber.
func (b *Bus) Publish(e Event) {
	for i := range b.subs {
		s := &b.subs[i]
		if s.relays != nil && !s.relays[e.Observer()] {
			continue
		}
		if s.types != nil && !s.types[e.EventType()] {
			continue
		}
		s.fn(e)
	}
}
