package onion

import (
	"crypto/sha256"
	"encoding/base32"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// Version-3 onion services. The paper measures only v2 addresses
// because "the onion address is obscured using key blinding" in v3
// (§6.1): an HSDir stores descriptors under a *blinded* public key that
// rotates each time period and cannot be linked back to the onion
// address without already knowing it. This file models exactly that
// property and shows the v2 address filter never counts a v3 token; no
// simulated relay carries v3 traffic.

// V3AddressLen is the length of a v3 onion address (56 base32 chars).
const V3AddressLen = 56

// V3Address derives a deterministic synthetic v3 onion address: 35
// bytes (32-byte key, 2-byte checksum, version) base32-encoded, as in
// rend-spec-v3.
func V3Address(namespace string, index int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("onion-v3/%s/%d", namespace, index)))
	payload := make([]byte, 35)
	copy(payload, h[:32])
	ck := sha256.Sum256(append([]byte(".onion checksum"), h[:32]...))
	payload[32], payload[33] = ck[0], ck[1]
	payload[34] = 3
	return base32Lower.EncodeToString(payload)
}

// BlindedID computes the credential an HSDir indexes a v3 descriptor
// by: a one-way function of the service identity key and the time
// period. The HSDir (and any observer of its uploads) sees only this
// value; without the onion address it reveals nothing, and it changes
// every period, so even equality across periods is hidden.
func BlindedID(v3addr string, period int) uint64 {
	h := sha256.New()
	fmt.Fprintf(h, "v3-blind/%s/%d", v3addr, period)
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// BlindedToken renders the blinded ID the way an instrumented HSDir
// would report it: an opaque base32 token carrying no address.
func BlindedToken(v3addr string, period int) string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], BlindedID(v3addr, period))
	return base32.StdEncoding.WithPadding(base32.NoPadding).EncodeToString(raw[:])
}

// IsV2Address reports whether an address string has v2 shape (16
// base32 chars) — the filter the measurement instrumentation applies
// before counting unique addresses.
func IsV2Address(addr string) bool {
	if len(addr) != 16 {
		return false
	}
	for _, c := range addr {
		if !((c >= 'a' && c <= 'z') || (c >= '2' && c <= '7')) {
			return false
		}
	}
	return true
}

func TestV3AddressShape(t *testing.T) {
	a := V3Address("svc", 1)
	if len(a) != V3AddressLen {
		t.Fatalf("v3 address length %d, want %d", len(a), V3AddressLen)
	}
	if a != V3Address("svc", 1) {
		t.Fatal("v3 addresses must be deterministic")
	}
	if a == V3Address("svc", 2) {
		t.Fatal("distinct indices must give distinct addresses")
	}
	if IsV2Address(a) {
		t.Fatal("a v3 address must not pass the v2 filter")
	}
}

func TestIsV2Address(t *testing.T) {
	if !IsV2Address(Address("live", 1)) {
		t.Fatal("generated v2 addresses must pass the filter")
	}
	for _, bad := range []string{"", "short", strings.Repeat("a", 17), "ABCDEFGHIJKLMNOP", "abcdefgh1jklmnop"} {
		if IsV2Address(bad) {
			t.Fatalf("%q must fail the v2 filter", bad)
		}
	}
}

// TestBlindingHidesAddress captures the property that makes v3
// unmeasurable (§6.1): blinded IDs rotate every period and carry no
// linkable address structure — two services' tokens are
// indistinguishable in form, and one service's tokens differ across
// periods.
func TestBlindingHidesAddress(t *testing.T) {
	a1 := V3Address("svc", 1)
	a2 := V3Address("svc", 2)

	if BlindedID(a1, 1) == BlindedID(a1, 2) {
		t.Fatal("blinded ID must rotate with the period")
	}
	if BlindedID(a1, 1) == BlindedID(a2, 1) {
		t.Fatal("distinct services must blind to distinct IDs")
	}
	// The token exposes no part of the address.
	tok := BlindedToken(a1, 1)
	if strings.Contains(a1, tok) || strings.Contains(tok, a1[:8]) {
		t.Fatal("token leaks address material")
	}
	// Same service, consecutive periods: tokens unlinkable by equality.
	if BlindedToken(a1, 1) == BlindedToken(a1, 2) {
		t.Fatal("tokens must differ across periods")
	}
}

// TestV2UniqueCountingExcludesV3: a PSC item extractor using the v2
// filter never observes a v3 blinded token as an address — the reason
// Table 6 counts only v2.
func TestV2UniqueCountingExcludesV3(t *testing.T) {
	for i := 0; i < 100; i++ {
		tok := BlindedToken(V3Address("x", i), i%3)
		if IsV2Address(tok) {
			// 16-char tokens could collide in shape; ours are 13 chars.
			t.Fatalf("blinded token %q passes the v2 filter", tok)
		}
	}
}
