package main

import "testing"

// TestParseQuorum pins the -quorum spec grammar: "dcs=K" or a bare K,
// K ≥ 1, and nothing else — trailing text is an error, not ignored.
func TestParseQuorum(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want int // the MinDCs floor; -1: the spec must be rejected
	}{
		{"", 0},
		{"dcs=2", 2},
		{"3", 3},
		{"dcs=1", 1},
		{"dcs=2x", -1},
		{"2,3", -1},
		{"1.5", -1},
		{"dcs=0", -1},
		{"0", -1},
		{"-1", -1},
		{"dcs=", -1},
		{"dcs", -1},
		{"dcs=dcs=2", -1},
		{" 2", -1},
	} {
		k, err := parseQuorum(tc.spec)
		switch {
		case tc.want < 0 && err == nil:
			t.Errorf("parseQuorum(%q) = %d, want an error", tc.spec, k)
		case tc.want >= 0 && err != nil:
			t.Errorf("parseQuorum(%q): %v", tc.spec, err)
		case tc.want >= 0 && k != tc.want:
			t.Errorf("parseQuorum(%q) = %d, want %d", tc.spec, k, tc.want)
		}
	}
}
