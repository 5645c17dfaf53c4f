package torctl

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
)

const goldenPath = "testdata/privcount_lines.golden"

// TestGoldenLines pins the wire dialect: formatting the sample events
// must reproduce testdata/privcount_lines.golden byte for byte, and
// parsing the golden lines must reproduce the events exactly under the
// binary codec of internal/event. Any change to the line format shows
// up here as a diff, not as a silent incompatibility with deployed
// relays. Regenerate deliberately with UPDATE_GOLDEN=1.
func TestGoldenLines(t *testing.T) {
	var b strings.Builder
	for _, ev := range sampleEvents() {
		line, err := FormatEvent(ev, defaultEpochUnixNano)
		if err != nil {
			t.Fatalf("format %T: %v", ev, err)
		}
		b.WriteString("650 ")
		b.WriteString(line)
		b.WriteString("\r\n")
	}
	got := b.String()

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("formatted lines diverge from %s:\n got:\n%s\nwant:\n%s", goldenPath, got, want)
	}

	// Round trip: every golden line parses back to the exact event.
	p := &LineParser{Time: *newEpochTimeMap(time.Unix(defaultEpochUnixNano/1e9, 0))}
	lines := strings.Split(strings.TrimRight(string(want), "\r\n"), "\r\n")
	evs := sampleEvents()
	if len(lines) != len(evs) {
		t.Fatalf("golden holds %d lines, want %d", len(lines), len(evs))
	}
	for i, line := range lines {
		parsed, err := p.Parse(line)
		if err != nil {
			t.Fatalf("golden line %d %q: %v", i, line, err)
		}
		w := event.Marshal(nil, evs[i])
		g := event.Marshal(nil, parsed)
		if !bytes.Equal(w, g) {
			t.Errorf("golden line %d round trip:\n line %q\n want %x\n got  %x", i, line, w, g)
		}
	}
}
