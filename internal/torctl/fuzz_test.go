package torctl

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// readKeys lists, per keyword, the keys Parse reads besides the
// header's Time and Relay.
var readKeys = map[string][]string{
	EventStreamEnded:     {"CircID", "IsInitial", "Target", "Port", "Host", "SentBytes", "RecvBytes"},
	EventCircuitEnded:    {"CircID", "Kind", "ClientIP", "Country", "ASN", "NumStreams", "SentBytes", "RecvBytes"},
	EventConnectionEnded: {"ClientIP", "Country", "ASN", "NumCircuits", "SentBytes", "RecvBytes"},
	EventHSDirStored:     {"Address", "Version", "Replica"},
	EventHSDirFetched:    {"Address", "Version", "Outcome"},
	EventRendEnded:       {"CircID", "Version", "Outcome", "PayloadCells", "PayloadBytes"},
}

// FuzzParseEventLine throws malformed lines, truncated fields, stray
// quotes, and binary garbage at the parser. Properties: never panic;
// when a line parses, every key its event reads has the value the
// map-based reference tokenizer (splitFields) gives it; and
// Format∘Parse must be idempotent — the canonical form round-trips to
// the same event.
func FuzzParseEventLine(f *testing.F) {
	for _, ev := range sampleEvents() {
		line, err := FormatEvent(ev, defaultEpochUnixNano)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		f.Add("650 " + line)
	}
	f.Add(EventStreamEnded + ` Host="unterminated`)
	f.Add(EventStreamEnded + " Port=99999 Target=bogus")
	f.Add(EventCircuitEnded + ` ClientIP=not-an-ip Country="a b"`)
	f.Add(EventDone + " Processed=3")
	f.Add("650+DATA\r\nnot an event\r\n.\r\n")
	f.Add("CIRC 4 BUILT PURPOSE=GENERAL")
	f.Add(EventRendEnded + " Time=1.5 Time=2.5 CircID=1 CircID=2")
	f.Add(EventHSDirStored + " =nokey")
	f.Add(strings.Repeat("A=", 1000))

	f.Fuzz(func(t *testing.T, line string) {
		p := &LineParser{Time: *newEpochTimeMap(time.Unix(defaultEpochUnixNano/1e9, 0)), DefaultRelay: 3}
		ev, err := p.Parse(line)
		if err != nil {
			return
		}
		if ev == nil {
			t.Fatalf("Parse(%q) returned nil event and nil error", line)
		}
		body := line
		if len(body) >= 4 && body[:3] == "650" && strings.IndexByte(" -+", body[3]) >= 0 {
			body = body[4:]
		}
		keyword, rest, _ := strings.Cut(body, " ")
		kv, _, err := splitFields(rest)
		if err != nil {
			t.Fatalf("Parse(%q) accepted fields the reference tokenizer refuses: %v", line, err)
		}
		ps, err := scanPairs(rest, nil)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded but scanPairs fails: %v", line, err)
		}
		for _, k := range append([]string{"Time", "Relay"}, readKeys[keyword]...) {
			want, wok := kv[k]
			if got, ok := ps.get(k); got != want || ok != wok {
				t.Fatalf("line %q key %s: scanner gives %q (present %v), reference %q (present %v)", line, k, got, ok, want, wok)
			}
		}
		canon, err := FormatEvent(ev, defaultEpochUnixNano)
		if err != nil {
			// Events predating the configured epoch have no wall-clock
			// rendering; nothing more to check.
			return
		}
		again, err := p.Parse(canon)
		if err != nil {
			t.Fatalf("canonical line %q (from %q) does not re-parse: %v", canon, line, err)
		}
		sameEvent(t, fmt.Sprintf("canonical round trip of %q (from %q)", canon, line), ev, again)
	})
}

// FuzzReadReply feeds arbitrary bytes — including truncated replies
// and CRLF split across chunks — to the reply reader. It must never
// panic and must never return a malformed success.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("250 OK\r\n"))
	f.Add([]byte("250-PROTOCOLINFO 1\r\n250-AUTH METHODS=NULL\r\n250 OK\r\n"))
	f.Add([]byte("250+data\r\nline one\r\n..dot stuffed\r\n.\r\n250 OK\r\n"))
	f.Add([]byte("650 PRIVCOUNT_STREAM_ENDED Port=80\r\n"))
	f.Add([]byte("650 TRUNCATED"))          // no terminator
	f.Add([]byte("65"))                     // short status
	f.Add([]byte("xyz bad status\r\n"))     // non-numeric
	f.Add([]byte("250?weird sep\r\n"))      // bad separator
	f.Add([]byte("250-one\r\n550 two\r\n")) // status change mid-reply
	f.Add([]byte("250+never terminated\r\ndata\r\n"))
	f.Add(bytes.Repeat([]byte("250-x\r\n"), 50))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := ReadReply(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if rep.Status < 100 || rep.Status > 999 {
			t.Fatalf("accepted out-of-range status %d from %q", rep.Status, data)
		}
		if len(rep.Lines) == 0 {
			t.Fatalf("accepted reply with no lines from %q", data)
		}
	})
}

// TestParserSurvivesCRLFSplits simulates a feed delivered byte-by-byte
// (worst-case TCP segmentation): the line reader must reassemble
// identical replies regardless of chunking.
func TestParserSurvivesCRLFSplits(t *testing.T) {
	payload := "250-PROTOCOLINFO 1\r\n250-AUTH METHODS=COOKIE,SAFECOOKIE\r\n250 OK\r\n"
	whole, err := ReadReply(bufio.NewReader(strings.NewReader(payload)))
	if err != nil {
		t.Fatal(err)
	}
	// one-byte reads via an iotest-style reader
	chunked, err := ReadReply(bufio.NewReaderSize(oneByteReader{strings.NewReader(payload)}, 16))
	if err != nil {
		t.Fatal(err)
	}
	if whole.Status != chunked.Status || len(whole.Lines) != len(chunked.Lines) {
		t.Fatalf("chunked parse diverged: %+v vs %+v", whole, chunked)
	}
	for i := range whole.Lines {
		if whole.Lines[i] != chunked.Lines[i] {
			t.Fatalf("line %d: %q vs %q", i, whole.Lines[i], chunked.Lines[i])
		}
	}
}

type oneByteReader struct{ r *strings.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestReadLineCapsUnterminatedLines: a peer streaming an endless line
// must be cut off near the cap, not buffered without bound.
func TestReadLineCapsUnterminatedLines(t *testing.T) {
	huge := strings.Repeat("a", maxLineLen+1<<15)
	_, err := readLine(bufio.NewReaderSize(strings.NewReader(huge), 4096))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("unterminated %d-byte line: err = %v, want length-cap error", len(huge), err)
	}
	// A line exactly at the cap still parses.
	ok := strings.Repeat("b", maxLineLen-2) + "\r\n"
	line, err := readLine(bufio.NewReaderSize(strings.NewReader(ok), 4096))
	if err != nil || len(line) != maxLineLen-2 {
		t.Fatalf("cap-sized line: len=%d err=%v", len(line), err)
	}
}
