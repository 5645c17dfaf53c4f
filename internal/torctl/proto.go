package torctl

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Control-protocol line layer, shared by the client and the mock relay.
//
// A reply is one or more CRLF-terminated lines "NNNsText" where NNN is
// a 3-digit status and s is '-' (more lines follow), '+' (a data block
// follows, terminated by a lone "."), or ' ' (final line). Asynchronous
// events are replies with status 650 and may arrive at any time after
// SETEVENTS.

// maxLineLen bounds a single control-port line; a peer that exceeds it
// is hostile or broken. Real event lines are a few hundred bytes.
const maxLineLen = 1 << 16

// Reply is one parsed control-protocol reply.
type Reply struct {
	Status int
	// Lines holds the text of each reply line, separator stripped.
	Lines []string
	// Data holds the payload of '+' data blocks, in order, dot-unstuffed.
	Data []string
}

// Text returns the first line of the reply (the conventional
// human-readable summary).
func (r Reply) Text() string {
	if len(r.Lines) == 0 {
		return ""
	}
	return r.Lines[0]
}

// IsOK reports whether the reply is a 2xx success.
func (r Reply) IsOK() bool { return r.Status >= 200 && r.Status < 300 }

// readLine reads one CRLF- (or, tolerantly, LF-) terminated line. The
// length cap is enforced while reading — a peer streaming an endless
// unterminated line errors out at ~maxLineLen instead of growing an
// unbounded buffer. The terminator is stripped. A line that fits the
// reader's buffer is copied once, into the returned string.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			if len(buf) > maxLineLen {
				return "", fmt.Errorf("torctl: control line exceeds %d bytes", maxLineLen)
			}
			line, err = br.ReadSlice('\n')
			buf = append(buf, line...)
		}
		line = buf
	}
	if err != nil {
		return "", err
	}
	if len(line) > maxLineLen {
		return "", fmt.Errorf("torctl: control line exceeds %d bytes", maxLineLen)
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return string(line), nil
}

// ReadReply reads one complete (possibly multi-line) reply. Truncated
// or malformed replies yield an error, never a partial success.
func ReadReply(br *bufio.Reader) (Reply, error) {
	var rep Reply
	for {
		line, err := readLine(br)
		if err != nil {
			return Reply{}, err
		}
		if len(line) < 4 {
			return Reply{}, fmt.Errorf("torctl: short reply line %q", line)
		}
		status, err := strconv.Atoi(line[:3])
		if err != nil || status < 100 || status > 999 {
			return Reply{}, fmt.Errorf("torctl: bad status in reply line %q", line)
		}
		if rep.Lines == nil {
			rep.Status = status
		} else if status != rep.Status {
			return Reply{}, fmt.Errorf("torctl: status changed mid-reply (%d then %d)", rep.Status, status)
		}
		sep, text := line[3], line[4:]
		rep.Lines = append(rep.Lines, text)
		switch sep {
		case ' ':
			return rep, nil
		case '-':
			// more lines follow
		case '+':
			data, err := readDataBlock(br)
			if err != nil {
				return Reply{}, err
			}
			rep.Data = append(rep.Data, data)
		default:
			return Reply{}, fmt.Errorf("torctl: bad reply separator %q in %q", sep, line)
		}
	}
}

// readDataBlock consumes a '+' data block up to the terminating ".",
// undoing dot-stuffing.
func readDataBlock(br *bufio.Reader) (string, error) {
	var b strings.Builder
	for {
		line, err := readLine(br)
		if err != nil {
			return "", fmt.Errorf("torctl: truncated data block: %w", err)
		}
		if line == "." {
			return b.String(), nil
		}
		line = strings.TrimPrefix(line, ".")
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(line)
		if b.Len() > maxLineLen {
			return "", fmt.Errorf("torctl: data block exceeds %d bytes", maxLineLen)
		}
	}
}

// --- keyword=value fields ---

// needsQuotes reports whether a value must travel as a QuotedString.
func needsQuotes(v string) bool {
	if v == "" {
		return false
	}
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case ' ', '"', '\\', '\r', '\n':
			return true
		}
	}
	return false
}

// appendKV appends ` Key=Value` to b, quoting the value when needed.
func appendKV(b []byte, key, val string) []byte {
	b = append(b, ' ')
	b = append(b, key...)
	b = append(b, '=')
	if !needsQuotes(val) {
		return append(b, val...)
	}
	b = append(b, '"')
	for i := 0; i < len(val); i++ {
		switch c := val[i]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\r':
			b = append(b, '\\', 'r')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// quoteString renders s as a QuotedString unconditionally (passwords
// must always travel quoted).
func quoteString(s string) string {
	b := appendKV(make([]byte, 0, len(s)+8), "q", s)
	if len(b) == 3 || b[3] != '"' { // value did not need quoting; force it
		return `"` + string(b[3:]) + `"`
	}
	return string(b[3:])
}

// pair is one Key=Value field of a line.
type pair struct{ key, val string }

// pairs is a tokenized field list, in line order.
type pairs []pair

// get returns the value of key. The last occurrence wins, matching
// control-spec practice for duplicated keys.
func (ps pairs) get(key string) (string, bool) {
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].key == key {
			return ps[i].val, true
		}
	}
	return "", false
}

// scanPairs tokenizes the tail of an event or reply line into
// Key=Value pairs appended to dst, honoring QuotedString values.
// Tokens without '=' are skipped. Keys and unquoted values are
// substrings of s. On error the pairs scanned so far are returned too,
// so a caller that reuses dst can clear them.
func scanPairs(s string, dst pairs) (pairs, error) {
	i := 0
	for i < len(s) {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		for i < len(s) && s[i] != '=' && s[i] != ' ' {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			continue // a bare word
		}
		key := s[start:i]
		i++ // '='
		if key == "" {
			return dst, fmt.Errorf("torctl: empty key in fields %q", s)
		}
		if i < len(s) && s[i] == '"' {
			val, rest, err := unquote(s[i:])
			if err != nil {
				return dst, err
			}
			dst = append(dst, pair{key, val})
			i = len(s) - len(rest)
			if len(rest) > 0 && rest[0] != ' ' {
				return dst, fmt.Errorf("torctl: garbage after quoted value of %s", key)
			}
			continue
		}
		vstart := i
		for i < len(s) && s[i] != ' ' {
			i++
		}
		dst = append(dst, pair{key, s[vstart:i]})
	}
	return dst, nil
}

// unquote parses a leading QuotedString and returns the value and the
// unconsumed remainder.
func unquote(s string) (val, rest string, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("torctl: not a quoted string: %q", s)
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("torctl: dangling escape in %q", s)
			}
			switch e := s[i]; e {
			case 'r':
				b.WriteByte('\r')
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(e)
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("torctl: unterminated quoted string: %q", s)
}
