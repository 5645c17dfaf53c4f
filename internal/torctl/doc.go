// Package torctl speaks the Tor control protocol to an instrumented
// relay, the ingestion path the paper's deployment used (§3.1): a
// PrivCount-patched Tor emits asynchronous PRIVCOUNT_* control-port
// events, and the data collector consumes them over a long-lived,
// authenticated control connection.
//
// The package has three layers:
//
//   - A control-protocol client (Source, opened by DialSource):
//     PROTOCOLINFO, COOKIE / SAFECOOKIE / password AUTHENTICATE,
//     SETEVENTS, 650 async-reply parsing, and automatic reconnect with
//     exponential backoff, so a months-long collection survives relay
//     restarts and network churn. One goroutine per connection reads
//     the socket, parses each event line, and sends the event on
//     Source.Events, the only hand-off to the consumer.
//   - Line parsers (LineParser, FormatEvent) mapping PRIVCOUNT_* event
//     lines onto the internal/event vocabulary: wall-clock timestamps
//     map onto simtime via a TimeMap, enum fields are normalized, and
//     unknown keys are tolerated so a newer Tor patch does not break an
//     older collector. A LineParser reuses its field scratch, so it
//     serves one goroutine at a time.
//   - A mock instrumented relay (MockRelay): a control-port server that
//     authenticates controllers and replays torsim-generated traces as
//     PRIVCOUNT_* lines, in batches of up to 256 events or 64 KiB per
//     Write. It doubles as the test double for Source and, in
//     cmd/torsim, as the control port of every simulated relay.
//
// The event-line dialect is keyword=value, mirroring Tor's own async
// events (e.g. "650 CIRC ... BUILD_FLAGS=..."):
//
//	650 PRIVCOUNT_STREAM_ENDED Time=1514764800.250000000 Relay=3
//	    CircID=77 IsInitial=1 Target=hostname Port=443
//	    Host=example.com SentBytes=120 RecvBytes=4096
//
// Values containing spaces, quotes, or backslashes travel as quoted
// strings with backslash escapes (the control-spec QuotedString form).
//
// # Invariants
//
//   - The wire dialect is pinned by testdata/privcount_lines.golden:
//     FormatEvent and LineParser must round-trip every golden line
//     byte-for-byte, so a dialect change is a deliberate golden-file
//     update, never an accident. Fuzz tests hold the parser to
//     crash-freedom on arbitrary lines and replies.
//   - MockRelay replays from a global trace cursor: a reconnecting
//     collector resumes where the feed left off rather than replaying
//     from the start, matching a real relay's live event stream. The
//     cursor passes a line only once it is written whole, and a batch
//     never waits to fill. The parser keeps no line text past Parse.
//   - Source reconnection re-authenticates and re-issues SETEVENTS;
//     ErrAuthFailed is terminal (bad credentials cannot be retried
//     into working).
package torctl
