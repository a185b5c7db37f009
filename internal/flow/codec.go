package flow

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Wire codec names, as accepted by DialOptions.Codec and the proteomectl
// -wire flag.
const (
	// WireJSON is the newline-delimited JSON wire: readable with nc and
	// jq, at several times the encode and decode cost.
	WireJSON = "json"
	// WireBinary is the length-prefixed binary wire — the default: 4-byte
	// big-endian frame length followed by a positional encoding of the
	// envelope, with per-connection reusable encode/decode buffers. The
	// codec is chosen per connection, so binary workers and JSON monitors
	// interoperate on one scheduler.
	WireBinary = "binary"
)

// wireOrDefault resolves the empty codec name to the default. Every peer
// is built from this tree and says which codec it speaks in its hello, so
// the default can be the cheap one.
func wireOrDefault(name string) string {
	if name == "" {
		return WireBinary
	}
	return name
}

// wireVersion is the one protocol version this build speaks. Every peer
// is built from this tree, so there is no negotiation and no tolerance
// for absent fields: a dialer states the version in its hello and the
// scheduler refuses any other before decoding a frame. Bump it whenever
// the bytes of any frame change (TestWireGolden fails until you do), or
// those of a campaign kernel's spec or result (pinned by
// TestKernelPayloadGolden in internal/experiments).
const wireVersion = 5

// helloPrefix starts the hello line every dialer sends immediately after
// connecting: "flow-wire <codec> <version>\n".
const helloPrefix = "flow-wire "

// helloLine is the hello a dialer of this build sends for the named codec
// ("" selects the binary default).
func helloLine(name string) string {
	return fmt.Sprintf("%s%s %d\n", helloPrefix, wireOrDefault(name), wireVersion)
}

// parseHello validates a peer's hello line (without its newline) and
// returns the codec it names. It faces untrusted bytes: anything but
// "flow-wire <known codec> <this build's version>" is an error, and a
// version mismatch names both sides so the operator of a mixed
// deployment learns which build to replace.
func parseHello(line []byte) (string, error) {
	rest, ok := strings.CutPrefix(string(line), helloPrefix)
	if !ok {
		return "", fmt.Errorf("flow: peer sent no %q hello (got %.40q); this build speaks wire version %d", helloPrefix, line, wireVersion)
	}
	name, version, ok := strings.Cut(rest, " ")
	if !ok {
		return "", fmt.Errorf("flow: peer hello %q offers no wire version; this build speaks version %d", line, wireVersion)
	}
	if version != strconv.Itoa(wireVersion) {
		return "", fmt.Errorf("flow: peer offers wire version %q; this build speaks version %d", version, wireVersion)
	}
	if name != WireJSON && name != WireBinary {
		return "", fmt.Errorf("flow: unknown wire codec %q", name)
	}
	return name, nil
}

// Codec frames the wire envelope over one connection. Encode buffers
// frames (call Flush to hit the wire — write coalescing is the point:
// one flush per ready-queue drain, not one syscall per message); Decode
// blocks for the next frame and overwrites *m entirely. A Codec is not
// safe for concurrent use of the same half, but the encode and decode
// halves are independent, so one reader goroutine and one writer
// goroutine may share it.
type Codec interface {
	// Name reports the wire name ("json", "binary").
	Name() string
	// Encode appends one frame to the connection's write buffer.
	Encode(m *message) error
	// Decode reads the next frame into *m, replacing its contents.
	Decode(m *message) error
	// Flush writes the buffered frames to the connection.
	Flush() error
}

// ValidWire reports whether name selects a known wire codec ("" selects
// the binary default).
func ValidWire(name string) bool {
	switch wireOrDefault(name) {
	case WireJSON, WireBinary:
		return true
	}
	return false
}

// newCodec instantiates the named codec over a buffered connection pair.
func newCodec(name string, r *bufio.Reader, w *bufio.Writer) (Codec, error) {
	switch wireOrDefault(name) {
	case WireJSON:
		return newJSONCodec(r, w), nil
	case WireBinary:
		return newBinaryCodec(r, w), nil
	}
	return nil, fmt.Errorf("flow: unknown wire codec %q", name)
}

// handshake is the dialer half of opening a connection: it wraps conn in
// buffered I/O and stages the hello line naming the codec, then writes
// first (register, subscribe) behind it, so hello and frame leave in one
// write. A nil first leaves the hello staged for the peer's own first
// frame (a client's submit).
func handshake(conn net.Conn, name string, first *message) (Codec, error) {
	w := bufio.NewWriter(conn)
	c, err := newCodec(name, bufio.NewReader(conn), w)
	if err != nil {
		return nil, err
	}
	// Cannot fail: the buffer is empty and larger than any hello.
	_, _ = w.WriteString(helloLine(name))
	if first != nil {
		err = writeFrame(conn, c, dialTimeout, first)
	}
	return c, err
}

// writeFrame encodes and flushes one frame with the connection's write
// deadline set d ahead (no deadline when d is zero), so a peer that
// stopped reading cannot wedge the sender forever.
func writeFrame(conn net.Conn, c Codec, d time.Duration, m *message) error {
	if d > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(d))
	}
	err := c.Encode(m)
	if err == nil {
		err = c.Flush()
	}
	_ = conn.SetWriteDeadline(time.Time{})
	return err
}

// acceptCodec is the scheduler half: it reads the hello line and refuses
// the connection unless it names a known codec and this build's wire
// version — before any frame is decoded, so a peer built from another
// tree is turned away at connect instead of having its frames half
// understood.
func acceptCodec(r *bufio.Reader, w *bufio.Writer) (Codec, error) {
	// ReadSlice bounds the hello by the reader's buffer, so a peer
	// streaming garbage without a newline is cut off instead of growing a
	// line without limit.
	line, err := r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("flow: reading wire hello: %w", err)
	}
	name, err := parseHello(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		return nil, err
	}
	return newCodec(name, r, w)
}

// jsonCodec is newline-delimited JSON, written through a bufio.Writer so
// frames coalesce into one syscall per Flush.
type jsonCodec struct {
	enc *json.Encoder
	dec *json.Decoder
	w   *bufio.Writer
}

func newJSONCodec(r *bufio.Reader, w *bufio.Writer) *jsonCodec {
	return &jsonCodec{enc: json.NewEncoder(w), dec: json.NewDecoder(r), w: w}
}

func (c *jsonCodec) Name() string { return WireJSON }

func (c *jsonCodec) Encode(m *message) error { return c.enc.Encode(m) }

func (c *jsonCodec) Decode(m *message) error {
	*m = message{}
	return c.dec.Decode(m)
}

func (c *jsonCodec) Flush() error { return c.w.Flush() }
