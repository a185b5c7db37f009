package flow

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// WireBinary names the one wire codec, the length-prefixed binary layout
// (binaryCodec), as DialOptions.Codec and the proteomectl -wire flag
// accept it; the empty name means the same.
const WireBinary = "binary"

// ValidWire reports whether name selects the wire codec: "" or
// WireBinary.
func ValidWire(name string) bool { return name == "" || name == WireBinary }

// wireVersion is the one protocol version this build speaks. Every peer
// is built from this tree, so there is no negotiation and no tolerance
// for absent fields: a dialer states the version in its hello and the
// scheduler refuses any other before decoding a frame. Bump it whenever
// the bytes of any frame change (TestWireGolden fails until you do), and
// only then: a task's payload and result are opaque bytes to the frames,
// and what a kernel answers is versioned by the epoch in its registered
// name, which leads every spec envelope.
const wireVersion = 6

// helloPrefix starts the hello line every dialer sends immediately after
// connecting: "flow-wire binary <version>\n".
const helloPrefix = "flow-wire "

// helloLine is the hello a dialer of this build sends.
func helloLine() string {
	return fmt.Sprintf("%s%s %d\n", helloPrefix, WireBinary, wireVersion)
}

// parseHello validates a peer's hello line (without its newline). It
// faces untrusted bytes: anything but "flow-wire binary <this build's
// version>" is an error, and a version mismatch names both sides so the
// operator of a mixed deployment learns which build to replace.
func parseHello(line []byte) error {
	rest, ok := strings.CutPrefix(string(line), helloPrefix)
	if !ok {
		return fmt.Errorf("flow: peer sent no %q hello (got %.40q); this build speaks wire version %d", helloPrefix, line, wireVersion)
	}
	name, version, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("flow: peer hello %q offers no wire version; this build speaks version %d", line, wireVersion)
	}
	if version != strconv.Itoa(wireVersion) {
		return fmt.Errorf("flow: peer offers wire version %q; this build speaks version %d", version, wireVersion)
	}
	if name != WireBinary {
		return fmt.Errorf("flow: peer offers wire codec %q; this build speaks only %q", name, WireBinary)
	}
	return nil
}

// handshake is the dialer half of opening a connection: it wraps conn in
// buffered I/O and stages the hello line, then writes first (register,
// subscribe) behind it, so hello and frame leave in one write. A nil
// first leaves the hello staged for the peer's own first frame (a
// client's submit).
func handshake(conn net.Conn, first *message) (*binaryCodec, error) {
	w := bufio.NewWriter(conn)
	c := newBinaryCodec(bufio.NewReader(conn), w)
	// Cannot fail: the buffer is empty and larger than any hello.
	_, _ = w.WriteString(helloLine())
	var err error
	if first != nil {
		err = writeFrame(conn, c, dialTimeout, first)
	}
	return c, err
}

// writeFrame encodes and flushes one frame with the connection's write
// deadline set d ahead (no deadline when d is zero), so a peer that
// stopped reading cannot wedge the sender forever.
func writeFrame(conn net.Conn, c *binaryCodec, d time.Duration, m *message) error {
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
// the connection unless it names the binary codec and this build's wire
// version — before any frame is decoded, so a peer built from another
// tree is turned away at connect instead of having its frames half
// understood.
func acceptCodec(r *bufio.Reader, w *bufio.Writer) (*binaryCodec, error) {
	// ReadSlice bounds the hello by the reader's buffer, so a peer
	// streaming garbage without a newline is cut off instead of growing a
	// line without limit.
	line, err := r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("flow: reading wire hello: %w", err)
	}
	if err := parseHello(bytes.TrimSuffix(line, []byte("\n"))); err != nil {
		return nil, err
	}
	return newBinaryCodec(r, w), nil
}
