package wire

import (
	"errors"
	"fmt"
	"io"
)

// A Codec is a wire serialization format for Envelopes. Binary (binary.go)
// is the only built-in one: a hand-rolled, fixed-layout encoding with
// CRC-32C-checked frames, append-only encoding into pooled buffers, and an
// allocation-free encode path for every message kind. The interface stays
// so the in-process network can run messages through a wrapped codec (for
// example to time encode and decode from outside).
type Codec interface {
	// Name identifies the codec in logs and reports ("binary").
	Name() string
	// ID is the negotiation byte sent after the preamble magic. IDs must be
	// stable across releases: they are written to the wire.
	ID() byte
	// NewEncoder binds a stream encoder to w. Encoders are not safe for
	// concurrent use; callers serialize writes (the transports' write loops
	// already do).
	NewEncoder(w io.Writer, compress bool) EnvelopeEncoder
	// NewDecoder binds a stream decoder to r. Not safe for concurrent use.
	NewDecoder(r io.Reader) EnvelopeDecoder
}

// EnvelopeEncoder writes envelopes to one stream, one frame per envelope.
type EnvelopeEncoder interface {
	Encode(env *Envelope) error
}

// EnvelopeDecoder reads envelopes written by the matching EnvelopeEncoder.
type EnvelopeDecoder interface {
	Decode() (*Envelope, error)
}

// Binary is the wire codec.
var Binary Codec = binaryCodec{}

// Codec negotiation.
//
// A client declares the codec in a two-byte preamble written before its
// first frame: [preambleMagic, codec ID]. The server requires it and
// answers in binary. A gob-era peer sends no preamble at all: its first
// byte is the top byte of a 4-byte big-endian frame length (always <= 0x04),
// never preambleMagic (0xC6), so it is refused on the first byte. Codec ID 1
// belonged to the retired gob codec; it stays reserved, is refused, and is
// never reused.
const (
	preambleMagic byte = 0xC6
	// retiredGobID is the negotiation byte of the deleted gob codec.
	retiredGobID byte = 1
)

// ErrRefusedPeer wraps every SniffCodec refusal, so a server can tell a
// peer speaking another protocol from a connection that merely dropped.
var ErrRefusedPeer = errors.New("wire: peer refused")

// WritePreamble declares codec c on a fresh connection. Call it before the
// first Encode on the same writer.
func WritePreamble(w io.Writer, c Codec) error {
	_, err := w.Write([]byte{preambleMagic, c.ID()})
	return err
}

// SniffCodec reads a connection's preamble and returns the negotiated codec.
// A stream that does not start with the preamble magic, or that declares
// any codec other than binary, is refused with an error naming the reason.
func SniffCodec(r io.Reader) (Codec, error) {
	var pre [2]byte
	if _, err := io.ReadFull(r, pre[:1]); err != nil {
		return nil, err
	}
	if pre[0] != preambleMagic {
		return nil, fmt.Errorf("%w: first byte 0x%02x is not the binary preamble 0x%02x (a gob-era peer?); upgrade the peer",
			ErrRefusedPeer, pre[0], preambleMagic)
	}
	if _, err := io.ReadFull(r, pre[1:]); err != nil {
		return nil, err
	}
	switch pre[1] {
	case Binary.ID():
		return Binary, nil
	case retiredGobID:
		return nil, fmt.Errorf("%w: it negotiated the retired gob codec (id %d); upgrade the peer", ErrRefusedPeer, pre[1])
	default:
		return nil, fmt.Errorf("%w: it negotiated unknown codec id %d", ErrRefusedPeer, pre[1])
	}
}
