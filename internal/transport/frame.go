package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame types carried by the TCP backend. Every frame is a fixed 36-byte
// header followed by a length-prefixed payload (Header.N bytes).
const (
	// FrameHello is the first frame on every connection: A carries the
	// dialer's rank, no payload.
	FrameHello = 1
	// FrameControl carries an opaque control-plane payload (the train
	// package's JSON handshake messages).
	FrameControl = 2
	// FrameData carries one edge micro-batch block: A/B/C+Flags encode the
	// EdgeID, Epoch the edge generation, M the micro-batch, Rows x Cols the
	// block shape.
	FrameData = 3
	// FrameGroup carries one all-reduce contribution: A is the group id, B
	// the sender's rank.
	FrameGroup = 4
	// FrameTensor carries an out-of-band tensor (weight broadcast, step
	// inputs): A is the tensor class, M the index within the class.
	FrameTensor = 5
	// FrameHeartbeat is the liveness plane's keep-alive: no payload, no
	// routing. Receiving any frame refreshes the peer's last-heard clock;
	// heartbeats exist to generate that traffic on an otherwise idle mesh.
	FrameHeartbeat = 6
	// FrameJoinReq opens a membership handshake instead of HELLO: the dialer
	// has no rank yet and asks to be admitted. The payload is an opaque
	// session-layer request (version, listen address).
	FrameJoinReq = 7
	// FrameJoinGrant answers a FrameJoinReq: A carries the granted rank (-1
	// for a rejection), B the granter's rank, and the payload an opaque
	// session-layer reply (peer addresses, manifest hash) or a rejection
	// reason.
	FrameJoinGrant = 8
)

// HeaderSize is the encoded size of a frame Header in bytes.
const HeaderSize = 36

// frameMagic guards against desynchronized or foreign byte streams.
const frameMagic = 0xDA71

// MaxFramePayload caps a frame's payload length; a header announcing more is
// rejected as corrupt before any allocation.
const MaxFramePayload = 1 << 28

// Header is the fixed preamble of every TCP frame. A, B, C, Epoch and M are
// type-specific routing fields; Rows and Cols describe tensor payload shape;
// N is the payload length in bytes.
type Header struct {
	// Type is one of the Frame* constants.
	Type uint8
	// Flags holds type-specific bits (the edge Dir for FrameData).
	Flags uint8
	// A is the first routing field (edge bound, group id, tensor class).
	A int32
	// B is the second routing field (edge sender replica, sender rank).
	B int32
	// C is the third routing field (edge receiver replica).
	C int32
	// Epoch is the generation the frame belongs to: the edge or group
	// generation of data and group frames, the sender's epoch floor on
	// control and tensor frames.
	Epoch uint32
	// M is the micro-batch or tensor index.
	M int32
	// Rows is the tensor payload's row count.
	Rows int32
	// Cols is the tensor payload's column count.
	Cols int32
	// N is the payload length in bytes.
	N uint32
}

// encode writes the header into b[:HeaderSize].
func (h Header) encode(b []byte) {
	binary.LittleEndian.PutUint16(b[0:], frameMagic)
	b[2] = h.Type
	b[3] = h.Flags
	binary.LittleEndian.PutUint32(b[4:], uint32(h.A))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.B))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.C))
	binary.LittleEndian.PutUint32(b[16:], h.Epoch)
	binary.LittleEndian.PutUint32(b[20:], uint32(h.M))
	binary.LittleEndian.PutUint32(b[24:], uint32(h.Rows))
	binary.LittleEndian.PutUint32(b[28:], uint32(h.Cols))
	binary.LittleEndian.PutUint32(b[32:], h.N)
}

// decodeHeader parses and validates b[:HeaderSize].
func decodeHeader(b []byte) (Header, error) {
	if m := binary.LittleEndian.Uint16(b[0:]); m != frameMagic {
		return Header{}, fmt.Errorf("transport: bad frame magic %#04x", m)
	}
	h := Header{
		Type:  b[2],
		Flags: b[3],
		A:     int32(binary.LittleEndian.Uint32(b[4:])),
		B:     int32(binary.LittleEndian.Uint32(b[8:])),
		C:     int32(binary.LittleEndian.Uint32(b[12:])),
		Epoch: binary.LittleEndian.Uint32(b[16:]),
		M:     int32(binary.LittleEndian.Uint32(b[20:])),
		Rows:  int32(binary.LittleEndian.Uint32(b[24:])),
		Cols:  int32(binary.LittleEndian.Uint32(b[28:])),
		N:     binary.LittleEndian.Uint32(b[32:]),
	}
	if h.Type < FrameHello || h.Type > FrameJoinGrant {
		return Header{}, fmt.Errorf("transport: unknown frame type %d", h.Type)
	}
	if h.N > MaxFramePayload {
		return Header{}, fmt.Errorf("transport: frame payload %d exceeds limit", h.N)
	}
	if h.Type == FrameData || h.Type == FrameTensor {
		if h.Rows < 0 || h.Cols < 0 {
			return Header{}, fmt.Errorf("transport: negative tensor shape %dx%d", h.Rows, h.Cols)
		}
		if want := uint64(h.Rows) * uint64(h.Cols) * 8; want != uint64(h.N) {
			return Header{}, fmt.Errorf("transport: %dx%d tensor frame with %d payload bytes", h.Rows, h.Cols, h.N)
		}
	}
	return h, nil
}

// FrameWriter encodes frames onto a buffered stream. It is not safe for
// concurrent use; the TCP backend gives each connection one writer pump.
type FrameWriter struct {
	w       *bufio.Writer
	hdr     [HeaderSize]byte
	scratch []byte
}

// NewFrameWriter wraps w in a buffered frame encoder.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// WriteBytes writes a frame with an opaque payload, setting h.N.
func (fw *FrameWriter) WriteBytes(h Header, payload []byte) error {
	h.N = uint32(len(payload))
	h.encode(fw.hdr[:])
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(payload)
	return err
}

// WriteF64 writes a frame whose payload is vals encoded little-endian,
// setting h.N. The encode scratch is reused across calls.
func (fw *FrameWriter) WriteF64(h Header, vals []float64) error {
	n := len(vals) * 8
	if cap(fw.scratch) < n {
		fw.scratch = make([]byte, n)
	}
	buf := fw.scratch[:n]
	encodeF64(buf, vals)
	return fw.WriteBytes(h, buf)
}

// encodeF64 encodes vals little-endian into dst; len(dst) must be
// 8*len(vals). The writer pumps use it to stage float64 payloads directly
// into their vectored-write arenas.
func encodeF64(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// Flush forces buffered frames onto the underlying stream.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// FrameReader decodes frames from a buffered stream: ReadHeader, then
// exactly one payload call (or Discard) per frame. Not safe for concurrent
// use.
type FrameReader struct {
	r       *bufio.Reader
	hdr     [HeaderSize]byte
	scratch []byte
}

// NewFrameReader wraps r in a buffered frame decoder.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// ReadHeader reads and validates the next frame header. A stream torn
// mid-header returns io.ErrUnexpectedEOF.
func (fr *FrameReader) ReadHeader() (Header, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Header{}, err
	}
	return decodeHeader(fr.hdr[:])
}

// ReadBytes fills p with the frame's payload; len(p) must equal Header.N.
func (fr *FrameReader) ReadBytes(p []byte) error {
	_, err := io.ReadFull(fr.r, p)
	return err
}

// ReadF64 decodes the frame's payload into dst; len(dst)*8 must equal
// Header.N. A stream torn mid-payload returns io.ErrUnexpectedEOF.
func (fr *FrameReader) ReadF64(dst []float64) error {
	n := len(dst) * 8
	if cap(fr.scratch) < n {
		fr.scratch = make([]byte, n)
	}
	buf := fr.scratch[:n]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// Discard skips n payload bytes (a stale-epoch frame's body).
func (fr *FrameReader) Discard(n uint32) error {
	_, err := fr.r.Discard(int(n))
	return err
}
