package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"unsafe"

	"dapple/internal/tensor"
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
	// block shape. A collective group's contributions are FrameData on sum
	// edges, M their round. Type 4 (the retired group frame) is rejected.
	FrameData = 3
	// FrameTensor carries an out-of-band tensor (weight broadcast, step
	// inputs): A is the tensor class, M the index within the class.
	FrameTensor = 5
	// FrameHeartbeat is the liveness plane's keep-alive: no payload, no
	// routing. Any byte read re-arms the peer's silence deadline (see
	// SetHeartbeat); heartbeats carry that evidence on an otherwise idle mesh.
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
	// A is the first routing field (edge bound or group id, tensor class,
	// rank).
	A int32
	// B is the second routing field (edge sender replica or rank).
	B int32
	// C is the third routing field (edge receiver replica or rank).
	C int32
	// Epoch is the generation the frame belongs to: the edge generation of
	// data frames, the sender's epoch floor on control and tensor frames.
	Epoch uint32
	// M is the micro-batch, group round or tensor index.
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
	// Type 4, the retired group frame, is inside the range but unknown.
	if h.Type < FrameHello || h.Type > FrameJoinGrant || h.Type == 4 {
		return Header{}, fmt.Errorf("transport: unknown frame type %d", h.Type)
	}
	// An unknown Dir would name an edge no endpoint can open, parking the
	// reader pump in a head-of-stream hold forever.
	if h.Type == FrameData && Dir(h.Flags) > sum {
		return Header{}, fmt.Errorf("transport: data frame with unknown direction %d", h.Flags)
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

// frameEncoder stages frames for one vectored write: headers into reusable
// slots, float64 payloads copied in wire order (little-endian) into one
// reusable arena, byte payloads by reference. It is the only frame encoder:
// the writer pumps and every FrameWriter go through it. Not safe for
// concurrent use.
type frameEncoder struct {
	hdrs  [][HeaderSize]byte
	arena []byte
	iov   net.Buffers
}

// encode stages fs, setting each header's N, and returns the vectored write
// and its payload byte count. A staged matrix goes back to its free list as
// soon as its bytes are in the arena, before anything is written. The
// returned buffers alias the encoder's storage until the next encode.
func (e *frameEncoder) encode(fs []outFrame) (net.Buffers, int64) {
	// Size the arena up front: growing it mid-encode would dangle the
	// slices already handed to the iovec.
	need := 0
	for i := range fs {
		if fs[i].mat != nil {
			need += 8 * len(fs[i].mat.Data)
		}
	}
	if cap(e.arena) < need {
		e.arena = make([]byte, need)
	}
	e.arena = e.arena[:need]
	if cap(e.hdrs) < len(fs) {
		e.hdrs = make([][HeaderSize]byte, len(fs))
	}
	e.iov = e.iov[:0]
	off := 0
	var payloadBytes int64
	for i := range fs {
		f := &fs[i]
		p := f.payload
		if f.mat != nil {
			p = e.arena[off : off+8*len(f.mat.Data)]
			encodeF64(p, f.mat.Data)
			off += len(p)
			Recycle(f.free, f.mat)
		}
		f.h.N = uint32(len(p))
		f.h.encode(e.hdrs[i][:])
		e.iov = append(e.iov, e.hdrs[i][:])
		if len(p) > 0 {
			e.iov = append(e.iov, p)
		}
		payloadBytes += int64(len(p))
	}
	return e.iov, payloadBytes
}

// tensorHeader is m's tensor-frame header under (class, index), refusing
// what SendTensor refuses.
func tensorHeader(class, index int, m *tensor.Matrix) (Header, error) {
	if m.Rows < 0 || m.Cols < 0 || uint64(m.Rows)*uint64(m.Cols) > MaxFramePayload/8 || len(m.Data) != m.Rows*m.Cols {
		return Header{}, fmt.Errorf("transport: a %dx%d tensor of %d values is no frame of at most %d bytes",
			m.Rows, m.Cols, len(m.Data), MaxFramePayload)
	}
	return Header{Type: FrameTensor, A: int32(class), M: int32(index), Rows: int32(m.Rows), Cols: int32(m.Cols)}, nil
}

// FrameWriter writes frames synchronously onto W (a checkpoint file, a
// checksum, a connection whose writer pump is not running) through the one
// frame encoder; a float64 payload goes out as a view of its own memory on
// little-endian hosts. Not safe for concurrent use.
type FrameWriter struct {
	// W receives the encoded frames.
	W io.Writer
	e frameEncoder
}

// WriteControl writes payload as one control frame.
func (fw *FrameWriter) WriteControl(payload []byte) error {
	return fw.write(outFrame{h: Header{Type: FrameControl}, payload: payload})
}

// WriteTensor writes m as one tensor frame under (class, index).
func (fw *FrameWriter) WriteTensor(class, index int, m *tensor.Matrix) error {
	h, err := tensorHeader(class, index, m)
	if err != nil {
		return err
	}
	if nativeLE {
		return fw.write(outFrame{h: h, payload: f64Bytes(m.Data)})
	}
	return fw.write(outFrame{h: h, mat: m})
}

// write encodes f and writes it onto W.
func (fw *FrameWriter) write(f outFrame) error {
	iov, _ := fw.e.encode([]outFrame{f})
	_, err := iov.WriteTo(fw.W)
	return err
}

// nativeLE reports whether the host lays float64s out in wire order
// (little-endian), so a payload is a plain copy of the slice's memory.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes views vals' storage as bytes, without copying.
func f64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// swap8 reverses each 8-byte word of b in place: host to wire order and
// back on a big-endian host.
func swap8(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.BigEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:]))
	}
}

// encodeF64 writes vals into dst in wire order; len(dst) must be
// 8*len(vals).
func encodeF64(dst []byte, vals []float64) {
	copy(dst, f64Bytes(vals))
	if !nativeLE {
		swap8(dst)
	}
}

// FrameReader decodes frames from a buffered stream: ReadHeader, then
// exactly one payload call (or Discard) per frame. Float64 payloads are read
// straight into the caller's slice (bufio hands reads larger than its buffer
// to the connection directly). Not safe for concurrent use.
type FrameReader struct {
	r   *bufio.Reader
	hdr [HeaderSize]byte
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

// ReadF64 reads the frame's payload into dst; len(dst)*8 must equal
// Header.N. A stream torn mid-payload returns io.ErrUnexpectedEOF.
func (fr *FrameReader) ReadF64(dst []float64) error {
	b := f64Bytes(dst)
	if _, err := io.ReadFull(fr.r, b); err != nil {
		return err
	}
	if !nativeLE {
		swap8(b)
	}
	return nil
}

// Discard skips n payload bytes (a stale-epoch frame's body).
func (fr *FrameReader) Discard(n uint32) error {
	_, err := fr.r.Discard(int(n))
	return err
}
