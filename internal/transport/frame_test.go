package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"dapple/internal/tensor"
)

// encodeFrames runs fs through the writer pumps' encoder onto w.
func encodeFrames(w io.Writer, fs ...outFrame) error {
	var enc frameEncoder
	iov, _ := enc.encode(fs)
	_, err := iov.WriteTo(w)
	return err
}

// writeTensorFrame encodes one FrameData frame carrying mat.
func writeTensorFrame(t *testing.T, mat *tensor.Matrix, m int) []byte {
	t.Helper()
	var buf bytes.Buffer
	h := Header{
		Type: FrameData, Flags: uint8(Bwd), A: 3, B: 1, C: 2, Epoch: 7,
		M: int32(m), Rows: int32(mat.Rows), Cols: int32(mat.Cols),
	}
	if err := encodeFrames(&buf, outFrame{h: h, mat: mat}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refEncodeF64 is the wire format's reference: each element's IEEE 754 bits,
// little-endian, one element at a time.
func refEncodeF64(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

// checkPayloadBytes fails unless raw, one encoded frame, carries exactly the
// reference encoding of vals after its header.
func checkPayloadBytes(t *testing.T, raw []byte, vals []float64) {
	t.Helper()
	got, want := raw[HeaderSize:], refEncodeF64(vals)
	if len(got) != len(want) {
		t.Fatalf("payload is %d bytes, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload byte %d (element %d) is %#02x, reference %#02x", i, i/8, got[i], want[i])
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {16, 32}, {7, 1}, {0, 4}} {
		mat := tensor.New(shape[0], shape[1])
		for i := range mat.Data {
			mat.Data[i] = rng.NormFloat64()
		}
		raw := writeTensorFrame(t, mat, 4)
		checkPayloadBytes(t, raw, mat.Data)
		fr := NewFrameReader(bytes.NewReader(raw))
		h, err := fr.ReadHeader()
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if int(h.Rows) != mat.Rows || int(h.Cols) != mat.Cols || h.M != 4 || h.Epoch != 7 || Dir(h.Flags) != Bwd {
			t.Fatalf("shape %v: header mismatch %+v", shape, h)
		}
		got := make([]float64, mat.Rows*mat.Cols)
		if err := fr.ReadF64(got); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(mat.Data[i]) {
				t.Fatalf("shape %v: element %d: %g != %g", shape, i, v, mat.Data[i])
			}
		}
	}
}

// TestFrameWriterMatchesPump checks the synchronous writer, which hands a
// float64 payload over as a view of its memory, puts exactly the bytes the
// writer pumps' copying path puts on a socket for the same frames, and that
// it refuses what SendTensor refuses.
func TestFrameWriterMatchesPump(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mat := tensor.New(3, 5)
	for i := range mat.Data {
		mat.Data[i] = rng.NormFloat64()
	}
	var got, want bytes.Buffer
	fw := &FrameWriter{W: &got}
	if err := fw.WriteControl([]byte("head")); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteTensor(4, 9, mat); err != nil {
		t.Fatal(err)
	}
	err := encodeFrames(&want,
		outFrame{h: Header{Type: FrameControl}, payload: []byte("head")},
		outFrame{h: Header{Type: FrameTensor, A: 4, M: 9, Rows: 3, Cols: 5}, mat: mat})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("FrameWriter's bytes differ from the writer pumps' encoding")
	}
	checkPayloadBytes(t, got.Bytes()[HeaderSize+4:], mat.Data)
	for _, bad := range []*tensor.Matrix{{Rows: 2, Cols: 2, Data: make([]float64, 3)}, {Rows: 1 << 14, Cols: 1 << 14}, {Rows: -1}} {
		if err := fw.WriteTensor(4, 0, bad); err == nil {
			t.Errorf("WriteTensor accepted a %dx%d matrix with %d values", bad.Rows, bad.Cols, len(bad.Data))
		}
	}
}

// TestSwap8IsBigEndian pins the big-endian host's conversion on any host:
// swapping the little-endian wire bytes must give the big-endian encoding,
// which is what such a host holds in memory, and swapping back restores
// the wire bytes.
func TestSwap8IsBigEndian(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(1), math.MaxFloat64, math.Pi}
	b := refEncodeF64(vals)
	swap8(b)
	for i, v := range vals {
		if got := binary.BigEndian.Uint64(b[i*8:]); got != math.Float64bits(v) {
			t.Fatalf("element %d: %x is not the big-endian encoding of %x", i, got, math.Float64bits(v))
		}
	}
	swap8(b)
	if !bytes.Equal(b, refEncodeF64(vals)) {
		t.Fatal("swap8 twice did not restore the wire bytes")
	}
}

func TestFrameRejectsCorruptHeaders(t *testing.T) {
	mat := tensor.New(2, 2)
	raw := writeTensorFrame(t, mat, 0)
	for name, mutate := range map[string]func([]byte){
		"magic":          func(b []byte) { b[0] ^= 0xff },
		"type":           func(b []byte) { b[2] = 99 },
		"shape-mismatch": func(b []byte) { b[24] = 100 }, // rows no longer match N
		"giant-payload":  func(b []byte) { b[32], b[33], b[34], b[35] = 0xff, 0xff, 0xff, 0xff },
		"retired-group":  func(b []byte) { b[2] = 4 },
		"unknown-dir":    func(b []byte) { b[3] = uint8(sum) + 1 },
	} {
		bad := append([]byte(nil), raw...)
		mutate(bad)
		if _, err := NewFrameReader(bytes.NewReader(bad)).ReadHeader(); err == nil {
			t.Errorf("%s: corrupt header accepted", name)
		}
	}
}

// TestFrameTornRead truncates an encoded frame at every length and checks
// the decoder reports a clean error — never a panic, never a bogus frame.
func TestFrameTornRead(t *testing.T) {
	mat := tensor.New(4, 3)
	for i := range mat.Data {
		mat.Data[i] = float64(i) + 0.5
	}
	raw := writeTensorFrame(t, mat, 2)
	for cut := 0; cut < len(raw); cut++ {
		fr := NewFrameReader(bytes.NewReader(raw[:cut]))
		h, err := fr.ReadHeader()
		if err != nil {
			if cut >= HeaderSize {
				t.Fatalf("cut %d: header failed after full header bytes: %v", cut, err)
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: want EOF-ish error, got %v", cut, err)
			}
			continue
		}
		got := make([]float64, h.Rows*h.Cols)
		// A cut exactly at the header boundary yields plain EOF (no payload
		// byte read at all); any later cut is an unexpected EOF mid-payload.
		err = fr.ReadF64(got)
		if !errors.Is(err, io.ErrUnexpectedEOF) && !(cut == HeaderSize && errors.Is(err, io.EOF)) {
			t.Fatalf("cut %d: torn payload returned %v, want EOF-ish error", cut, err)
		}
	}
}

// failWriter errors after n bytes, exercising short-write handling.
type failWriter struct {
	n int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("wire torn")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestFrameShortWrite checks that a connection failing mid-batch surfaces
// from the vectored write instead of being silently swallowed.
func TestFrameShortWrite(t *testing.T) {
	mat := tensor.New(64, 64) // 32 KiB payload per frame
	fs := make([]outFrame, 8)
	for i := range fs {
		fs[i] = outFrame{h: Header{Type: FrameData, Rows: 64, Cols: 64}, mat: mat}
	}
	for limit := 0; limit < 3; limit++ {
		if err := encodeFrames(&failWriter{n: limit * 1000}, fs...); err == nil {
			t.Fatalf("limit %d: short write never surfaced", limit)
		}
	}
}

// FuzzFrameRoundTrip checks encode/decode identity for arbitrary shapes and
// contents: whatever shape and bit patterns go in must come out identical.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), int32(0), int64(1))
	f.Add(uint8(16), uint8(32), int32(7), int64(42))
	f.Add(uint8(0), uint8(5), int32(3), int64(-9))
	f.Add(uint8(255), uint8(255), int32(1<<30), int64(7777))
	f.Fuzz(func(t *testing.T, rows, cols uint8, m int32, seed int64) {
		mat := tensor.New(int(rows), int(cols))
		rng := rand.New(rand.NewSource(seed))
		for i := range mat.Data {
			// Raw bit patterns cover NaNs, infinities and subnormals.
			mat.Data[i] = math.Float64frombits(rng.Uint64())
		}
		var buf bytes.Buffer
		h := Header{Type: FrameData, Rows: int32(mat.Rows), Cols: int32(mat.Cols), M: m, Epoch: 9}
		if err := encodeFrames(&buf, outFrame{h: h, mat: mat}); err != nil {
			t.Fatal(err)
		}
		checkPayloadBytes(t, buf.Bytes(), mat.Data)
		fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
		got, err := fr.ReadHeader()
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != h.Rows || got.Cols != h.Cols || got.M != m || got.Epoch != 9 {
			t.Fatalf("header mismatch: sent %+v got %+v", h, got)
		}
		out := make([]float64, len(mat.Data))
		if err := fr.ReadF64(out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(mat.Data[i]) {
				t.Fatalf("element %d: bits %x != %x", i, math.Float64bits(out[i]), math.Float64bits(mat.Data[i]))
			}
		}
	})
}

// FuzzHeaderDecode feeds arbitrary bytes to the header decoder: it must
// reject or accept without panicking, and accepted headers must re-encode
// to the same bytes.
func FuzzHeaderDecode(f *testing.F) {
	good := make([]byte, HeaderSize)
	Header{Type: FrameControl, N: 4}.encode(good)
	f.Add(good)
	f.Add(make([]byte, HeaderSize))
	// Both must be rejected: the retired group frame type, and a data
	// frame whose direction names no edge.
	for _, h := range []Header{{Type: 4, N: 8}, {Type: FrameData, Flags: uint8(sum) + 1}} {
		raw := make([]byte, HeaderSize)
		h.encode(raw)
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < HeaderSize {
			return
		}
		h, err := decodeHeader(raw[:HeaderSize])
		if err != nil {
			return
		}
		re := make([]byte, HeaderSize)
		h.encode(re)
		if !bytes.Equal(re, raw[:HeaderSize]) {
			t.Fatalf("accepted header did not re-encode identically: %x vs %x", re, raw[:HeaderSize])
		}
	})
}
