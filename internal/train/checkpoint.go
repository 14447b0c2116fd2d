package train

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"dapple/internal/nn"
	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// A checkpoint file (format version 2) is the frame stream sendState puts on
// the wire, written by the transport's one frame encoder and read back by its
// FrameReader into the assembler the wire fills, so disk and wire share one
// float64 codec. Little-endian throughout:
//
//	control frame: ckptHead (magic, version, step, optStep, nparams, nslots)
//	tensor frames: as sendState ships them; the weights carry the shapes
//	u32 crc32(IEEE) over everything above
//
// Version 1 opened with a bare ckptHead; such a file is refused by name. A
// snapshot is taken only at a step boundary, where no torn update can exist,
// and written through a temp file and an atomic rename, so a crash mid-write
// leaves the previous checkpoint intact and a short write fails the CRC.
const (
	ckptMagic   = 0xDA99C4B7
	ckptVersion = 2
)

// ckptHead is the header frame's payload.
type ckptHead struct {
	Magic, Version  uint32
	Step, OptStep   uint64
	NParams, NSlots uint32
}

// errCkptVersion marks an intact checkpoint of a version this build does not read.
var errCkptVersion = errors.New("train: unsupported checkpoint version")

// Checkpoint is one consistent snapshot of a training session's master
// state: the weights of every parameter in Params() order plus the shared
// optimizer's per-parameter state, tagged with the step count that produced
// it.
type Checkpoint struct {
	// Step is the number of completed training steps — the index of the next
	// step a resumed session runs.
	Step int
	// OptStep is the optimizer's update counter (Adam's t).
	OptStep int
	// Weights holds every parameter in Params() order.
	Weights []*tensor.Matrix
	// Slots holds the optimizer's per-parameter state, indexed
	// [slot][param]; empty for stateless optimizers.
	Slots [][][]float64
}

// CaptureCheckpoint snapshots net and opt after step completed steps. The
// weights and state are deep-copied, so the snapshot stays consistent while
// training continues.
func CaptureCheckpoint(step int, net *nn.Network, opt nn.Optimizer) *Checkpoint {
	params := net.Params()
	c := &Checkpoint{Step: step, Weights: make([]*tensor.Matrix, len(params))}
	for i, p := range params {
		w := tensor.New(p.W.Rows, p.W.Cols)
		copy(w.Data, p.W.Data)
		c.Weights[i] = w
	}
	if st, ok := opt.(nn.Stateful); ok {
		os := st.CaptureState(params) // views of the live slots
		c.OptStep = os.Step
		c.Slots = make([][][]float64, len(os.Slots))
		for s, slot := range os.Slots {
			c.Slots[s] = make([][]float64, len(slot))
			for i, v := range slot {
				c.Slots[s][i] = slices.Clone(v)
			}
		}
	}
	return c
}

// Restore overwrites net's weights and opt's state from the checkpoint; the
// network skeleton must match the one the checkpoint was captured from.
func (c *Checkpoint) Restore(net *nn.Network, opt nn.Optimizer) error {
	params := net.Params()
	if len(params) != len(c.Weights) {
		return fmt.Errorf("train: checkpoint has %d params, network has %d", len(c.Weights), len(params))
	}
	for i, p := range params {
		w := c.Weights[i]
		if w.Rows != p.W.Rows || w.Cols != p.W.Cols {
			return fmt.Errorf("train: checkpoint param %d is %dx%d, network wants %dx%d",
				i, w.Rows, w.Cols, p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, w.Data)
	}
	if st, ok := opt.(nn.Stateful); ok {
		if len(c.Slots) != st.NumSlots() {
			return fmt.Errorf("train: checkpoint has %d optimizer slots, optimizer wants %d",
				len(c.Slots), st.NumSlots())
		}
		return st.RestoreState(params, nn.OptState{Step: c.OptStep, Slots: c.Slots})
	}
	if len(c.Slots) != 0 {
		return fmt.Errorf("train: checkpoint carries optimizer state for a stateless optimizer")
	}
	return nil
}

// EncodeCheckpoint serializes c into the version-2 format. It panics if c holds
// a vector no frame can carry; no captured, gathered or decoded one does.
func EncodeCheckpoint(c *Checkpoint) []byte {
	n := 2*transport.HeaderSize + binary.Size(ckptHead{}) + 4
	for _, w := range c.Weights {
		n += (transport.HeaderSize + 8*len(w.Data)) * (1 + len(c.Slots))
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	if _, err := encodeTo(buf, c); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// encodeTo writes c's image onto w, streamed from c's own memory: its header
// frame, its state as sendState ships it, then their CRC-32, which it returns.
func encodeTo(w io.Writer, c *Checkpoint) (uint32, error) {
	sum := crc32.NewIEEE()
	fw := &transport.FrameWriter{W: io.MultiWriter(w, sum)}
	head, _ := binary.Append(nil, binary.LittleEndian,
		ckptHead{ckptMagic, ckptVersion, uint64(c.Step), uint64(c.OptStep), uint32(len(c.Weights)), uint32(len(c.Slots))})
	err := fw.WriteControl(head)
	if err == nil {
		err = sendState(fw.WriteTensor, 0, len(c.Weights), c.Weights, c.Slots)
	}
	if err == nil {
		_, err = w.Write(binary.LittleEndian.AppendUint32(nil, sum.Sum32()))
	}
	return sum.Sum32(), err
}

// checksum is the CRC-32 trailer of c's image, computed without building it.
// It drops its one error, a vector no frame can carry: sendState reports it.
func (c *Checkpoint) checksum() uint32 {
	sum, _ := encodeTo(io.Discard, c)
	return sum
}

// DecodeCheckpoint parses and validates a version-2 checkpoint: the CRC, then
// every frame in sendState's order, filed by the state transfer's assembler.
// A truncated or bit-flipped file is rejected, never partially applied.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("train: checkpoint truncated (%d bytes)", len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("train: checkpoint checksum mismatch (%08x vs %08x)", got, sum)
	}
	var head ckptHead
	if _, err := binary.Decode(body, binary.LittleEndian, &head); err == nil && head.Magic == ckptMagic && head.Version < ckptVersion {
		return nil, fmt.Errorf("%w %d", errCkptVersion, head.Version) // version 1 opened with a bare header
	}
	fr, left := transport.NewFrameReader(bytes.NewReader(body)), len(body)
	// next reads a frame header that matches want in all but a tensor's
	// shape, so an accepted file re-encodes byte for byte, and whose payload
	// the bytes left hold, so it sizes no allocation past the input.
	next := func(want transport.Header) (transport.Header, error) {
		h, err := fr.ReadHeader()
		if want.Type == transport.FrameTensor {
			want.Rows, want.Cols, want.N = h.Rows, h.Cols, h.N
		}
		if left -= transport.HeaderSize + int(h.N); err == nil && (h != want || left < 0) {
			err = fmt.Errorf("%+v with %d bytes left, want %+v", h, left, want)
		}
		if err != nil {
			err = fmt.Errorf("train: checkpoint frame: %w", err)
		}
		return h, err
	}
	raw := make([]byte, binary.Size(head))
	if _, err := next(transport.Header{Type: transport.FrameControl, N: uint32(len(raw))}); err != nil {
		return nil, err
	}
	if err := fr.ReadBytes(raw); err != nil {
		return nil, err
	}
	binary.Decode(raw, binary.LittleEndian, &head) //nolint:errcheck // raw is head's size
	switch {
	case head.Magic != ckptMagic:
		return nil, fmt.Errorf("train: bad checkpoint magic %#08x", head.Magic)
	case head.Version != ckptVersion:
		return nil, fmt.Errorf("%w %d", errCkptVersion, head.Version)
	}
	// Each owed frame takes at least a header, which bounds both counts
	// before they size an allocation; slots over no parameters own no
	// frames, so the input's size bounds them.
	nparams, nslots, frames := int(head.NParams), int(head.NSlots), left/transport.HeaderSize
	if nparams > frames || nparams > 0 && nslots >= frames/nparams || nslots > len(body) {
		return nil, fmt.Errorf("train: checkpoint announces %d params and %d optimizer slots in %d bytes", nparams, nslots, left)
	}
	skel := make([]nn.Param, nparams) // a file's weights, which come first, are its skeleton
	a := newAssembly(skel, nslots)
	a.ck.Step, a.ck.OptStep = int(head.Step), int(head.OptStep)
	for k := 0; a.left > 0; k++ {
		class, index := tensWeight, k
		if k >= nparams {
			class, index = tensOptS, k-nparams
		}
		h, err := next(transport.Header{Type: transport.FrameTensor, A: int32(class), M: int32(index)})
		if err != nil {
			return nil, err
		}
		m := tensor.New(int(h.Rows), int(h.Cols))
		if k < nparams {
			skel[k].W = m
		}
		if err := fr.ReadF64(m.Data); err != nil {
			return nil, err
		}
		if err := a.put(class, index, m); err != nil {
			return nil, err
		}
	}
	if left != 0 {
		return nil, fmt.Errorf("train: checkpoint has %d trailing bytes", left)
	}
	return a.ck, nil
}

// toPeer is the sendState sink of peer's socket on t.
func toPeer(t *transport.TCP, peer int) func(class, index int, m *tensor.Matrix) error {
	return func(class, index int, m *tensor.Matrix) error { return t.SendTensor(peer, class, index, m, nil) }
}

// sendState ships weights and their optimizer slot vectors into sink, a
// peer's socket (toPeer) or a checkpoint stream, one tensor frame per vector:
// weight i as tensWeight at index i, then slot s of parameter i as tensOptS
// at index s*nparams+i, shaped like weight i. assembly.put files them. A
// sender holding only part of the network (one stage) passes that part:
// weights[j] is global parameter base+j, and slots[s][j] its slot s. The
// coordinator's broadcast, each primary rank's share of a snapshot gather
// and every checkpoint file go through here.
func sendState(sink func(class, index int, m *tensor.Matrix) error, base, nparams int, weights []*tensor.Matrix, slots [][][]float64) error {
	for j, wt := range weights {
		if err := sink(tensWeight, base+j, wt); err != nil {
			return err
		}
	}
	for s, slot := range slots {
		for j, vec := range slot {
			m := &tensor.Matrix{Rows: weights[j].Rows, Cols: weights[j].Cols, Data: vec}
			if err := sink(tensOptS, s*nparams+base+j, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// An assembly collects a checkpoint's tensors as they land, in any order.
type assembly struct {
	ck     *Checkpoint
	params []nn.Param // the network skeleton every tensor is checked against
	left   int        // tensors still owed
}

// newAssembly expects every parameter of params and nslots optimizer slot
// vectors per parameter.
func newAssembly(params []nn.Param, nslots int) *assembly {
	ck := &Checkpoint{Weights: make([]*tensor.Matrix, len(params)), Slots: make([][][]float64, nslots)}
	for s := range ck.Slots {
		ck.Slots[s] = make([][]float64, len(params))
	}
	return &assembly{ck: ck, params: params, left: len(params) * (1 + nslots)}
}

// put files one received state tensor into the checkpoint. It rejects a
// class other than tensWeight and tensOptS, an index out of range or already
// filled, and a tensor not shaped like its skeleton parameter.
func (a *assembly) put(class, index int, m *tensor.Matrix) error {
	n := len(a.params)
	i, s := index, -1
	switch {
	case class == tensOptS && n > 0:
		i, s = index%n, index/n
	case class != tensWeight && class != tensOptS:
		return fmt.Errorf("train: tensor class %d in a state transfer", class)
	}
	if index < 0 || i >= n || s >= len(a.ck.Slots) {
		return fmt.Errorf("train: state tensor (class %d, index %d) out of range", class, index)
	}
	if p := a.params[i].W; m.Rows != p.Rows || m.Cols != p.Cols || len(m.Data) != p.Rows*p.Cols {
		return fmt.Errorf("train: state tensor (class %d, index %d) is %dx%d with %d values, parameter %d is %dx%d",
			class, index, m.Rows, m.Cols, len(m.Data), i, p.Rows, p.Cols)
	}
	switch {
	case s < 0 && a.ck.Weights[i] == nil:
		a.ck.Weights[i] = m
	case s >= 0 && a.ck.Slots[s][i] == nil:
		a.ck.Slots[s][i] = m.Data
	default:
		return fmt.Errorf("train: state tensor (class %d, index %d) arrived twice", class, index)
	}
	a.left--
	return nil
}

// ReadCheckpoint reads and validates the checkpoint at path.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(buf)
}

// ckptName names the checkpoint file of a step count.
func ckptName(step int) string { return fmt.Sprintf("ckpt-%09d.bin", step) }

// SaveCheckpoint writes c into dir (created if missing) under its
// step-derived name and returns the path. The bytes stream into a temp file
// in dir, are synced, and replace the path in one rename, so a crash
// mid-write never corrupts an existing checkpoint.
func SaveCheckpoint(dir string, c *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err = encodeTo(bw, c); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	path := filepath.Join(dir, ckptName(c.Step))
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return path, nil
}

// LatestCheckpoint loads the newest valid checkpoint in dir, trying files in
// descending step order and skipping ones that fail validation (a torn write
// of a later checkpoint falls back to the previous one). An intact file of
// another format version ends the search with an error naming the version.
// It returns nil with no error when dir holds no usable checkpoint or does
// not exist.
func LatestCheckpoint(dir string) (*Checkpoint, string, error) {
	names, err := ckptNames(dir)
	if err != nil {
		return nil, "", err
	}
	for _, n := range names {
		path := filepath.Join(dir, n)
		c, err := ReadCheckpoint(path)
		switch {
		case err == nil:
			return c, path, nil
		case errors.Is(err, errCkptVersion):
			return nil, "", fmt.Errorf("%w: %s", err, path)
		}
	}
	return nil, "", nil
}

// ckptNames lists dir's checkpoint file names in descending step order.
func ckptNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir) // sorted by name, so by step
	if os.IsNotExist(err) {
		return nil, nil
	}
	var names []string
	for _, e := range ents {
		if ok, _ := filepath.Match("ckpt-*.bin", e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	slices.Reverse(names)
	return names, err
}

// PruneCheckpoints deletes old checkpoints from dir, keeping the keep newest
// files plus, always, the file LatestCheckpoint would fall back to, so
// retention around a torn write can never destroy the only recoverable
// state. A dir with keep or fewer checkpoints is left untouched. Returns the
// deleted paths.
func PruneCheckpoints(dir string, keep int) ([]string, error) {
	if keep < 1 {
		return nil, fmt.Errorf("train: checkpoint retention needs keep >= 1, got %d", keep)
	}
	names, err := ckptNames(dir)
	if err != nil || len(names) <= keep {
		return nil, err
	}
	// Everything newer than the newest valid file is torn.
	_, newestValid, err := LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for i, n := range names {
		path := filepath.Join(dir, n)
		if i < keep || path == newestValid {
			continue
		}
		if err := os.Remove(path); err != nil {
			return removed, err
		}
		removed = append(removed, path)
	}
	return removed, nil
}
