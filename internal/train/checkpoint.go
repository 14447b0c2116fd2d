package train

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dapple/internal/nn"
	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// Checkpoint binary format (version 1, little-endian):
//
//	u32 magic  u32 version  u64 step  u64 optStep  u32 nparams  u32 nslots
//	nparams × ( u32 rows  u32 cols  rows*cols × f64 weight )
//	nslots  × ( nparams × ( rows*cols × f64 state ) )
//	u32 crc32(IEEE) over everything above
//
// Snapshots are taken only at step boundaries, where PR 6's fail-stop
// construction guarantees no torn update can exist, so a checkpoint is
// always a state some uninterrupted run could have reached. Writes go
// through a temp file and an atomic rename: a crash mid-write leaves the
// previous checkpoint intact, and a short write fails the CRC on read.
const (
	ckptMagic   = 0xDA99C4B7
	ckptVersion = 1
)

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
		os := st.CaptureState(params)
		c.OptStep = os.Step
		c.Slots = os.Slots
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

// EncodeCheckpoint serializes c into the version-1 binary format.
func EncodeCheckpoint(c *Checkpoint) []byte {
	n := 32
	for _, w := range c.Weights {
		n += 8 + 8*len(w.Data)*(1+len(c.Slots))
	}
	buf := make([]byte, 0, n+4)
	encodeBody(c, func(p []byte) { buf = append(buf, p...) })
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// encodeBody hands emit c's version-1 image, CRC tail excluded, in pieces of
// at most 4 KiB that emit must not retain.
func encodeBody(c *Checkpoint, emit func([]byte)) {
	var scratch [4096]byte
	head := binary.LittleEndian.AppendUint32(scratch[:0], ckptMagic)
	head = binary.LittleEndian.AppendUint32(head, ckptVersion)
	head = binary.LittleEndian.AppendUint64(head, uint64(c.Step))
	head = binary.LittleEndian.AppendUint64(head, uint64(c.OptStep))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(c.Weights)))
	emit(binary.LittleEndian.AppendUint32(head, uint32(len(c.Slots))))
	vec := func(v []float64) {
		for len(v) > 0 {
			n := min(len(v), len(scratch)/8)
			for i, x := range v[:n] {
				binary.LittleEndian.PutUint64(scratch[8*i:], math.Float64bits(x))
			}
			emit(scratch[:8*n])
			v = v[n:]
		}
	}
	for _, w := range c.Weights {
		shape := binary.LittleEndian.AppendUint32(scratch[:0], uint32(w.Rows))
		emit(binary.LittleEndian.AppendUint32(shape, uint32(w.Cols)))
		vec(w.Data)
	}
	for _, slot := range c.Slots {
		for _, v := range slot {
			vec(v)
		}
	}
}

// DecodeCheckpoint parses and validates a version-1 checkpoint: magic,
// version, internal consistency and the trailing CRC. A truncated or
// bit-flipped file is rejected, never partially applied.
func DecodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < 36 {
		return nil, fmt.Errorf("train: checkpoint truncated (%d bytes)", len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("train: checkpoint checksum mismatch (%08x vs %08x)", got, sum)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != ckptMagic {
		return nil, fmt.Errorf("train: bad checkpoint magic %#08x", m)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != ckptVersion {
		return nil, fmt.Errorf("train: unsupported checkpoint version %d", v)
	}
	c := &Checkpoint{
		Step:    int(binary.LittleEndian.Uint64(body[8:])),
		OptStep: int(binary.LittleEndian.Uint64(body[16:])),
	}
	nparams := int(binary.LittleEndian.Uint32(body[24:]))
	nslots := int(binary.LittleEndian.Uint32(body[28:]))
	at := 32
	need := func(n int) error {
		if at+n > len(body) {
			return fmt.Errorf("train: checkpoint truncated at byte %d", at)
		}
		return nil
	}
	// Every count is bounded by the bytes left before it sizes an
	// allocation, so a corrupt header that passes the CRC fails as
	// truncated instead of exhausting memory. A parameter takes at least
	// 16 bytes (its shape plus one element).
	if nparams > (len(body)-at)/16 {
		return nil, fmt.Errorf("train: checkpoint announces %d params in %d bytes", nparams, len(body)-at)
	}
	readVec := func(n int) ([]float64, error) {
		if err := need(8 * n); err != nil {
			return nil, err
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[at:]))
			at += 8
		}
		return v, nil
	}
	c.Weights = make([]*tensor.Matrix, nparams)
	for i := 0; i < nparams; i++ {
		if err := need(8); err != nil {
			return nil, err
		}
		rows := int(binary.LittleEndian.Uint32(body[at:]))
		cols := int(binary.LittleEndian.Uint32(body[at+4:]))
		at += 8
		if rows <= 0 || cols <= 0 {
			return nil, fmt.Errorf("train: checkpoint param %d has shape %dx%d", i, rows, cols)
		}
		if cols > (len(body)-at)/8/rows { // rows*cols*8 bytes, never overflowing
			return nil, fmt.Errorf("train: checkpoint param %d of shape %dx%d truncated at byte %d", i, rows, cols, at)
		}
		w := tensor.New(rows, cols)
		vec, err := readVec(rows * cols)
		if err != nil {
			return nil, err
		}
		copy(w.Data, vec)
		c.Weights[i] = w
	}
	words := 0
	for _, w := range c.Weights {
		words += len(w.Data)
	}
	maxSlots := len(body) // slots over zero parameters take no bytes: cap them by the input size
	if words > 0 {
		maxSlots = (len(body) - at) / 8 / words
	}
	if nslots > maxSlots {
		return nil, fmt.Errorf("train: checkpoint announces %d optimizer slots in %d bytes", nslots, len(body)-at)
	}
	c.Slots = make([][][]float64, nslots)
	for s := 0; s < nslots; s++ {
		c.Slots[s] = make([][]float64, nparams)
		for i := 0; i < nparams; i++ {
			vec, err := readVec(len(c.Weights[i].Data))
			if err != nil {
				return nil, err
			}
			c.Slots[s][i] = vec
		}
	}
	if at != len(body) {
		return nil, fmt.Errorf("train: checkpoint has %d trailing bytes", len(body)-at)
	}
	return c, nil
}

// checksum is the CRC-32 tail EncodeCheckpoint appends to c's image,
// computed piecewise so that no image is allocated.
func (c *Checkpoint) checksum() uint32 {
	var sum uint32
	encodeBody(c, func(p []byte) { sum = crc32.Update(sum, crc32.IEEETable, p) })
	return sum
}

// Between processes a checkpoint travels as one tensor frame per vector, in
// both directions: the coordinator's broadcast to every worker that builds a
// session, and each primary rank's share of a snapshot gather. Weight i is a
// tensWeight frame at index i, and slot s of parameter i is a tensOptS frame
// at index s*nparams+i, shaped like weight i. sendState writes that form and
// assembly.put reads it; the closing envelope carries the step counters.

// sendState ships weights and their optimizer slot vectors to peer. A sender
// holding only part of the network (one stage) passes that part: weights[j]
// is global parameter base+j of nparams, and slots[s][j] its slot s.
func sendState(t *transport.TCP, peer, base, nparams int, weights []*tensor.Matrix, slots [][][]float64) error {
	for j, wt := range weights {
		if err := t.SendTensor(peer, tensWeight, base+j, wt, nil); err != nil {
			return err
		}
	}
	for s, slot := range slots {
		for j, vec := range slot {
			m := &tensor.Matrix{Rows: weights[j].Rows, Cols: weights[j].Cols, Data: vec}
			if err := t.SendTensor(peer, tensOptS, s*nparams+base+j, m, nil); err != nil {
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

// WriteCheckpoint writes c to path atomically: the bytes land in a temp file
// in the same directory, are synced, and replace path in one rename, so a
// crash mid-write never corrupts an existing checkpoint.
func WriteCheckpoint(path string, c *Checkpoint) error {
	buf := EncodeCheckpoint(c)
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
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
// step-derived name and returns the path.
func SaveCheckpoint(dir string, c *Checkpoint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ckptName(c.Step))
	if err := WriteCheckpoint(path, c); err != nil {
		return "", err
	}
	return path, nil
}

// LatestCheckpoint loads the newest valid checkpoint in dir, trying files in
// descending step order and skipping ones that fail validation (a torn write
// of a later checkpoint falls back to the previous one). It returns nil with
// no error when dir holds no usable checkpoint or does not exist.
func LatestCheckpoint(dir string) (*Checkpoint, string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".bin") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, n := range names {
		path := filepath.Join(dir, n)
		c, err := ReadCheckpoint(path)
		if err == nil {
			return c, path, nil
		}
	}
	return nil, "", nil
}

// ckptNames lists dir's checkpoint file names in descending step order.
func ckptNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".bin") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// PruneCheckpoints deletes old checkpoints from dir, keeping the keep newest
// files plus — always — the newest VALID checkpoint, wherever it sits. That
// extra rule makes pruning safe around torn writes: when the newest file is
// corrupt, the valid file LatestCheckpoint would fall back to is kept even if
// it has aged out of the keep window, so retention can never destroy the only
// recoverable state. Files are validated lazily, newest first, and a dir with
// keep or fewer checkpoints is left untouched. Returns the deleted paths.
func PruneCheckpoints(dir string, keep int) ([]string, error) {
	if keep < 1 {
		return nil, fmt.Errorf("train: checkpoint retention needs keep >= 1, got %d", keep)
	}
	names, err := ckptNames(dir)
	if err != nil || len(names) <= keep {
		return nil, err
	}
	// Find the newest file that actually decodes; everything newer is torn.
	newestValid := ""
	for _, n := range names {
		if _, err := ReadCheckpoint(filepath.Join(dir, n)); err == nil {
			newestValid = n
			break
		}
	}
	var removed []string
	for i, n := range names {
		if i < keep || n == newestValid {
			continue
		}
		path := filepath.Join(dir, n)
		if err := os.Remove(path); err != nil {
			return removed, err
		}
		removed = append(removed, path)
	}
	return removed, nil
}
