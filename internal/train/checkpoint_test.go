package train

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dapple/internal/nn"
	"dapple/internal/tensor"
	"dapple/internal/transport"
)

// ckptZoo lists one OptSpec per optimizer kind, covering the stateless and
// both stateful update rules.
var ckptZoo = []OptSpec{
	{Kind: "sgd", LR: 0.05},
	{Kind: "momentum", LR: 0.05, Beta: 0.9},
	{Kind: "adam", LR: 0.01},
}

// ckptNetSpec is a small heterogeneous skeleton for checkpoint tests.
var ckptNetSpec = []LayerSpec{
	{Kind: "dense", In: 7, Out: 11},
	{Kind: "relu"},
	{Kind: "dense", In: 11, Out: 5},
	{Kind: "tanh"},
	{Kind: "dense", In: 5, Out: 3},
}

// fillGrads writes a deterministic pseudo-random gradient into every param.
func fillGrads(params []nn.Param, rng *rand.Rand) {
	for _, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] = rng.NormFloat64()
		}
	}
}

// optSteps drives net through n optimizer steps with seeded gradients.
func optSteps(t *testing.T, net *nn.Network, opt nn.Optimizer, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < n; s++ {
		fillGrads(net.Params(), rng)
		opt.Step(net.Params())
	}
}

// TestCheckpointRoundTripBitForBit is the save→restore property test across
// the optimizer zoo: a restored session must hold bit-identical weights AND
// continue the exact trajectory — one more identical step on the original
// and the restored copy lands on bit-identical weights, which is only
// possible when the optimizer state (velocity, moments, step counter) was
// captured exactly.
func TestCheckpointRoundTripBitForBit(t *testing.T) {
	for _, spec := range ckptZoo {
		t.Run(spec.Kind, func(t *testing.T) {
			factory, err := spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			net, err := BuildNet(ckptNetSpec)
			if err != nil {
				t.Fatal(err)
			}
			opt := factory()
			optSteps(t, net, opt, 7, 5)

			ckpt := CaptureCheckpoint(5, net, opt)
			dir := t.TempDir()
			path, err := SaveCheckpoint(dir, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Step != 5 {
				t.Fatalf("loaded step %d, want 5", loaded.Step)
			}

			restoredNet, err := BuildNet(ckptNetSpec)
			if err != nil {
				t.Fatal(err)
			}
			restoredOpt := factory()
			if err := loaded.Restore(restoredNet, restoredOpt); err != nil {
				t.Fatal(err)
			}
			a, b := net.Params(), restoredNet.Params()
			for i := range a {
				for j := range a[i].W.Data {
					if a[i].W.Data[j] != b[i].W.Data[j] {
						t.Fatalf("param %d element %d differs after restore: %v vs %v",
							i, j, a[i].W.Data[j], b[i].W.Data[j])
					}
				}
			}

			// The decisive half: identical future steps.
			optSteps(t, net, opt, 99, 3)
			optSteps(t, restoredNet, restoredOpt, 99, 3)
			for i := range a {
				for j := range a[i].W.Data {
					if a[i].W.Data[j] != b[i].W.Data[j] {
						t.Fatalf("%s: trajectories diverged at param %d element %d: %v vs %v — optimizer state not round-tripped",
							spec.Kind, i, j, a[i].W.Data[j], b[i].W.Data[j])
					}
				}
			}
		})
	}
}

// TestCheckpointRejectsCorruption flips every byte position of an encoded
// checkpoint in turn and requires each corruption to be rejected; short
// writes (every truncation length) must be rejected too.
func TestCheckpointRejectsCorruption(t *testing.T) {
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 3, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.01)
	optSteps(t, net, opt, 3, 2)
	buf := EncodeCheckpoint(CaptureCheckpoint(2, net, opt))
	if _, err := DecodeCheckpoint(buf); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	for pos := 0; pos < len(buf); pos++ {
		bad := append([]byte(nil), buf...)
		bad[pos] ^= 0x40
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
	for n := 0; n < len(buf); n++ {
		if _, err := DecodeCheckpoint(buf[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// resealCkpt overwrites buf's last 4 bytes with the CRC of the rest, so a
// hand-built or fuzzed image passes the checksum and reaches the decoder.
func resealCkpt(buf []byte) []byte {
	body := buf[:len(buf)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// hostileCkpt is a 116-byte checkpoint with a valid CRC whose one weight
// frame announces a rows x cols shape: decoding it must fail before it
// allocates what the shape asks for (up to 128 MiB within the frame limit,
// 8 GiB past it).
func hostileCkpt(rows, cols uint32) []byte {
	buf := EncodeCheckpoint(&Checkpoint{Step: 7, Weights: []*tensor.Matrix{tensor.New(1, 1)}})
	frame := buf[transport.HeaderSize+binary.Size(ckptHead{}):] // the weight frame's header
	binary.LittleEndian.PutUint32(frame[24:], rows)
	binary.LittleEndian.PutUint32(frame[28:], cols)
	binary.LittleEndian.PutUint32(frame[32:], uint32(uint64(rows)*uint64(cols)*8))
	return resealCkpt(buf)
}

// hostileCkpts are valid-CRC checkpoints whose header or frames announce
// more than their bytes hold: an oversized shape within and past one frame,
// and a trained Adam checkpoint announcing a huge parameter or slot count.
func hostileCkpts(tb testing.TB) map[string][]byte {
	net, err := BuildNet(ckptNetSpec)
	if err != nil {
		tb.Fatal(err)
	}
	good := EncodeCheckpoint(CaptureCheckpoint(3, net, nn.NewAdam(0.01)))
	counts := transport.HeaderSize + 24 // ckptHead's NParams, then NSlots
	hugeParams := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeParams[counts:], 0xFFFFFFFF)
	hugeSlots := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(hugeSlots[counts+4:], 0xFFFFFFFF)
	return map[string][]byte{
		"oversized shape":      hostileCkpt(4096, 4096),
		"shape past one frame": hostileCkpt(32768, 32768),
		"huge nparams":         resealCkpt(hugeParams),
		"huge nslots":          resealCkpt(hugeSlots),
	}
}

// TestDecodeCheckpointBoundsCounts checks every size a file or a manifest
// announces is bounded before anything of that size is allocated — an
// oversized shape, a huge parameter count, a huge slot count (each decoded
// within 1 MiB of allocation), a dense layer whose weight cannot travel as
// one tensor frame (in a manifest, a master network, or a coordinator's) —
// and that LatestCheckpoint falls back past such a file to the newest valid
// one.
func TestDecodeCheckpointBoundsCounts(t *testing.T) {
	for name, buf := range hostileCkpts(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeCheckpoint(buf)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 && !raceEnabled {
			t.Errorf("%s: decoding allocated %d bytes before refusing", name, grew)
		}
	}
	// A header-only master: its weight announces 8 TiB and holds nothing.
	hugeMaster := &nn.Network{Layers: []nn.Layer{&nn.Dense{W: &tensor.Matrix{Rows: 1 << 20, Cols: 1 << 20}}}}
	plan, _ := tinyPlan(t)
	for name, build := range map[string]func() error{
		"dense layer past one frame": func() error {
			_, err := BuildNet([]LayerSpec{{Kind: "dense", In: 1 << 20, Out: 1 << 20}})
			return err
		},
		"dense layer past int range": func() error {
			_, err := BuildNet([]LayerSpec{{Kind: "dense", In: 1 << 62, Out: 1 << 62}})
			return err
		},
		"master past one frame": func() error { _, err := NetSpec(hugeMaster); return err },
		"coordinator over that master": func() error {
			_, err := NewCoordinator(context.Background(), transport.NewTCP(), plan, hugeMaster,
				OptSpec{Kind: "sgd", LR: 0.1}, ExecOptions{}, []int{0}, 1)
			return err
		},
	} {
		if err := build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	net, err := BuildNet(ckptNetSpec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := SaveCheckpoint(dir, CaptureCheckpoint(3, net, nn.NewAdam(0.01))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckptName(7)), hostileCkpt(4096, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, _, err := LatestCheckpoint(dir)
	if err != nil || ck == nil || ck.Step != 3 {
		t.Fatalf("LatestCheckpoint = %v, %v; want the valid step-3 checkpoint", ck, err)
	}
}

// v1Ckpt hand-builds an intact version-1 image of c: a bare header, each
// weight's shape and float64s, each slot vector, then the CRC.
func v1Ckpt(c *Checkpoint) []byte {
	le := binary.LittleEndian
	buf, _ := binary.Append(nil, le, ckptHead{ckptMagic, 1, uint64(c.Step), uint64(c.OptStep), uint32(len(c.Weights)), uint32(len(c.Slots))})
	for _, w := range c.Weights {
		buf = le.AppendUint32(le.AppendUint32(buf, uint32(w.Rows)), uint32(w.Cols))
		buf, _ = binary.Append(buf, le, w.Data)
	}
	for _, slot := range c.Slots {
		for _, v := range slot {
			buf, _ = binary.Append(buf, le, v)
		}
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// TestCheckpointRefusesVersion1 checks an intact version-1 file is refused
// by name, never skipped as torn: DecodeCheckpoint names the version, and a
// coordinator whose checkpoint dir holds one as its newest file fails to
// start rather than train from step 0 (or an older file) in silence.
func TestCheckpointRefusesVersion1(t *testing.T) {
	plan, master := tinyPlan(t)
	opt := nn.NewMomentum(0.05, 0.9)
	optSteps(t, master, opt, 5, 2)
	old := v1Ckpt(CaptureCheckpoint(4, master, opt))
	if _, err := DecodeCheckpoint(old); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("DecodeCheckpoint(v1) = %v, want an error naming version 1", err)
	}
	dir := t.TempDir()
	if _, err := SaveCheckpoint(dir, CaptureCheckpoint(2, master, opt)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckptName(4)), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewCoordinator(context.Background(), transport.NewTCP(), plan, master,
		OptSpec{Kind: "momentum", LR: 0.05, Beta: 0.9}, ExecOptions{}, []int{0}, 1, WithCheckpoint(dir, 1))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("NewCoordinator over a v1 checkpoint = %v, want an error naming version 1", err)
	}
}

// FuzzDecodeCheckpoint feeds DecodeCheckpoint arbitrary images resealed with
// a valid CRC, so inputs reach past the checksum into the header counts,
// the frame headers and the assembler: it must fail cleanly on anything
// malformed, and whatever it accepts must re-encode to exactly the same
// bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, spec := range ckptZoo {
		net, err := BuildNet(ckptNetSpec)
		if err != nil {
			f.Fatal(err)
		}
		factory, err := spec.Factory()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeCheckpoint(CaptureCheckpoint(2, net, factory())))
	}
	for _, buf := range hostileCkpts(f) {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 4 {
			return
		}
		buf := resealCkpt(raw)
		c, err := DecodeCheckpoint(buf)
		if err != nil {
			return
		}
		if re := EncodeCheckpoint(c); !bytes.Equal(re, buf) {
			t.Fatalf("accepted checkpoint did not re-encode identically (%d vs %d bytes)", len(re), len(buf))
		}
	})
}

// statePair wires a worker (rank 0) and a coordinator (rank 1) on loopback
// TCP for a test that moves training state between them by hand.
func statePair(t *testing.T) (w *Worker, c *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wt, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wt.SetRank(0)
	ct := transport.NewTCP()
	ct.SetRank(1)
	t.Cleanup(func() { wt.Close(); ct.Close() })
	if err := ct.Dial(ctx, 0, wt.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := wt.WaitPeers(ctx, []int{1}); err != nil {
		t.Fatal(err)
	}
	w = NewWorker(wt, 0)
	w.coord = 1
	return w, &Coordinator{t: ct, coord: 1, alive: []int{0}}
}

// TestStateBroadcastRoundTrip moves a trained checkpoint of every optimizer
// kind across a TCP pair through the one state sender and the one
// assembler, both ways: the coordinator's broadcast into a worker's
// receiveState, and a worker's share of a snapshot gather into the
// coordinator's. Each side's result must encode to exactly the bytes of the
// checkpoint that was sent, and the CRC weights-done carries must be the
// one EncodeCheckpoint appends. The broadcast must refuse a weights-done whose
// CRC does not match, the assembler a duplicate index, an index out of
// range and a misshapen weight, and the gather a rank that acks before its
// whole share arrived (at once: the ack ends the share) and a short slot
// vector.
func TestStateBroadcastRoundTrip(t *testing.T) {
	for _, spec := range ckptZoo {
		t.Run(spec.Kind, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			factory, err := spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			net, err := BuildNet(ckptNetSpec)
			if err != nil {
				t.Fatal(err)
			}
			opt := factory()
			optSteps(t, net, opt, 17, 3)
			ck := CaptureCheckpoint(4, net, opt)
			want := EncodeCheckpoint(ck)
			if tail := binary.LittleEndian.Uint32(want[len(want)-4:]); ck.checksum() != tail {
				t.Fatalf("checksum %08x, EncodeCheckpoint's CRC tail %08x", ck.checksum(), tail)
			}
			params := net.Params()
			n := len(params)
			w, c := statePair(t)
			c.master, c.opt, c.step = net, spec, ck.Step

			man := &Manifest{Opt: spec}
			for _, crc := range []uint32{ck.checksum(), ck.checksum() ^ 1} {
				if err := sendState(toPeer(c.t, 0), 0, n, ck.Weights, ck.Slots); err != nil {
					t.Fatal(err)
				}
				done := envelope{Kind: ctrlWeightsDone, Step: ck.Step, OptStep: ck.OptStep, CRC: crc}
				if err := sendEnvelope(c.t, 0, done); err != nil {
					t.Fatal(err)
				}
				got, err := w.receiveState(ctx, man, params)
				switch {
				case crc != ck.checksum():
					if err == nil || !strings.Contains(err.Error(), "CRC") {
						t.Fatalf("weights-done with a wrong CRC: got %v, want a CRC mismatch", err)
					}
				case err != nil:
					t.Fatal(err)
				case !bytes.Equal(EncodeCheckpoint(got), want):
					t.Fatal("broadcast state does not re-encode to the checkpoint that was sent")
				}
			}

			// The gather: the worker sends in two parts, as two stages'
			// primaries would, then acks; the snapshot must assemble it.
			if err := sendState(toPeer(w.t, 1), 0, n, ck.Weights[:2], sliceSlots(ck.Slots, 0, 2)); err != nil {
				t.Fatal(err)
			}
			if err := sendState(toPeer(w.t, 1), 2, n, ck.Weights[2:], sliceSlots(ck.Slots, 2, n)); err != nil {
				t.Fatal(err)
			}
			if err := sendEnvelope(w.t, 1, envelope{Kind: ctrlSnapAck, OptStep: ck.OptStep}); err != nil {
				t.Fatal(err)
			}
			if err := c.snapshot(ctx); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(EncodeCheckpoint(c.ckpt), want) {
				t.Fatal("gathered snapshot does not encode to the checkpoint that was sent")
			}

			// A short ack: the worker sends its first two parameters' state
			// and acks. Nothing more can follow the ack, so the gather must
			// fail now, naming the shortfall, rather than wait out its ctx.
			if err := sendState(toPeer(w.t, 1), 0, n, ck.Weights[:2], sliceSlots(ck.Slots, 0, 2)); err != nil {
				t.Fatal(err)
			}
			if err := sendEnvelope(w.t, 1, envelope{Kind: ctrlSnapAck, OptStep: ck.OptStep}); err != nil {
				t.Fatal(err)
			}
			sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
			err = c.snapshot(sctx)
			scancel()
			if missing := (n - 2) * (1 + len(ck.Slots)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d state tensors missing", missing)) {
				t.Fatalf("a gather acked %d tensors short: got %v, want the shortfall named", missing, err)
			}

			shaped := func(i int) *tensor.Matrix { return tensor.New(params[i].W.Rows, params[i].W.Cols) }
			for name, put := range map[string]func(a *assembly) error{
				"duplicate index": func(a *assembly) error {
					if err := a.put(tensWeight, 1, shaped(1)); err != nil {
						t.Fatalf("a well-formed weight was refused: %v", err)
					}
					return a.put(tensWeight, 1, shaped(1))
				},
				"index past the slots":  func(a *assembly) error { return a.put(tensOptS, (len(ck.Slots)+1)*n, shaped(0)) },
				"index past the params": func(a *assembly) error { return a.put(tensWeight, n, shaped(0)) },
				"negative index":        func(a *assembly) error { return a.put(tensWeight, -1, shaped(0)) },
				"misshapen weight": func(a *assembly) error {
					return a.put(tensWeight, 0, tensor.New(params[0].W.Cols, params[0].W.Rows))
				},
			} {
				if err := put(newAssembly(params, len(ck.Slots))); err == nil {
					t.Errorf("%s: accepted", name)
				}
			}
			if len(ck.Slots) == 0 {
				return
			}
			short := &tensor.Matrix{Rows: 1, Cols: len(ck.Slots[0][0]) - 1, Data: ck.Slots[0][0][1:]}
			if err := w.t.SendTensor(1, tensOptS, 0, short, nil); err != nil {
				t.Fatal(err)
			}
			if err := c.snapshot(ctx); err == nil {
				t.Fatal("a snapshot gather accepted a short slot vector")
			}
		})
	}
}

// sliceSlots returns every slot's vectors of parameters [lo, hi).
func sliceSlots(slots [][][]float64, lo, hi int) [][][]float64 {
	sub := make([][][]float64, len(slots))
	for s := range slots {
		sub[s] = slots[s][lo:hi]
	}
	return sub
}

// TestLatestCheckpointSkipsTorn writes three checkpoints, corrupts the
// newest on disk, and checks LatestCheckpoint falls back to the newest valid
// one — the crash-mid-write recovery path.
func TestLatestCheckpointSkipsTorn(t *testing.T) {
	dir := t.TempDir()
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 2, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewMomentum(0.1, 0.9)
	var last string
	for step := 1; step <= 3; step++ {
		optSteps(t, net, opt, int64(step), 1)
		if last, err = SaveCheckpoint(dir, CaptureCheckpoint(step, net, opt)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest file short.
	buf, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c, path, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || c.Step != 2 {
		t.Fatalf("latest usable checkpoint step = %v, want 2", c)
	}
	if filepath.Base(path) != ckptName(2) {
		t.Fatalf("latest usable checkpoint path = %s", path)
	}

	// An empty or missing directory is a clean no-checkpoint start.
	if c, _, err := LatestCheckpoint(filepath.Join(dir, "missing")); err != nil || c != nil {
		t.Fatalf("missing dir: (%v, %v), want (nil, nil)", c, err)
	}
}

// TestPruneCheckpointsKeepLast writes five checkpoints and prunes to the two
// newest: exactly those two must survive, in-window files must never be
// touched, and a second prune must be a no-op.
func TestPruneCheckpointsKeepLast(t *testing.T) {
	dir := t.TempDir()
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 2, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewMomentum(0.1, 0.9)
	for step := 1; step <= 5; step++ {
		optSteps(t, net, opt, int64(step), 1)
		if _, err := SaveCheckpoint(dir, CaptureCheckpoint(step, net, opt)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PruneCheckpoints(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 {
		t.Fatalf("pruned %d files, want 3: %v", len(removed), removed)
	}
	names, err := ckptNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != ckptName(5) || names[1] != ckptName(4) {
		t.Fatalf("surviving checkpoints %v, want [%s %s]", names, ckptName(5), ckptName(4))
	}
	// Idempotent: nothing left to prune.
	if removed, err := PruneCheckpoints(dir, 2); err != nil || len(removed) != 0 {
		t.Fatalf("second prune removed %v (err %v), want nothing", removed, err)
	}
	// The newest must still load.
	c, _, err := LatestCheckpoint(dir)
	if err != nil || c == nil || c.Step != 5 {
		t.Fatalf("after prune LatestCheckpoint = (%v, %v), want step 5", c, err)
	}
}

// TestPruneCheckpointsKeepsNewestValid is the torn-write safety property:
// with the newest file corrupt and keep=1, pruning must preserve BOTH the
// (possibly recoverable) newest file and the newest valid checkpoint behind
// it, so LatestCheckpoint's fallback still lands on usable state after
// retention runs.
func TestPruneCheckpointsKeepsNewestValid(t *testing.T) {
	dir := t.TempDir()
	net, err := BuildNet([]LayerSpec{{Kind: "dense", In: 2, Out: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewMomentum(0.1, 0.9)
	var last string
	for step := 1; step <= 4; step++ {
		optSteps(t, net, opt, int64(step), 1)
		if last, err = SaveCheckpoint(dir, CaptureCheckpoint(step, net, opt)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the newest file short, as a crash mid-write would.
	buf, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, buf[:len(buf)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PruneCheckpoints(dir, 1); err != nil {
		t.Fatal(err)
	}
	names, err := ckptNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != ckptName(4) || names[1] != ckptName(3) {
		t.Fatalf("surviving checkpoints %v, want the torn newest plus the newest valid [%s %s]",
			names, ckptName(4), ckptName(3))
	}
	c, path, err := LatestCheckpoint(dir)
	if err != nil || c == nil || c.Step != 3 {
		t.Fatalf("fallback after prune = (%v, %v), want step 3", c, err)
	}
	if filepath.Base(path) != ckptName(3) {
		t.Fatalf("fallback path %s, want %s", path, ckptName(3))
	}

	// Degenerate inputs: keep < 1 is an error; a missing dir prunes nothing.
	if _, err := PruneCheckpoints(dir, 0); err == nil {
		t.Fatal("PruneCheckpoints(keep=0) did not error")
	}
	if removed, err := PruneCheckpoints(filepath.Join(dir, "missing"), 3); err != nil || removed != nil {
		t.Fatalf("missing dir prune = (%v, %v), want (nil, nil)", removed, err)
	}
}
