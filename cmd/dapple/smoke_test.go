package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMultiProcessLoopbackSmoke is the distributed-runtime end-to-end gate:
// it builds the real dapple and dapple-worker binaries, starts two worker
// processes and a coordinator process on 127.0.0.1, trains 3 iterations of a
// replicated plan across them, and requires the coordinator to report every
// iteration's loss within 1e-6 of the sequential reference (the binary
// exits non-zero past that drift). Three OS processes, real sockets — the
// same topology as the README walkthrough.
func TestMultiProcessLoopbackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dapple")
	wbin := filepath.Join(dir, "dapple-worker")
	for path, pkg := range map[string]string{bin: "dapple/cmd/dapple", wbin: "dapple/cmd/dapple-worker"} {
		out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	addr0 := startWorker(t, wbin, 0)
	addr1 := startWorker(t, wbin, 1, "-peers", addr0)

	coord := exec.Command(bin,
		"-execute", "-config", "B", "-servers", "4", "-gbs", "64",
		"-exec-iters", "3", "-exec-workers", addr0+","+addr1)
	out, err := coord.CombinedOutput()
	if err != nil {
		t.Fatalf("coordinator failed: %v\n%s", err, out)
	}
	text := string(out)
	for it := 1; it <= 3; it++ {
		if !strings.Contains(text, fmt.Sprintf("iter  %d", it)) {
			t.Errorf("coordinator output missing iteration %d:\n%s", it, text)
		}
	}
	if !strings.Contains(text, "distributed losses match sequential within 1e-6") {
		t.Errorf("coordinator did not report loss equivalence:\n%s", text)
	}
}

// TestMultiProcessChaosRecoverySmoke is the fault-tolerance end-to-end gate:
// three worker processes train a pipeline, one of them is scripted (via
// -die-at-step) to kill itself in the middle of iteration 3, and the
// coordinator must detect the death, re-plan onto the two survivors, restore
// the latest on-disk checkpoint, rewind and finish — with every completed
// iteration's loss still within 1e-6 of the uninterrupted sequential
// reference (the binary exits non-zero past that drift).
func TestMultiProcessChaosRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dapple")
	wbin := filepath.Join(dir, "dapple-worker")
	for path, pkg := range map[string]string{bin: "dapple/cmd/dapple", wbin: "dapple/cmd/dapple-worker"} {
		out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	addr0 := startWorker(t, wbin, 0)
	addr1 := startWorker(t, wbin, 1, "-peers", addr0, "-die-at-step", "2")
	addr2 := startWorker(t, wbin, 2, "-peers", addr0+","+addr1)

	coord := exec.Command(bin,
		"-execute", "-config", "B", "-servers", "3", "-gbs", "64",
		"-exec-iters", "4", "-exec-workers", addr0+","+addr1+","+addr2,
		"-heartbeat", "100ms",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-checkpoint-every", "1")
	out, err := coord.CombinedOutput()
	if err != nil {
		t.Fatalf("coordinator failed: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "recover: lost ranks [1]") {
		t.Errorf("coordinator never recovered from the scripted death:\n%s", text)
	}
	for it := 1; it <= 4; it++ {
		if !strings.Contains(text, fmt.Sprintf("iter  %d", it)) {
			t.Errorf("coordinator output missing iteration %d:\n%s", it, text)
		}
	}
	if !strings.Contains(text, "survived 1 worker failure(s)") {
		t.Errorf("coordinator did not report the survived failure:\n%s", text)
	}
	if !strings.Contains(text, "distributed losses match sequential within 1e-6") {
		t.Errorf("coordinator did not report loss equivalence:\n%s", text)
	}
}

// TestMultiProcessElasticSmoke is the elastic-membership end-to-end gate:
// two worker processes train a pipeline, one kills itself mid-run, the
// session shrinks onto the survivor and parks (-min-ranks 2); a THIRD
// process then joins the running session with -join, is granted a fresh
// rank, receives the state broadcast, and the session re-expands and
// finishes — every completed iteration within 1e-6 of the sequential
// reference (the binary exits non-zero past that drift).
func TestMultiProcessElasticSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dapple")
	wbin := filepath.Join(dir, "dapple-worker")
	for path, pkg := range map[string]string{bin: "dapple/cmd/dapple", wbin: "dapple/cmd/dapple-worker"} {
		out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	addr0 := startWorker(t, wbin, 0)
	addr1 := startWorker(t, wbin, 1, "-peers", addr0, "-die-at-step", "2")

	coord := exec.Command(bin,
		"-execute", "-config", "B", "-servers", "2", "-gbs", "64",
		"-exec-iters", "4", "-exec-workers", addr0+","+addr1,
		"-heartbeat", "100ms",
		"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-checkpoint-every", "1", "-checkpoint-keep", "2",
		"-elastic", "-min-ranks", "2")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = os.Stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	// Stream the coordinator's output: the join address appears at session
	// start, and the replacement is launched only once the session has
	// shrunk and is parked waiting — so the join deterministically lands
	// after the death.
	var text strings.Builder
	joinAddr := make(chan string, 1)
	waiting := make(chan struct{})
	coordDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		waited := false
		for sc.Scan() {
			line := sc.Text()
			text.WriteString(line + "\n")
			if _, addr, ok := strings.Cut(line, "dapple-worker -join "); ok {
				joinAddr <- strings.TrimSpace(addr)
			}
			if !waited && strings.Contains(line, "waiting for a joiner") {
				waited = true
				close(waiting)
			}
		}
		coordDone <- coord.Wait()
	}()

	var knock string
	select {
	case knock = <-joinAddr:
	case <-time.After(60 * time.Second):
		coord.Process.Kill()
		t.Fatal("coordinator never printed its join address")
	}
	select {
	case <-waiting:
	case <-time.After(60 * time.Second):
		coord.Process.Kill()
		t.Fatal("coordinator never shrank and parked for a joiner")
	}

	joiner := exec.Command(wbin, "-join", knock, "-listen", "127.0.0.1:0")
	jout, err := joiner.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	joiner.Stderr = os.Stderr
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	jtext := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(jout)
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text() + "\n")
		}
		jtext <- b.String()
	}()

	select {
	case err := <-coordDone:
		if err != nil {
			t.Fatalf("coordinator failed: %v\n%s", err, text.String())
		}
	case <-time.After(120 * time.Second):
		coord.Process.Kill()
		joiner.Process.Kill()
		t.Fatalf("coordinator never finished:\n%s", text.String())
	}
	if err := joiner.Wait(); err != nil {
		t.Fatalf("joiner exited: %v\n%s", err, <-jtext)
	}

	out := text.String()
	if !strings.Contains(out, "recover: lost ranks [1]") {
		t.Errorf("coordinator never recovered from the scripted death:\n%s", out)
	}
	if !strings.Contains(out, "expand: admitted ranks [3]") {
		t.Errorf("coordinator never admitted the replacement:\n%s", out)
	}
	for it := 1; it <= 4; it++ {
		if !strings.Contains(out, fmt.Sprintf("iter  %d", it)) {
			t.Errorf("coordinator output missing iteration %d:\n%s", it, out)
		}
	}
	if !strings.Contains(out, "distributed losses match sequential within 1e-6") {
		t.Errorf("coordinator did not report loss equivalence:\n%s", out)
	}
	if jo := <-jtext; !strings.Contains(jo, "admitted as rank 3") {
		t.Errorf("joiner never reported admission:\n%s", jo)
	}
}

// startWorker launches one dapple-worker process and returns the address it
// reports listening on. The process is killed (and its exit checked) at test
// cleanup.
func startWorker(t *testing.T, bin string, rank int, extra ...string) string {
	t.Helper()
	args := append([]string{"-rank", fmt.Sprint(rank), "-listen", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				addrCh <- strings.TrimSpace(addr)
			}
		}
		done <- cmd.Wait()
	}()
	t.Cleanup(func() {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker %d exited: %v", rank, err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Errorf("worker %d never exited; killed", rank)
		}
	})
	select {
	case addr := <-addrCh:
		return addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("worker %d never reported its address", rank)
		return ""
	}
}
