package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dramstacks/internal/exp"
)

func TestRunSyntheticWorkloads(t *testing.T) {
	for _, wl := range []string{"seq", "random", "strided", "triad"} {
		if err := run(wl, "", 1, 1, 0, "", "def", "", 20_000, 0, 17, 0, "", "", "", false); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
	}
}

func TestRunGapWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("gap run skipped in -short")
	}
	if err := run("bfs", "", 2, 1, 0, "", "def", "", 30_000, 0, 12, 0, "", "", "", false); err != nil {
		t.Errorf("bfs: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	in := writeTestTrace(t)
	cases := []struct {
		name string
		err  string
		call func() error
	}{
		{"bad workload", "unknown workload", func() error {
			return run("nope", "", 1, 1, 0, "", "def", "", 1000, 0, 17, 0, "", "", "", false)
		}},
		{"bad mapping", "unknown mapping", func() error {
			return run("seq", "", 1, 1, 0, "", "zigzag", "", 1000, 0, 17, 0, "", "", "", false)
		}},
		{"bad policy", `unknown policy "lukewarm" (want open or closed)`, func() error {
			return run("seq", "", 1, 1, 0, "lukewarm", "def", "", 1000, 0, 17, 0, "", "", "", false)
		}},
		{"trace bad policy", `unknown policy "lukewarm" (want open or closed)`, func() error {
			return run("trace", in, 1, 1, 0, "lukewarm", "def", "", 1000, 0, 17, 0, "", "", "", false)
		}},
		{"trace without file", "-in", func() error {
			return run("trace", "", 1, 1, 0, "", "def", "", 1000, 0, 17, 0, "", "", "", false)
		}},
		{"csv without sample", "-csv needs -sample", func() error {
			return run("seq", "", 1, 1, 0, "", "def", "", 1000, 0, 17, 0, "", "out.csv", "", false)
		}},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.err)
		}
	}
}

// TestRunJSONOutput checks -json emits the dramstacksd wire format with
// the spec hash stamped in.
func TestRunJSONOutput(t *testing.T) {
	out := captureStdout(t, func() error {
		return run("seq", "", 1, 1, 0, "", "def", "", 20_000, 0, 17, 0, "", "", "", true)
	})
	var row exp.RowJSON
	if err := json.Unmarshal(out, &row); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out)
	}
	spec := exp.Spec{Workload: "seq", Cores: 1, Channels: 1, Budget: 20_000, Scale: 17}
	wantHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if row.SpecHash != wantHash {
		t.Errorf("spec_hash = %q, want %q", row.SpecHash, wantHash)
	}
	if row.MemCycles != 20_000 {
		t.Errorf("mem_cycles = %d, want 20000", row.MemCycles)
	}
}

func TestRunWithTraceAndCSVOutputs(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "cmds.trace")
	csvOut := filepath.Join(dir, "samples.csv")
	if err := run("seq", "", 1, 1, 0, "", "def", "", 30_000, 10_000, 17, 0, "", csvOut, traceOut, false); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(traceOut)
	if err != nil || len(tr) == 0 {
		t.Errorf("trace file missing or empty: %v", err)
	}
	if !strings.Contains(string(tr), "ACT") || !strings.Contains(string(tr), "RD") {
		t.Error("trace file lacks commands")
	}
	csv, err := os.ReadFile(csvOut)
	if err != nil || !strings.HasPrefix(string(csv), "start_cycle,") {
		t.Errorf("csv file wrong: %v", err)
	}
}

// captureStdout runs call with os.Stdout redirected and returns what it
// wrote there; call's error fails the test.
func captureStdout(t *testing.T, call func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		read <- out
	}()
	os.Stdout = w
	runErr := call()
	w.Close()
	os.Stdout = old
	out := <-read
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// writeTestTrace writes a 64-line application trace — one read per cache
// line of a 4 KiB region, 8 uops of work apart — and returns its path.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	in := filepath.Join(t.TempDir(), "app.trace")
	var b strings.Builder
	for i := 0; i < 64; i++ {
		b.WriteString("R ")
		b.WriteString(strings.TrimSpace((" " + hex(uint64(i*64)))))
		b.WriteString(" 8\n")
	}
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunTracePlayerWorkload(t *testing.T) {
	in := writeTestTrace(t)
	if err := run("trace", in, 1, 1, 0, "", "def", "", 20_000, 0, 17, 0, "", "", "", false); err != nil {
		t.Errorf("trace workload: %v", err)
	}
}

// TestRunTraceRejectsBeyondReach: a trace that touches the cache
// hierarchy's reach (the L1's, 2 TiB on the paper's machine), where two
// addresses would share a tag, is refused before it is simulated, with an
// error that names the address and the reach; one whose highest line is
// the last below the reach runs.
func TestRunTraceRejectsBeyondReach(t *testing.T) {
	const reach = 2 << 40
	for _, tc := range []struct {
		addr uint64
		ok   bool
	}{{reach - 64, true}, {reach, false}, {reach + 63, false}, {1 << 63, false}} {
		in := filepath.Join(t.TempDir(), "far.trace")
		body := fmt.Sprintf("R 0x40 2\nW %s 2\nB 0\n", hex(tc.addr))
		if err := os.WriteFile(in, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run("trace", in, 2, 1, 0, "", "def", "", 20_000, 0, 17, 0, "", "", "", false)
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s, below the reach: %v", hex(tc.addr), err)
		case !tc.ok && (err == nil || !strings.Contains(err.Error(), hex(tc.addr)) || !strings.Contains(err.Error(), hex(reach))):
			t.Errorf("%s: error %v, want one naming the address and the reach %s", hex(tc.addr), err, hex(reach))
		}
	}
}

// TestRunTraceJSONPinned pins what the trace replay simulates: the sha256
// of its -json document on the test trace, once with the default flags and
// once with every flag the replay reads moved off its default.
func TestRunTraceJSONPinned(t *testing.T) {
	in := writeTestTrace(t)
	cases := []struct {
		name string
		want string
		call func() error
	}{
		{"defaults", "52f7c94049e2758fddfca152a1a1360207029ef29bcdb12e3024fff63820f097", func() error {
			return run("trace", in, 1, 1, 0, "", "def", "", 500_000, 0, 17, 0, "", "", "", true)
		}},
		{"channels 2, xor, closed, qos, sampled", "7b163a7e40c2156af3f2a1c6a1c9196771b5475cb5a9e2dba2001e7a2532b493", func() error {
			return run("trace", in, 1, 2, 0, "closed", "xor", "", 20_000, 5_000, 17, 0, "win=2048,cap=0:16", "", "", true)
		}},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(captureStdout(t, tc.call))
		if got := fmt.Sprintf("%x", sum); got != tc.want {
			t.Errorf("%s: -json sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0x0"
	}
	var out []byte
	for v > 0 {
		out = append([]byte{digits[v&15]}, out...)
		v >>= 4
	}
	return "0x" + string(out)
}
