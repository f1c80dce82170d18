package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dramstacks/internal/analysis"
)

func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{
		"canonhash", "detrange", "errenvelope", "goroleak",
		"lockhold", "nowallclock", "poolescape",
	}
	if len(Analyzers) != len(want) {
		t.Fatalf("registered %d analyzers, want %d", len(Analyzers), len(want))
	}
	names := make(map[string]bool)
	for _, a := range Analyzers {
		names[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("analyzer %s is not registered", n)
		}
	}
	if err := analysis.Validate(Analyzers); err != nil {
		t.Fatal(err)
	}
}

// toolBinary returns a dramvet binary to test against: the one named by
// DRAMVET_BIN (CI builds the tool once and reuses it here), or a fresh
// build in a temp dir.
func toolBinary(t *testing.T) string {
	t.Helper()
	if bin := os.Getenv("DRAMVET_BIN"); bin != "" {
		if abs, err := filepath.Abs(bin); err == nil {
			bin = abs
		}
		if _, err := os.Stat(bin); err != nil {
			t.Fatalf("DRAMVET_BIN=%s: %v", bin, err)
		}
		return bin
	}
	bin := filepath.Join(t.TempDir(), "dramvet")
	build := exec.Command("go", "build", "-o", bin, "dramstacks/cmd/dramvet")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dramvet: %v\n%s", err, out)
	}
	return bin
}

// TestVetToolProtocol runs the tool through the real `go vet -vettool`
// protocol over the deterministic core and the service, which doubles
// as the enforcement that the tree stays clean.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets the tree; skipped in -short")
	}
	bin := toolBinary(t)
	vet := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/exp/...", "./internal/service/...", "./internal/stacks/...")
	vet.Dir = "../.."
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=dramvet found violations: %v\n%s", err, out)
	}
	// -V=full must print a version line in the form vet expects.
	ver := exec.Command(bin, "-V=full")
	out, err := ver.Output()
	if err != nil {
		t.Fatalf("dramvet -V=full: %v", err)
	}
	if !strings.Contains(string(out), "buildID=") {
		t.Fatalf("dramvet -V=full output %q lacks a buildID", out)
	}
}

// TestListFlag checks `dramvet -list`: one line per registered
// analyzer, name plus the first line of its doc, and nothing else.
func TestListFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool; skipped in -short")
	}
	bin := toolBinary(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("dramvet -list: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != len(Analyzers) {
		t.Fatalf("dramvet -list printed %d lines, want %d:\n%s", len(lines), len(Analyzers), out)
	}
	for i, a := range Analyzers {
		if !strings.HasPrefix(lines[i], a.Name) {
			t.Errorf("line %d = %q, want it to start with %q", i, lines[i], a.Name)
		}
		firstDocLine := strings.SplitN(a.Doc, "\n", 2)[0]
		if !strings.Contains(lines[i], firstDocLine) {
			t.Errorf("line %d = %q lacks the doc summary %q", i, lines[i], firstDocLine)
		}
	}
	// The protocol's -flags output must not advertise the human-only
	// -list flag to the go command.
	flagsOut, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("dramvet -flags: %v", err)
	}
	if strings.Contains(string(flagsOut), `"list"`) {
		t.Errorf("-flags output advertises -list to the go command:\n%s", flagsOut)
	}
}
