package detpkg

import (
	"os/exec"
	"strings"
	"testing"
)

func TestDeterministic(t *testing.T) {
	cases := []struct {
		path     string
		det, svc bool
	}{
		{"internal/dram", true, false},
		{"dramstacks/internal/dram", true, false},
		{"dramstacks/internal/dram/standard", true, false},
		{"dramstacks/internal/dram/standard [dramstacks/internal/dram/standard.test]", true, false},
		{"dramstacks/internal/exp", true, false},
		{"dramstacks/internal/exp.test", true, false},
		{"dramstacks/internal/exp_test", true, false},
		{"dramstacks/internal/exp [dramstacks/internal/exp.test]", true, false},
		{"internal/service", false, true},
		{"dramstacks/internal/service", false, true},
		{"dramstacks/internal/service [dramstacks/internal/service.test]", false, true},
		{"dramstacks/internal/service_test", false, true},
		{"dramstacks/internal/services", false, false},
		{"dramstacks/cmd/dramstacks", false, false},
		{"internal/drama", false, false},
		{"time", false, false},
	}
	for _, tc := range cases {
		if got := Match(tc.path, List...); got != tc.det {
			t.Errorf("Match(%q, List...) = %v, want %v", tc.path, got, tc.det)
		}
		if got := Match(tc.path, Service); got != tc.svc {
			t.Errorf("Match(%q, Service) = %v, want %v", tc.path, got, tc.svc)
		}
	}
}

// TestListCoversSimDeps keeps List in sync with reality: every internal
// package the simulator core actually imports must be registered, or
// the determinism analyzers silently stop looking at it. Walks the
// import graph from internal/sim via the go tool, so adding a new
// dependency to the simulator without registering it here fails CI.
func TestListCoversSimDeps(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go tool")
	}
	out, err := exec.Command("go", "list", "-deps", "dramstacks/internal/sim").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	registered := make(map[string]bool, len(List))
	for _, p := range List {
		registered[p] = true
	}
	for _, dep := range strings.Fields(string(out)) {
		rel, ok := strings.CutPrefix(dep, "dramstacks/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue // stdlib, or a non-internal module package
		}
		if !registered[rel] {
			t.Errorf("package %s is reachable from internal/sim but missing from detpkg.List; "+
				"register it so the determinism analyzers cover it", rel)
		}
	}
}
