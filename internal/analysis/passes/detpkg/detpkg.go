// Package detpkg names the repository's deterministic core: the
// packages whose behavior must be a pure function of their inputs,
// because the golden-equivalence tests (byte-identical stacks from the
// event loop and the test-only per-cycle reference loop) and the
// crash-recovery validation (spec-hash-addressed results served
// byte-identically after restart) both assume it. The detrange and
// nowallclock analyzers apply only inside this set.
package detpkg

import "strings"

// List is the deterministic core, as module-relative package paths.
var List = []string{
	"internal/addrmap",
	"internal/cache",
	"internal/cpu",
	"internal/cyclestack",
	"internal/dram",
	"internal/dram/standard",
	"internal/exp",
	"internal/memctrl",
	"internal/prefetch",
	"internal/qos",
	"internal/sched",
	"internal/sim",
	"internal/stacks",
	"internal/workload",
}

// Deterministic reports whether a package path — as spelled by the vet
// driver, which may be a test variant like
// "dramstacks/internal/exp [dramstacks/internal/exp.test]" or the
// external test package "dramstacks/internal/exp_test" — belongs to the
// deterministic core.
func Deterministic(path string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i] // strip the " [pkg.test]" variant suffix
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	for _, p := range List {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}
