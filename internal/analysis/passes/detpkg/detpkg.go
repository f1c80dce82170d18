// Package detpkg names the packages the dramvet passes are gated on,
// and holds the one function that matches a vet-spelled package path
// against them.
//
// List is the repository's deterministic core: the packages whose
// behavior must be a pure function of their inputs, because the
// golden-equivalence tests (byte-identical stacks from the event loop
// and the test-only per-cycle reference loop) and the crash-recovery
// validation (spec-hash-addressed results served byte-identically
// after restart) both assume it. The detrange, nowallclock and
// poolescape analyzers apply only inside this set. Service is the
// dramstacksd package the lockhold, goroleak and errenvelope analyzers
// apply to.
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
	"internal/lineidx",
	"internal/memctrl",
	"internal/prefetch",
	"internal/qos",
	"internal/sched",
	"internal/sim",
	"internal/stacks",
	"internal/workload",
}

// Service is the dramstacksd package, as a module-relative path.
const Service = "internal/service"

// Match reports whether a package path — as spelled by the vet driver,
// which may be a test variant like
// "dramstacks/internal/exp [dramstacks/internal/exp.test]" or the
// external test package "dramstacks/internal/exp_test" — is one of
// pkgs, given as module-relative paths. A bare module-relative path
// (how analysistest loads a fixture) matches too.
func Match(path string, pkgs ...string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i] // strip the " [pkg.test]" variant suffix
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	for _, p := range pkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}
