// Package nowallclock forbids wall-clock time, process environment, and
// unseeded global randomness inside the deterministic simulator
// packages (see detpkg.List): simulated time must never alias wall
// time, and a simulation's output must be a pure function of its spec.
//
// Flagged: time.Now / time.Since / time.Until, os.Getenv / os.LookupEnv
// / os.Environ, and every math/rand (and math/rand/v2) function that
// draws from the global source. Explicitly seeded generators —
// rand.New(rand.NewSource(seed)) and friends — are fine, which is how
// the workload generators get reproducible randomness.
//
// _test.go files are exempt: tests legitimately measure wall time for
// deadlines and cancellation latency, and that cannot leak into
// simulated results.
package nowallclock

import (
	"go/ast"
	"go/types"
	"strings"

	"dramstacks/internal/analysis"
	"dramstacks/internal/analysis/passes/detpkg"
)

// Analyzer is the nowallclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "nowallclock",
	Doc: "forbid wall-clock, environment, and unseeded randomness in deterministic packages\n\n" +
		"Simulated time must never alias wall time: results must be a pure function of the\n" +
		"experiment spec. Use cycle counts, plumb configuration through sim.Config, and seed\n" +
		"every RNG explicitly.",
	Run: run,
}

// forbidden maps package path → function names that read ambient
// process state. An empty set means "every function except the
// constructors in seededOK".
var forbidden = map[string]map[string]bool{
	"time": {"Now": true, "Since": true, "Until": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true},
	// math/rand: the global-source functions. Handled by exclusion:
	// everything except the explicitly seeded constructors.
	"math/rand":    nil,
	"math/rand/v2": nil,
}

// seededOK are the math/rand functions that construct explicitly seeded
// generators rather than drawing from the global source.
var seededOK = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !detpkg.Match(pass.Pkg.Path(), detpkg.List...) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			path := pkgName.Imported().Path()
			names, watched := forbidden[path]
			if !watched {
				return true
			}
			fn := sel.Sel.Name
			switch {
			case names != nil && !names[fn]:
				return true
			case names == nil && seededOK[fn]:
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s in deterministic package %s: simulated results must be a pure function "+
					"of the spec; use cycle counts or an explicitly seeded source, or annotate "+
					"//dramvet:allow nowallclock(reason)", path, fn, pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}
