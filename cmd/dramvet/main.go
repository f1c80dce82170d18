// Dramvet is the repository's custom vet suite: a multichecker that
// mechanically enforces the simulator's determinism, hashing, and
// locking invariants. It speaks the standard vettool protocol, so local
// and CI invocations are identical:
//
//	go build -o bin/dramvet ./cmd/dramvet
//	go vet -vettool=bin/dramvet ./...
//
// (or `make vet`). See doc/LINTING.md for what each analyzer guards and
// the //dramvet:allow escape hatch.
package main

import (
	"dramstacks/internal/analysis"
	"dramstacks/internal/analysis/passes/canonhash"
	"dramstacks/internal/analysis/passes/detrange"
	"dramstacks/internal/analysis/passes/errenvelope"
	"dramstacks/internal/analysis/passes/goroleak"
	"dramstacks/internal/analysis/passes/lockhold"
	"dramstacks/internal/analysis/passes/nowallclock"
	"dramstacks/internal/analysis/passes/poolescape"
	"dramstacks/internal/analysis/unit"
)

// Analyzers is the full dramvet suite, exported for the registration
// smoke test.
var Analyzers = []*analysis.Analyzer{
	canonhash.Analyzer,
	detrange.Analyzer,
	errenvelope.Analyzer,
	goroleak.Analyzer,
	lockhold.Analyzer,
	nowallclock.Analyzer,
	poolescape.Analyzer,
}

func main() {
	unit.Main(Analyzers...)
}
