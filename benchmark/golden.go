package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// golden.json pins, per workload at the default seed, the sha256 of the
// result document (exp.ResultJSONRow for a simulated machine, the
// concatenated sweep result lines for svc-sweep) and the exact
// dram.Stats, retired-uop and memory-cycle totals. A change meant only to
// speed up or simplify the simulator must leave all of it identical.
// Regenerate, after a change that is meant to alter simulated behaviour:
//
//	bash benchmark/run.sh golden
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]facts {
	m := map[string]facts{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("benchmark/golden.json: %v", err))
	}
	return m
}()

// writeGolden runs every workload once at the default seed and rewrites
// path with its outputs.
func writeGolden(ctx context.Context, path string) error {
	m := map[string]facts{}
	for _, w := range workloads {
		o := w.rep(ctx, defaultSeed)
		if o.failed > 0 {
			return fmt.Errorf("%s: %v", w.name, o.notes)
		}
		m[w.name] = o.facts
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
