package sim

import "context"

// RunReference runs s on the reference per-cycle loop, for the tests of
// package sim_test.
func (s *System) RunReference(ctx context.Context) *Result { return s.runSlow(ctx) }
