package sim

import "context"

// runSlow is the reference per-cycle loop: every component ticks on
// every DRAM cycle, exactly as the seed implementation did. It is the
// baseline the golden-equivalence tests compare the event loop against,
// and shares with RunContext only the layers underneath and the
// boundary bookkeeping. Recording each controller tick in ctrlTicked
// makes the event loop's lazy catch-up (enqueueTarget → catchUpCtrl) a
// no-op here.
func (s *System) runSlow(ctx context.Context) *Result {
	s.checkTenancy()
	done := ctx.Done()
	for {
		m := s.memCycle
		for c := 0; c < s.cfg.CPUMult; c++ {
			cpuNow := m*int64(s.cfg.CPUMult) + int64(c)
			for _, core := range s.cores {
				core.CPUCycle(cpuNow)
			}
			s.hier.Tick(cpuNow)
		}
		for ch, ctrl := range s.ctrls {
			ctrl.Tick(m)
			s.ctrlTicked[ch] = m
		}
		s.memCycle++

		if s.cfg.WarmupMemCycles > 0 && !s.warmed && s.memCycle >= s.cfg.WarmupMemCycles {
			s.snapWarm()
		}
		if s.cfg.SampleInterval > 0 && s.memCycle-s.nextCut >= s.cfg.SampleInterval {
			s.cutCycleSample()
			s.publishSamples()
		}
		if s.cfg.MaxMemCycles > 0 && s.memCycle >= s.cfg.MaxMemCycles {
			break
		}
		if done != nil && s.memCycle&cancelCheckMask == 0 {
			select {
			case <-done:
				s.cancelled = true
			default:
			}
			if s.cancelled {
				break
			}
		}
		if s.done() {
			break
		}
	}
	for _, ctrl := range s.ctrls {
		ctrl.FinishSampling()
	}
	s.finishCycleSample()
	s.publishSamples()
	return s.result()
}

// runLoop runs sys on the reference loop when slow is set, on the event
// loop otherwise.
func runLoop(ctx context.Context, sys *System, slow bool) *Result {
	if slow {
		return sys.runSlow(ctx)
	}
	return sys.RunContext(ctx)
}
