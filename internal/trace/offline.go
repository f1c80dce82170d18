package trace

import (
	"fmt"

	"dramstacks/internal/dram"
	"dramstacks/internal/stacks"
)

// BuildBandwidthStack reconstructs a bandwidth stack from a command
// trace by replaying it through the device timing model: every cycle up
// to (and a little past) the last command is classified with the same
// hierarchical rules the online accountant uses. Commands must be in
// issue order and legal; a timing violation aborts with an error.
//
// totalCycles, when positive, extends the accounting to that many cycles
// (so a stack matches a simulation window that ended after the last
// command); zero lets the accounting end when the device drains.
func BuildBandwidthStack(events []Event, geo dram.Geometry, tim dram.Timing, totalCycles int64) (stacks.BandwidthStack, error) {
	dev := dram.NewDevice(geo, tim)
	acct := stacks.NewBandwidthAccountant(geo.TotalBanks())

	var busyUntil int64 // latest data / refresh / bank activity seen

	account := func(t int64, next *dram.Command) {
		view := stacks.CycleView{
			Data:       dev.ConsumeBusKind(t),
			Refreshing: dev.AnyRefreshing(t),
		}
		if view.Data == dram.DataNone && !view.Refreshing {
			preMask, actMask, _ := dev.BusyMasks(t)
			view.PreMask, view.ActMask = preMask, actMask
			if next != nil && !dev.CanIssue(*next, t) {
				// The upcoming command was prevented this cycle: the
				// request behind it was waiting.
				view.Pending = true
				// It marks its bank, widened to the scope of what binds it.
				bank := geo.Bank(next.Loc)
				view.BlockedMask = 1<<bank | dev.Sharing(bank, dev.Blocking(*next, t))
				if preMask|actMask|view.BlockedMask == 0 {
					view.ChannelBlocked = true
				}
			}
		}
		acct.Account(view)
	}

	now := int64(0)
	for i := range events {
		ev := events[i]
		if ev.Cycle < now {
			return stacks.BandwidthStack{}, fmt.Errorf("trace: command %d at cycle %d out of order (at %d)",
				i, ev.Cycle, now)
		}
		for t := now; t < ev.Cycle; t++ {
			dev.Sync(t)
			account(t, &ev.Cmd)
		}
		dev.Sync(ev.Cycle)
		if !dev.CanIssue(ev.Cmd, ev.Cycle) {
			return stacks.BandwidthStack{}, fmt.Errorf("trace: command %d (%v) illegal at cycle %d",
				i, ev.Cmd, ev.Cycle)
		}
		dev.Issue(ev.Cmd, ev.Cycle)
		// Account the issue cycle itself (bank activity now visible).
		var next *dram.Command
		if i+1 < len(events) {
			next = &events[i+1].Cmd
		}
		account(ev.Cycle, next)
		now = ev.Cycle + 1

		// Track how long the device stays busy after this command.
		switch {
		case ev.Cmd.Kind.IsColumn():
			_, end := dev.DataWindow(ev.Cmd.Kind, ev.Cycle)
			if ev.Cmd.Kind.AutoPrecharge() {
				end = ev.Cycle + int64(tim.WriteToPre()) + int64(tim.RP)
			}
			if end > busyUntil {
				busyUntil = end
			}
		case ev.Cmd.Kind == dram.CmdREF:
			if end := ev.Cycle + int64(tim.RFC); end > busyUntil {
				busyUntil = end
			}
		case ev.Cmd.Kind == dram.CmdACT:
			if end := ev.Cycle + int64(tim.RCD); end > busyUntil {
				busyUntil = end
			}
		case ev.Cmd.Kind == dram.CmdPRE || ev.Cmd.Kind == dram.CmdPREA:
			if end := ev.Cycle + int64(tim.RP); end > busyUntil {
				busyUntil = end
			}
		}
	}

	end := busyUntil
	if totalCycles > 0 {
		end = totalCycles
	}
	for t := now; t < end; t++ {
		dev.Sync(t)
		account(t, nil)
	}
	return acct.Stack(), nil
}
