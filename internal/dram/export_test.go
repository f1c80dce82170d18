package dram

// BankWindows returns bank i's activate and precharge windows, its
// pending auto-precharge landing (0: none) and whether its row is open:
// what the full-scan references in the tests recompute the device's
// bank sets from.
func (d *Device) BankWindows(i int) (actStart, actDone, preStart, preDone, apAt int64, open bool) {
	b := &d.banks[i]
	return b.actStart, b.actDone, b.preStart, b.preDone, b.apAt, d.open&(1<<i) != 0
}

// RefUntil returns the cycle rank's in-flight refresh ends.
func (d *Device) RefUntil(rank int) int64 { return d.ranks[rank].refUntil }

// BusBusyUntil returns the first cycle the data bus is free.
func (d *Device) BusBusyUntil() int64 { return d.busBusyUntil }
