// Package sched implements the hierarchical timing wheel that drives
// the simulator's event-driven main loop: every component whose next
// event falls on a memory cycle — memory controllers (including their
// refresh deadlines), the through-time sampler, the cancellation poll
// and the warmup/budget boundaries — registers that cycle as an actor in
// the wheel, and the main loop jumps from event to event instead of
// interrogating every component every cycle. (Cores sleep to CPU-cycle
// deadlines of their own; see sim.System.cpuPhase.)
//
// The wheel is the classic hierarchical design (Varghese & Lauck):
// four levels of 64 slots each, where level l buckets events at a
// granularity of 64^l cycles, so the structure spans 64^4 ≈ 16.7M
// cycles before events overflow into a far set. Each slot holds a
// bitmask of actor IDs and each level keeps an occupancy bitmask of its
// non-empty slots, so finding the earliest pending event is a handful
// of bit scans. Advancing the wheel cascades events from outer levels
// into inner ones exactly when their frame comes into range.
//
// Determinism: the wheel never iterates a map and PopDue returns a
// bitmask the caller walks in ascending actor-ID order, so the order in
// which same-cycle events fire is a pure function of actor numbering.
// The package is part of the repository's deterministic core (see
// internal/analysis/passes/detpkg).
package sched

import (
	"math"
	"math/bits"
)

const (
	// MaxActors is the number of distinct actor IDs a wheel tracks.
	// 64 keeps every slot a single uint64 bitmask; the simulator needs
	// well under that (≤16 controllers + four boundary actors).
	MaxActors = 64

	levelBits = 6 // 64 slots per level
	slotCount = 1 << levelBits
	slotMask  = slotCount - 1
	numLevels = 4

	// None is returned by Earliest and At when nothing is scheduled.
	None = math.MaxInt64
)

// level is one ring of the wheel: 64 slots of actor bitmasks plus an
// occupancy bitmask of the non-empty slots.
type level struct {
	slots [slotCount]uint64
	occ   uint64
}

// position records where a scheduled actor currently sits, so Cancel
// and reschedules clear the right bit even after the wheel advanced.
type position struct {
	level int8 // 0..numLevels-1, farLevel for the far set
	slot  uint8
}

const farLevel = int8(numLevels)

// Wheel is a hierarchical timing wheel over int64 cycles. The zero
// value is not ready; use New.
type Wheel struct {
	now    int64
	levels [numLevels]level
	far    uint64 // actors beyond the top level's frame
	sched  uint64 // bitmask of scheduled actors
	next   [MaxActors]int64
	pos    [MaxActors]position
}

// New returns a wheel positioned at cycle 0 with no events.
func New() *Wheel {
	return &Wheel{}
}

// Now returns the wheel's current cycle.
func (w *Wheel) Now() int64 { return w.now }

// Scheduled reports whether actor a has a pending event.
func (w *Wheel) Scheduled(a int) bool { return w.sched&(1<<uint(a)) != 0 }

// At returns actor a's pending event cycle, or None.
func (w *Wheel) At(a int) int64 {
	if !w.Scheduled(a) {
		return None
	}
	return w.next[a]
}

// Schedule sets actor a's next event to cycle at (at >= Now),
// replacing any pending event. Scheduling is O(1).
func (w *Wheel) Schedule(a int, at int64) {
	if at < w.now {
		panic("sched: scheduling into the past")
	}
	if w.Scheduled(a) {
		w.remove(a)
	}
	w.sched |= 1 << uint(a)
	w.next[a] = at
	w.place(a, at)
}

// Cancel removes actor a's pending event, if any.
func (w *Wheel) Cancel(a int) {
	if !w.Scheduled(a) {
		return
	}
	w.remove(a)
	w.sched &^= 1 << uint(a)
}

// remove clears a's slot bit (a must be scheduled).
func (w *Wheel) remove(a int) {
	p := w.pos[a]
	if p.level == farLevel {
		w.far &^= 1 << uint(a)
		return
	}
	l := &w.levels[p.level]
	l.slots[p.slot] &^= 1 << uint(a)
	if l.slots[p.slot] == 0 {
		l.occ &^= 1 << p.slot
	}
}

// place files actor a under the innermost level whose current frame
// contains cycle at. Level l holds events sharing the wheel's frame at
// level l+1; everything beyond the top frame goes to the far set.
func (w *Wheel) place(a int, at int64) {
	for l := 0; l < numLevels; l++ {
		frameShift := uint(levelBits * (l + 1))
		if at>>frameShift == w.now>>frameShift {
			slot := uint8(at >> uint(levelBits*l) & slotMask)
			w.pos[a] = position{level: int8(l), slot: slot}
			lv := &w.levels[l]
			lv.slots[slot] |= 1 << uint(a)
			lv.occ |= 1 << slot
			return
		}
	}
	w.pos[a] = position{level: farLevel}
	w.far |= 1 << uint(a)
}

// Advance moves the wheel's clock to cycle to, cascading events whose
// frame came into range down toward level 0. Events strictly before to
// must have been popped already: jumping over a pending event panics,
// because the simulator skipping past a due event is a lost wakeup.
func (w *Wheel) Advance(to int64) {
	if to < w.now {
		panic("sched: advancing into the past")
	}
	if to == w.now {
		return
	}
	old := w.now
	w.now = to
	// An event sits at level l because its cycle is outside the wheel's
	// current level-(l-1) frame; when now's level-l sub-frame pointer
	// (now >> 6l) changes, events at level l may have come into range
	// and are re-placed against the new now (place() moves them down as
	// far as they can go). Level 0 is pulled too purely as validation:
	// anything still there was jumped over, which replaceAll panics on.
	// If a shift-6l prefix is unchanged, all coarser prefixes are too,
	// so the loop stops at the first quiet level.
	for l := 1; l <= numLevels; l++ {
		shift := uint(levelBits * l)
		if old>>shift == to>>shift {
			break
		}
		if l == 1 {
			w.pullLevel(0)
		}
		if l < numLevels {
			w.pullLevel(l)
		} else {
			mask := w.far
			w.far = 0
			w.replaceAll(mask)
		}
	}
}

// pullLevel empties level l and re-places its actors. The level is
// snapshotted first: place() may legitimately file an actor back into
// the very slot being drained (its frame did not change), which must
// not be pulled again.
func (w *Wheel) pullLevel(l int) {
	lv := &w.levels[l]
	var all uint64
	for lv.occ != 0 {
		slot := trailingZeros(lv.occ)
		all |= lv.slots[slot]
		lv.slots[slot] = 0
		lv.occ &^= 1 << uint(slot)
	}
	w.replaceAll(all)
}

// replaceAll re-places every actor in mask against the current now.
func (w *Wheel) replaceAll(mask uint64) {
	for mask != 0 {
		a := trailingZeros(mask)
		mask &^= 1 << uint(a)
		if w.next[a] < w.now {
			panic("sched: advanced past a pending event")
		}
		w.place(a, w.next[a])
	}
}

// PopDue returns the bitmask of actors whose event cycle is exactly
// now, removing them from the wheel. The caller iterates the mask in
// ascending actor-ID order for deterministic same-cycle firing.
func (w *Wheel) PopDue() uint64 {
	lv := &w.levels[0]
	slot := uint8(w.now & slotMask)
	if lv.occ&(1<<slot) == 0 {
		return 0
	}
	// Level 0 holds only events inside the current 64-cycle frame, so
	// everything in this slot is due at exactly now.
	mask := lv.slots[slot]
	lv.slots[slot] = 0
	lv.occ &^= 1 << slot
	w.sched &^= mask
	return mask
}

// Earliest returns the earliest pending event cycle, or None. It never
// modifies the wheel.
func (w *Wheel) Earliest() int64 {
	if w.sched == 0 {
		return None
	}
	// Level 0: slots at or after now within the current frame fire at
	// frame_base | slot exactly.
	if occ := w.levels[0].occ &^ (1<<uint(w.now&slotMask) - 1); occ != 0 {
		return w.now&^slotMask | int64(trailingZeros(occ))
	}
	// Outer levels bucket at coarser granularity: the lowest occupied
	// slot is the earliest bucket (no wrap: a level only holds events
	// inside the current frame of the level above, which are all ahead
	// of now), but the earliest event inside it needs an exact scan.
	for l := 1; l < numLevels; l++ {
		if occ := w.levels[l].occ; occ != 0 {
			return w.minNext(w.levels[l].slots[trailingZeros(occ)])
		}
	}
	return w.minNext(w.far)
}

// minNext returns the minimum next[] cycle over the actors in mask.
func (w *Wheel) minNext(mask uint64) int64 {
	min := int64(None)
	for mask != 0 {
		a := trailingZeros(mask)
		mask &^= 1 << uint(a)
		if w.next[a] < min {
			min = w.next[a]
		}
	}
	return min
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
