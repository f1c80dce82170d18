package cache

// Arena keeps the arrays of the hierarchies one owner builds one after
// another, so that a sweep worker's next point does not allocate and zero
// megabytes its last point is about to drop: free lists keyed by level
// geometry, each level's arrays cleared when they are handed out. The
// LLC has one geometry at every core count and the private levels one
// each, so an arena grows to its owner's largest machine and stays there.
//
// An arena serves one live Hierarchy: Reset declares the previous one
// dead and every array free again. It is not safe for concurrent use, and
// nothing a hierarchy reports (LevelStats, HierStats) points into it. The
// zero value is ready; a nil *Arena allocates.
type Arena struct {
	lists  []levelList // a handful: one per level geometry seen
	bytes  int64
	reuses int64
}

// levelList is the arena's arrays of levels of one geometry, sets × ways;
// the first used of them are with the live hierarchy.
type levelList struct {
	sets, ways int
	levels     []levelArrays
	used       int
}

// levelArrays is one level's arrays: its tag words and recency words.
type levelArrays struct {
	tags   []uint32
	orders []uint64
}

// Reset takes back every array handed out: the hierarchy that had them
// must not be used again.
func (a *Arena) Reset() {
	for i := range a.lists {
		a.lists[i].used = 0
	}
}

// Bytes is the memory the arena holds, handed out or free.
func (a *Arena) Bytes() int64 { return a.bytes }

// Reuses counts the levels handed arrays that an earlier hierarchy had
// already used, each one an allocation not made.
func (a *Arena) Reuses() int64 { return a.reuses }

// arrays returns zeroed arrays for a level of cfg's geometry.
func (a *Arena) arrays(cfg Config) levelArrays {
	if a == nil {
		return makeLevel(cfg)
	}
	sets, ways := cfg.Sets(), cfg.Ways
	var l *levelList
	for i := range a.lists {
		if a.lists[i].sets == sets && a.lists[i].ways == ways {
			l = &a.lists[i]
			break
		}
	}
	if l == nil {
		a.lists = append(a.lists, levelList{sets: sets, ways: ways})
		l = &a.lists[len(a.lists)-1]
	}
	if l.used == len(l.levels) {
		l.levels = append(l.levels, makeLevel(cfg))
		a.bytes += cfg.ArrayBytes()
	} else {
		clear(l.levels[l.used].tags)
		clear(l.levels[l.used].orders)
		a.reuses++
	}
	l.used++
	return l.levels[l.used-1]
}

// makeLevel allocates zeroed arrays for a level of cfg's geometry.
func makeLevel(cfg Config) levelArrays {
	return levelArrays{make([]uint32, cfg.Sets()*cfg.Ways), make([]uint64, cfg.Sets())}
}
