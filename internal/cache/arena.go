package cache

// Arena keeps the word arrays of the hierarchies one owner builds one
// after another, so that a sweep worker's next point does not allocate
// and zero megabytes its last point is about to drop: free lists keyed
// by array length, each array cleared when it is handed out. The LLC's
// array has one length at every core count and the private levels' one
// each, so an arena grows to its owner's largest machine and stays there.
//
// An arena serves one live Hierarchy: Reset declares the previous one
// dead and every array free again. It is not safe for concurrent use, and
// nothing a hierarchy reports (LevelStats, HierStats) points into it. The
// zero value is ready; a nil *Arena allocates.
type Arena struct {
	lists  []wordList // a handful: one per level geometry seen
	bytes  int64
	reuses int64
}

// wordBytes is the size of an array element.
const wordBytes = 8

// wordList is the arena's arrays of n words; the first used of them are
// with the live hierarchy.
type wordList struct {
	n      int
	arrays [][]uint64
	used   int
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

// Reuses counts the arrays handed out that an earlier hierarchy had
// already used, each one an allocation not made.
func (a *Arena) Reuses() int64 { return a.reuses }

// words returns a zeroed array of n words.
func (a *Arena) words(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	var l *wordList
	for i := range a.lists {
		if a.lists[i].n == n {
			l = &a.lists[i]
			break
		}
	}
	if l == nil {
		a.lists = append(a.lists, wordList{n: n})
		l = &a.lists[len(a.lists)-1]
	}
	if l.used == len(l.arrays) {
		l.arrays = append(l.arrays, make([]uint64, n))
		a.bytes += int64(n) * wordBytes
	} else {
		clear(l.arrays[l.used])
		a.reuses++
	}
	l.used++
	return l.arrays[l.used-1]
}
