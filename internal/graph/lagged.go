package graph

import "math/rand"

// math/rand's source is the additive lagged-Fibonacci generator
//
//	y[n] = y[n-607] + y[n-273]  mod 2^64
//
// whose Uint64 is y[n] and Int63 y[n] with the top bit cleared; seeding
// only fills y[-607..-1]. The recurrence is linear, so the stream can be
// entered anywhere: if x^m = c[0] + c[1]x + … + c[606]x^606 modulo the
// characteristic polynomial x^607 − x^334 − 1, then y[m-607] is the dot
// product of c with y[-607..-1]. That is what lets Kronecker draw its
// edges in parts, each from a generator that starts at its own part's
// first draw.
const (
	lagLen = 607 // the long lag: words of state
	lagTap = 334 // lagLen − 273, where the short lag sits in a window
)

// lagged is math/rand's generator positioned anywhere in its stream. vec
// holds the last lagLen outputs; vec[feed] is the oldest, y[n-607] for
// the next output y[n], and vec[tap] is y[n-273].
type lagged struct {
	feed, tap int
	vec       [lagLen]uint64
}

func (g *lagged) Uint64() uint64 {
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	if g.feed++; g.feed == lagLen {
		g.feed = 0
	}
	if g.tap++; g.tap == lagLen {
		g.tap = 0
	}
	return x
}

func (g *lagged) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

// Seed is rand.Source's; a generator placed by a jump has no seed to
// return to.
func (g *lagged) Seed(int64) { panic("graph: a jumped generator cannot be reseeded") }

// lagBase is the state rand.NewSource(seed) starts from, y[-607..-1].
type lagBase [lagLen]uint64

// newLagBase recovers rand.NewSource(seed)'s seeded state from its first
// lagLen outputs by running the recurrence backwards,
// y[n-607] = y[n] − y[n-273], newest first.
func newLagBase(seed int64) *lagBase {
	src := rand.NewSource(seed).(rand.Source64)
	var y [2 * lagLen]uint64 // y[i] is y[i-607]
	for i := lagLen; i < len(y); i++ {
		y[i] = src.Uint64()
	}
	for i := lagLen - 1; i >= 0; i-- {
		y[i] = y[i+lagLen] - y[i+lagTap]
	}
	b := new(lagBase)
	copy(b[:], y[:lagLen])
	return b
}

// at returns a generator whose next output is the stream's draw k (k ≥ 0).
// Its window y[k-607..k-1] is the base dotted with x^k, x^(k+1), … in
// turn; x^k comes by square-and-multiply from the largest power of the
// form x^(k>>s) that is still a monomial. The product buffer lives on the
// stack, one per call.
func (b *lagBase) at(k int) *lagged {
	var c lagPoly
	s := 0
	for k>>s >= lagLen {
		s++
	}
	c[k>>s] = 1
	var prod [2*lagLen - 1]uint64
	for s--; s >= 0; s-- {
		c.square(&prod)
		if k>>s&1 != 0 {
			c.shift()
		}
	}
	g := &lagged{feed: 0, tap: lagTap}
	for j := range g.vec {
		var dot uint64
		for i, ci := range c {
			dot += ci * b[i]
		}
		g.vec[j] = dot
		c.shift()
	}
	return g
}

// lagPoly is a polynomial modulo x^607 − x^334 − 1 with uint64
// coefficients, c[i] that of x^i.
type lagPoly [lagLen]uint64

// shift multiplies c by x: the coefficient that reaches x^607 folds back
// onto x^334 and 1.
func (c *lagPoly) shift() {
	t := c[lagLen-1]
	copy(c[1:], c[:lagLen-1])
	c[0] = t
	c[lagTap] += t
}

// square replaces c by c², using prod as the unreduced product. Each
// cross term is added once, doubled; the reduction folds x^d, from the
// top down, onto x^(d-607) and x^(d-273).
func (c *lagPoly) square(prod *[2*lagLen - 1]uint64) {
	clear(prod[:])
	for i, ci := range c {
		if ci == 0 {
			continue
		}
		prod[2*i] += ci * ci
		ci2 := 2 * ci
		row := prod[2*i+1 : i+lagLen]
		for j, cj := range c[i+1:] {
			row[j] += ci2 * cj
		}
	}
	for d := len(prod) - 1; d >= lagLen; d-- {
		prod[d-lagLen] += prod[d]
		prod[d-lagLen+lagTap] += prod[d]
	}
	copy(c[:], prod[:lagLen])
}
